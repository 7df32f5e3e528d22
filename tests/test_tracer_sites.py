"""Every name the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` patches functions by ``(module, attribute)`` and
methods of ``SparseOperator`` by name; a refactor that drops or renames
one of them would crash ``perfbench/run.py --trace 1``.  The tracer is
loaded from its file, so this test does not depend on ``perfbench``
being importable.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("module,attr", sorted({site[:2] for site in TRACER.FUNCTION_SITES}))
def test_function_site_resolves(module, attr):
    owner = importlib.import_module(f"bondboson.{module}")
    assert callable(getattr(owner, attr, None)), f"bondboson.{module}.{attr} is gone"


def test_sparse_algebra_methods_resolve():
    from bondboson.fock import FockSpace, SparseOperator

    for attr in TRACER.SPARSE_ALGEBRA + ("norm", "__init__"):
        assert callable(getattr(SparseOperator, attr, None)), f"SparseOperator.{attr} is gone"
    assert callable(getattr(FockSpace, "__init__", None))


def test_traced_commands_run_and_uninstall(tmp_path):
    from bondboson import blocks, cli, fock, interactions

    modules = {"cli": cli, "blocks": blocks, "fock": fock, "interactions": interactions}
    commands = [
        ["spectrum", "ssh", "--sites", "4", "--alpha-u", "0.1"],
        ["verify", "identities", "--model", "dirac2d", "--lx", "1", "--ly", "2"],
        ["verify", "commutators", "--model", "ssh", "--sites", "4"],
        ["verify", "interactions", "--model", "ssh", "--sites", "4"],
    ]
    tracer = TRACER.Tracer(modules)
    tracer.install()
    try:
        for request, argv in enumerate(commands):
            out = tmp_path / f"traced{request}.json"
            assert tracer.command(request, cli.main, argv + ["--output", str(out)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # the 4-block spectrum is one stacked build, closed form and eigensolve
    assert metrics["blocks.block_build.calls"] == 1
    assert metrics["blocks.closed_form.calls"] == 1
    assert metrics["numerics.hermitian_eigenvalues.calls"] == 1
    assert metrics["fock.boson_commutator_report.calls"] > 0
    # verify interactions takes its residual in the wrapped equivalence span, and no
    # command builds a sparse Fock operator
    assert "interactions.equivalence" in {s[3] for s in tracer.spans}
    assert metrics["fock.sparse_operator.calls"] == 0
    # uninstall puts every original back: no wrapper is left in the package
    assert not hasattr(cli.fmt_float, "__wrapped__")
    assert not hasattr(fock.SparseOperator.norm, "__wrapped__")
    for request, argv in enumerate(commands):
        plain = tmp_path / f"plain{request}.json"
        assert cli.main(argv + ["--output", str(plain)]) == 0
        assert plain.read_bytes() == (tmp_path / f"traced{request}.json").read_bytes()
