"""The ``verify identities`` report, written as one row table, against the dict route.

``table_oracle.identities_json`` builds one check dict per identity and judges
it itself; the CLI writes the same bytes from a row template and label tables.
They are compared at every tier-1 size, with injected residuals (NaN, +-inf,
+0.0 and -0.0, a subnormal, one exactly at the tolerance and one just above
it), and at a tolerance so tight that rounding alone fails it.
"""

import json

import numpy as np
import pytest

import table_oracle
from bondboson import cli

SIZES = (
    [["--model", "ssh", "--sites", str(n), "--alpha-u", alpha_u]
     for n in range(2, 17, 2) for alpha_u in ("0", "0.13", "1e4")]
    + [["--model", "ssh", "--sites", str(n), "--alpha-u", "0.13", "--spinful"]
       for n in range(2, 9, 2)]
    + [["--model", "dirac2d", "--lx", str(lx), "--ly", str(ly), "--mass", mass]
       for lx in range(1, 9) for ly in range(1, 9) if lx * ly <= 8 for mass in ("0.5", "1e4")]
)
TOLERANCE = cli.DEFAULT_TOLERANCES["identities"]
# the residuals written over the first rows of an injected table
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, TOLERANCE, np.nextafter(TOLERANCE, 1.0)]


def run(argv, tmp_path, inject=None):
    """``verify identities argv``: its exit code, its report and the oracle's report of the
    same identities and residuals; ``inject(residuals)`` replaces the computed residuals."""
    compute, seen = cli.h_bond_commutator_residuals, []

    def measured(spec):
        identities, residuals = compute(spec)
        seen.append((identities, residuals if inject is None else inject(residuals.copy())))
        return seen[-1]

    argv = ["verify", "identities", *argv]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "h_bond_commutator_residuals", measured)
        code = cli.main(argv + ["--output", str(tmp_path / "report.json")])
    config = cli._config_from_args(cli.build_parser().parse_args(argv))
    return (code, (tmp_path / "report.json").read_text(),
            table_oracle.identities_json(config, *seen[0]))


@pytest.mark.parametrize("argv", SIZES, ids=[" ".join(argv[1::2]) for argv in SIZES])
def test_report_has_the_bytes_of_the_dict_route(argv, tmp_path):
    code, got, want = run(argv, tmp_path)
    assert got == want
    assert code == (0 if json.loads(want)["verdict"] == "pass" else 1)


def injected(residuals):
    residuals[:len(SPECIAL)] = SPECIAL
    return residuals


@pytest.mark.parametrize("argv", [["--model", "ssh", "--sites", "6"],
                                  ["--model", "dirac2d", "--lx", "2", "--ly", "3"]],
                         ids=["ssh6", "dirac2x3"])
def test_injected_residuals_have_the_bytes_of_the_dict_route(argv, tmp_path):
    code, got, want = run(argv, tmp_path, injected)
    assert got == want
    assert code == 1
    checks = json.loads(got)["checks"]
    labels = [check["residual"] for check in checks[:len(SPECIAL)]]
    assert labels == ["+nan", "+inf", "-inf", "+0.00000000000000e+00", "-0.00000000000000e+00",
                      "+4.94065645841247e-324", "+1.00000000000000e-12", "+1.00000000000000e-12"]
    # NaN fails, and the bound is the last passing residual
    assert [check["pass"] for check in checks[:len(SPECIAL)]] == [False, False, True, True, True,
                                                                  True, True, False]


def at(residual):
    """Zero residuals but one, ``residual``, in the middle."""
    def inject(residuals):
        residuals[:] = 0.0
        residuals[len(residuals) // 2] = residual
        return residuals
    return inject


@pytest.mark.parametrize("residual,code", [(TOLERANCE, 0), (np.nextafter(TOLERANCE, 1.0), 1)],
                         ids=["at_the_bound", "above_the_bound"])
def test_a_residual_passes_up_to_its_bound(residual, code, tmp_path):
    got_code, got, want = run(["--model", "dirac2d", "--lx", "2", "--ly", "3"], tmp_path,
                              at(residual))
    assert (got_code, got) == (code, want)
    assert json.loads(got)["verdict"] == ("pass" if code == 0 else "fail")


@pytest.mark.parametrize("argv", [["--model", "ssh", "--sites", "12", "--alpha-u", "0.13"],
                                  ["--model", "dirac2d", "--lx", "2", "--ly", "3"]],
                         ids=["ssh12", "dirac2x3"])
def test_rounding_fails_a_bound_of_1e_300(argv, tmp_path):
    code, got, want = run(argv + ["--tolerance", "1e-300"], tmp_path)
    assert (code, got) == (1, want)
    assert json.loads(got)["verdict"] == "fail"
