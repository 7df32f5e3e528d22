import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from refresh_goldens import CASES

import bondboson
from bondboson.blocks import correspondence_report
from bondboson.cli import _check, build_parser, fmt_float, fmt_momentum, main
from bondboson import fock
from bondboson.fock import FockSpace
from bondboson.lattice import ChainSpec, SquareSpec, chain_momenta
from table_oracle import float_momentum_label

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fmt_float_is_signed_scientific_15_digits():
    assert fmt_float(1.0) == "+1.00000000000000e+00"
    assert fmt_float(-4.44089209850063e-16) == "-4.44089209850063e-16"
    assert fmt_float(0.0) == "+0.00000000000000e+00"


def test_fmt_momentum_rational_multiples():
    assert fmt_momentum(0, 5) == "0"
    assert fmt_momentum(1, 3) == "2/3 pi"
    assert fmt_momentum(3, 6) == "1 pi"
    assert fmt_momentum(3, 4) == "3/2 pi"
    assert fmt_momentum(360, 720) == "1 pi"
    assert fmt_momentum(1, 720) == "1/360 pi"
    # 2/1442 = 1/721: past the largest printed denominator, the grid's float
    assert fmt_momentum(1, 1442) == fmt_float(chain_momenta(1442)[1]) == "+4.35727136420221e-03"


def test_fmt_momentum_matches_the_float_route_on_every_grid_to_1500():
    rng = np.random.default_rng(0)
    for n in range(1, 1501):
        grid = chain_momenta(n)
        if n <= 100:
            indices = range(n)
        else:
            indices = np.unique(np.r_[0, n // 4, n // 2, n - 1, rng.integers(0, n, 46)]).tolist()
        for j in indices:
            assert fmt_momentum(j, n) == float_momentum_label(grid[j]), (j, n)


def test_fmt_momentum_matches_fraction_on_every_grid_below_1500():
    # Fraction reduces 2j/n the plain way; indices run a few past each end of the grid
    for n in range(1, 1500):
        for j in range(-3, n + 3):
            frac = Fraction(2 * j, n)
            want = (fmt_float(2 * math.pi * j / n) if frac.denominator > 720
                    else f"{frac} pi" if frac else "0")
            assert fmt_momentum(j, n) == want, (j, n)


def test_spectrum_ssh_csv_block_count(capsys):
    code, out, _ = run_cli(
        ["spectrum", "ssh", "--sites", "6", "--t0", "1", "--alpha-u", "0.1",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    # 3 q x 3 k momentum blocks, 4 eigenvalues each, plus the header
    assert len(lines) == 1 + 9 * 4
    assert lines[0].startswith("q,k,rank")


def test_spectrum_two_site_chain(capsys):
    code, out, _ = run_cli(
        ["spectrum", "ssh", "--sites", "2", "--alpha-u", "0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["blocks"]) == 1
    numeric = [float(v) for v in payload["blocks"][0]["numeric"]]
    assert np.allclose(numeric, [-4.0, 0.0, 0.0, 4.0], atol=1e-10)


def test_missing_sites_is_usage_error(capsys):
    code, _, err = run_cli(["spectrum", "ssh"], capsys)
    assert code == 2
    assert "--sites" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(["spectrum", "ssh", "--sites", "6", "--bogus"], capsys)
    assert code == 2


def test_odd_sites_is_usage_error(capsys):
    code, _, err = run_cli(["spectrum", "ssh", "--sites", "5"], capsys)
    assert code == 2
    assert "even" in err


def test_verify_correspondence_ssh(capsys):
    code, out, _ = run_cli(
        ["verify", "correspondence", "--model", "ssh", "--sites", "6",
         "--alpha-u", "0.1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert float(payload["max_discrepancy"]) <= 1e-10


def test_verify_commutators_filled_expectation(capsys):
    code, out, _ = run_cli(
        ["verify", "commutators", "--model", "ssh", "--sites", "6", "--holes", "0"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert float(payload["highlighted"]["expectation"]) == pytest.approx(6.0)
    assert float(payload["highlighted"]["normalized_per_site"]) == pytest.approx(1.0)
    holes_rows = payload["deviation_vs_holes"]
    for row in holes_rows:
        if not row["self_paired"]:
            assert float(row["deviation"]) == pytest.approx(2.0 * row["holes"], abs=1e-12)


def test_verify_commutators_dirac(capsys):
    code, out, _ = run_cli(
        ["verify", "commutators", "--model", "dirac2d", "--lx", "3", "--ly", "2",
         "--mass", "0.6"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["site_count"] == 6
    # the highlighted bond is a genuine (non-self-paired) one
    assert float(payload["highlighted"]["expectation"]) == pytest.approx(6.0)


# the square lattice's unit cell is one site (c and b sit on the same site), the chain's two
two_site_cells = pytest.mark.xfail(strict=True, reason="normalized_per_cell divides by "
                                   "site_count // 2 on both models")


@pytest.mark.parametrize("argv, cells", [
    (["--model", "ssh", "--sites", "6"], 3),
    pytest.param(["--model", "dirac2d", "--lx", "1", "--ly", "3"], 3, marks=two_site_cells),
    pytest.param(["--model", "dirac2d", "--lx", "2", "--ly", "3", "--mass", "0.8",
                  "--holes", "1", "--seed", "5"], 6, marks=two_site_cells),
    pytest.param(CASES["verify_commutators_dirac2x4.json"][2:], 8, marks=two_site_cells),
], ids=["ssh6", "dirac1x3", "dirac2x3-golden", "dirac2x4-golden"])
def test_commutators_normalize_per_unit_cell(capsys, argv, cells):
    code, out, _ = run_cli(["verify", "commutators", *argv], capsys)
    assert code == 0
    highlighted = json.loads(out)["highlighted"]
    assert float(highlighted["normalized_per_cell"]) == pytest.approx(
        float(highlighted["expectation"]) / cells)


def test_verify_identities_dirac(capsys):
    code, out, _ = run_cli(
        ["verify", "identities", "--model", "dirac2d", "--lx", "2", "--ly", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert float(payload["max_residual"]) <= 1e-12


def test_verify_identities_ssh_spinful(capsys):
    code, out, _ = run_cli(
        ["verify", "identities", "--model", "ssh", "--sites", "4",
         "--alpha-u", "0.2", "--spinful"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    channels = {c["channel"] for c in payload["checks"]}
    assert channels == {"E(+)", "E(-)", "D(+)", "D(-)"}


def test_verify_interactions(capsys):
    code, out, _ = run_cli(
        ["verify", "interactions", "--model", "ssh", "--sites", "6", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_interactions_suite_requires_chain_model(capsys):
    code, _, err = run_cli(
        ["verify", "interactions", "--model", "dirac2d", "--lx", "2", "--ly", "2"],
        capsys,
    )
    assert code == 2
    assert "chain" in err


def test_oversize_fock_space_is_resource_error(capsys):
    code, _, err = run_cli(
        ["verify", "identities", "--model", "dirac2d", "--lx", "3", "--ly", "3"],
        capsys,
    )
    assert code == 3
    assert "16" in err


@pytest.mark.parametrize("args", [["--model", "ssh", "--sites", "18"],
                                  ["--model", "dirac2d", "--lx", "3", "--ly", "3"]],
                         ids=["ssh18", "dirac3x3"])
def test_commutators_past_the_mode_cap_are_a_resource_error(capsys, args):
    code, out, err = run_cli(["verify", "commutators"] + args, capsys)
    assert code == 3
    assert out == ""
    assert "18 modes exceed" in err


# An address-space cap for a child: the small table below fits in it, and an
# oversized table's first allocation fails in it on any host, whatever its
# overcommit policy.
ADDRESS_CAP = 1 << 30


def child_env(**extra) -> dict:
    """The environment of a child interpreter that imports this checkout's bondboson."""
    src = pathlib.Path(bondboson.__file__).resolve().parents[1]
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def capped_cli(argv):
    """``python -m bondboson argv`` in a child whose address space is ``ADDRESS_CAP``."""
    return subprocess.run(
        [sys.executable, "-m", "bondboson", *argv], capture_output=True, text=True,
        env=child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP)))


@pytest.mark.skipif(resource is None, reason="caps the child with resource.setrlimit")
@pytest.mark.parametrize("argv,flag", [
    (["spectrum", "ssh", "--sites", "400000"], "--sites"),
    (["verify", "correspondence", "--model", "ssh", "--sites", "10000000"], "--sites"),
    (["spectrum", "dirac2d", "--lx", "800", "--ly", "800"], "--lx/--ly"),
], ids=["spectrum-ssh", "correspondence-ssh", "spectrum-dirac2d"])
def test_oversized_table_is_a_resource_error(argv, flag):
    small = capped_cli(["spectrum", "ssh", "--sites", "40"])
    assert small.returncode == 0, small.stderr
    proc = capped_cli(argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unwritable_output_is_io_error(capsys):
    code, _, err = run_cli(
        ["spectrum", "ssh", "--sites", "2", "--output",
         "/nonexistent-dir/report.json"],
        capsys,
    )
    assert code == 1
    assert "cannot write" in err


def test_json_output_is_deterministic(tmp_path):
    args = ["spectrum", "ssh", "--sites", "6", "--alpha-u", "0.1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name,args", list(CASES.items()), ids=list(CASES))
def test_golden_files(tmp_path, name, args):
    out = tmp_path / name
    assert main(args + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,args", list(CASES.items()), ids=list(CASES))
def test_golden_files_on_stdout(capsys, name, args):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_build_parser_returns_one_parser_per_process():
    assert build_parser() is build_parser()


def test_main_carries_no_state_between_calls(tmp_path, capsys):
    # every golden twice in one process, with a usage error and --help between
    # reports: a flag of one call must not leak into the next through the shared parser
    for rerun in range(2):
        for name, args in CASES.items():
            out = tmp_path / name
            assert main(args + ["--output", str(out)]) == 0, (rerun, name)
            assert out.read_bytes() == (GOLDEN / name).read_bytes(), (rerun, name)
            code, _, err = run_cli(["spectrum", "ssh", "--sites", "5"], capsys)
            assert code == 2 and "--sites" in err, (rerun, name, err)
            code, usage, _ = run_cli(["--help"], capsys)
            assert code == 0 and usage.startswith("usage: bondboson"), (rerun, name)


def test_module_entry_point_subprocess(tmp_path):
    out = tmp_path / "out.json"
    cmd = [
        sys.executable, "-m", "bondboson",
        "verify", "correspondence", "--model", "ssh", "--sites", "6",
        "--alpha-u", "0.1", "--output", str(out),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "pass"


# Loaded by no command, only by the tests' Fock oracle: this test process may have
# loaded them already, so the checks below run in fresh interpreters.
LAZY_MODULES = ("scipy", "bondboson.fock")
# Never loaded by the numpy-only commands: momentum labels reduce 2j/n by math.gcd.
UNUSED_MODULES = ("fractions", "decimal")


@pytest.mark.parametrize("argv,loaded", [
    (None, []),
    (["spectrum", "ssh", "--sites", "6"], []),
    (["verify", "identities", "--model", "ssh", "--sites", "6"], []),
    (["verify", "correspondence", "--model", "dirac2d", "--lx", "2", "--ly", "3"], []),
    (["verify", "commutators", "--model", "ssh", "--sites", "6"], []),
    (["verify", "interactions", "--model", "ssh", "--sites", "4"], []),
], ids=["setup-probe", "spectrum", "identities", "correspondence", "commutators",
        "interactions"])
def test_commands_load_only_what_they_run(tmp_path, argv, loaded):
    # the first case is the benchmark's setup probe: import the CLI, build its parser
    script = "import json, sys\nimport bondboson.cli\nbondboson.cli.build_parser()\n"
    if argv is not None:
        argv = argv + ["--output", str(tmp_path / "report")]
        script += f"assert bondboson.cli.main({argv!r}) == 0\n"
    script += ("print(json.dumps([sorted(m for m in names if m in sys.modules)\n"
               f"                  for names in ({LAZY_MODULES!r}, {UNUSED_MODULES!r})]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [loaded, []]


def test_interactions_run_in_a_fresh_interpreter():
    name = "verify_interactions_ssh6.json"
    proc = subprocess.run([sys.executable, "-m", "bondboson", *CASES[name]],
                          capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()

    proc = subprocess.run(
        [sys.executable, "-m", "bondboson", "verify", "interactions", "--model", "ssh",
         "--sites", "18"], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "18 modes exceed the exact-representation cap of 16" in proc.stderr


@pytest.mark.parametrize("name", ["verify_commutators_ssh6.json",
                                  "verify_commutators_dirac2x3.json",
                                  "verify_interactions_ssh6.json",
                                  "verify_interactions_ssh10.json",
                                  "verify_interactions_ssh16.json"])
def test_commands_run_without_scipy(name):
    # a None entry in sys.modules makes every scipy import raise ImportError
    script = ("import sys\nsys.modules['scipy'] = None\nimport bondboson.cli\n"
              f"sys.exit(bondboson.cli.main({CASES[name]!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()


def test_commutators_hole_table_stops_at_the_site_count(capsys):
    # --holes may empty every site; one more is a usage error (BAD_FLAGS)
    code, out, _ = run_cli(["verify", "commutators", "--model", "ssh", "--sites", "2",
                            "--holes", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["highlighted"]["holes"] == 2
    assert sorted({row["holes"] for row in payload["deviation_vs_holes"]}) == [0, 1, 2]


@pytest.mark.parametrize("argv, failing", [
    # rounding alone exceeds a tolerance this tight (a mass whose closed
    # forms would overflow to NaN is rejected at the flag, see BAD_FLAGS)
    (["spectrum", "dirac2d", "--lx", "2", "--ly", "2", "--mass", "0.5"], None),
    # 48 of the 72 identities have a rounding residual, the other 24 an exact zero
    (["verify", "identities", "--model", "ssh", "--sites", "12", "--alpha-u", "0.13"], 48),
    (["verify", "commutators", "--model", "ssh", "--sites", "6"], ["filled_unmatched_law"]),
    # the bond-assembled residual is a rounding distance on coefficients, never pruned to 0
    (["verify", "interactions", "--model", "ssh", "--sites", "10", "--seed", "3"],
     ["bond_assembled_interaction"]),
], ids=["spectrum", "identities", "commutators", "interactions"])
def test_spectrum_exits_1_on_a_failed_verdict(capsys, argv, failing):
    code, out, _ = run_cli(argv + ["--tolerance", "1e-300"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert _check(float("nan"), 1.0)["pass"] is False
    if failing is None:
        assert float(payload["max_discrepancy"]) > 1e-300
        return
    # the one rule: a check passes when its residual is within its bound, its own
    # tolerance where it reports one, else the flag
    for check in payload["checks"]:
        bound = float(check.get("tolerance", 1e-300))
        assert check["pass"] == (float(check["residual"]) <= bound), check
    failed = [check.get("name") for check in payload["checks"] if not check["pass"]]
    assert (len(failed) if isinstance(failing, int) else failed) == failing


TABLE_MODELS = {"ssh": (["--sites", "6", "--alpha-u", "0.13"], ChainSpec(6, alpha_u=0.13)),
                "dirac2d": (["--lx", "2", "--ly", "3"], SquareSpec(2, 3, delta=0.5))}


@pytest.mark.parametrize("command", [["spectrum", "{model}"],
                                     ["spectrum", "{model}", "--format", "csv"],
                                     ["verify", "correspondence", "--model", "{model}"]],
                         ids=["spectrum-json", "spectrum-csv", "correspondence"])
@pytest.mark.parametrize("model", list(TABLE_MODELS))
def test_table_verdict_at_its_own_max_discrepancy(capsys, command, model):
    # a table passes exactly when its max_discrepancy is within the tolerance:
    # at the discrepancy itself it passes, one float below it fails
    flags, spec = TABLE_MODELS[model]
    argv = [arg.format(model=model) for arg in command] + flags
    discrepancy = correspondence_report(spec).max_discrepancy
    assert discrepancy > 0
    for tolerance, code in ((discrepancy, 0), (np.nextafter(discrepancy, 0), 1)):
        got, out, err = run_cli(argv + ["--tolerance", repr(float(tolerance))], capsys)
        assert (got, err) == (code, ""), tolerance
        if "csv" not in argv:
            assert json.loads(out)["verdict"] == ("pass" if code == 0 else "fail")


@pytest.mark.parametrize("args", [["--model", "ssh", "--sites", "6"],
                                  ["--model", "ssh", "--sites", "12"],
                                  ["--model", "dirac2d", "--lx", "2", "--ly", "3"]],
                         ids=["ssh6", "ssh12", "dirac2x3"])
@pytest.mark.parametrize("holes", [0, 1, 2, 3])
def test_highlight_equals_its_deviation_vs_holes_row(capsys, args, holes):
    # the highlight is the first bond that is not self-paired, at the first grid
    # momentum: a row of the hole table, with the same state and the same deviation
    code, out, _ = run_cli(["verify", "commutators", *args, "--holes", str(holes)], capsys)
    assert code == 0
    payload = json.loads(out)
    row = next(row for row in payload["deviation_vs_holes"]
               if row["holes"] == holes and not row["self_paired"])
    assert row["k"] in ("0", ["0", "0"])
    highlighted = payload["highlighted"]
    assert (highlighted["expectation"], highlighted["deviation"]) == (row["expectation"],
                                                                      row["deviation"])


def test_commutators_at_the_16_mode_cap(capsys):
    code, out, _ = run_cli(
        ["verify", "commutators", "--model", "ssh", "--sites", "16", "--holes", "2",
         "--seed", "4"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["site_count"] == 16
    assert len(payload["self_paired_cells"]) == 16
    assert len(payload["deviation_vs_holes"]) == 4 * 8


def child_peak_mb(argv):
    """Exit code and peak RSS in MB of ``main(argv)`` run in a fresh interpreter.

    The child reports its own peak: RUSAGE_CHILDREN would also count the
    children of other tests.  It reads VmHWM, the peak of its own address
    space, because ru_maxrss also keeps the RSS the process had just
    before exec, which is the test runner's (over 300 MB in a full run).
    """
    script = ("import pathlib\n"
              "from bondboson.cli import main\n"
              f"code = main({argv!r})\n"
              "status = pathlib.Path('/proc/self/status').read_text()\n"
              "print(code, status.split('VmHWM:')[1].split()[0])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = proc.stdout.split()
    return int(code), int(peak_kb) / 1024


needs_proc = pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(),
                                reason="reads the peak RSS from /proc")


@needs_proc
def test_commutators_at_the_16_mode_cap_stay_small(tmp_path):
    out = tmp_path / "report.json"
    code, peak_mb = child_peak_mb(["verify", "commutators", "--model", "ssh", "--sites", "16",
                                   "--holes", "2", "--seed", "4", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "pass"
    assert peak_mb < 100


@needs_proc
@pytest.mark.parametrize("argv", [["--model", "dirac2d", "--lx", "2", "--ly", "4"],
                                  ["--model", "ssh", "--sites", "16", "--alpha-u", "0.1"]],
                         ids=["dirac2x4", "ssh16"])
def test_identities_at_the_16_mode_cap_stay_small(tmp_path, argv):
    out = tmp_path / "report.json"
    code, peak_mb = child_peak_mb(["verify", "identities"] + argv + ["--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "pass"
    assert peak_mb < 100


@needs_proc
def test_interactions_at_the_16_mode_cap_stay_small(tmp_path):
    out = tmp_path / "report.json"
    code, peak_mb = child_peak_mb(["verify", "interactions", "--model", "ssh", "--sites", "16",
                                   "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "pass"
    assert peak_mb < 90


def test_interactions_past_the_mode_cap_are_a_resource_error(capsys):
    code, out, err = run_cli(["verify", "interactions", "--model", "ssh", "--sites", "18"], capsys)
    assert code == 3
    assert out == ""
    assert "18 modes exceed the exact-representation cap of 16" in err


@needs_proc
def test_large_grid_spectrum_is_streamed(tmp_path):
    # 65,536 blocks: the report is about 50 MB of text, never held whole.  The peak was
    # 104 MB with the whole grid's block stack diagonalized at once and is about 65 MB
    # with one stack per chunk (VmHWM, x86-64, Python 3.11, numpy 2.4)
    out = tmp_path / "report.json"
    code, peak_mb = child_peak_mb(["spectrum", "dirac2d", "--lx", "16", "--ly", "16",
                                   "--output", str(out)])
    assert code == 0
    end = b'"verdict": "pass"\n}\n'
    with out.open("rb") as fh:
        fh.seek(-len(end), os.SEEK_END)
        assert fh.read() == end
    assert peak_mb < 85


@needs_proc
def test_chain_spectrum_csv_formats_floats_in_blocks(tmp_path):
    # about 30,000 distinct floats.  The table writer's peak before the numpy float
    # kernel was 64.3-64.4 MB (VmHWM, 5 runs, x86-64, Python 3.11, numpy 2.4); the
    # bound is that plus 5%, the benchmark's own peak RSS bound, so a kernel whose
    # scratch arrays grow with the whole table, not a fixed block, fails here first
    out = tmp_path / "table.csv"
    code, peak_mb = child_peak_mb(["spectrum", "ssh", "--sites", "200", "--format", "csv",
                                   "--output", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 4 * 100 * 100
    assert peak_mb < 67.7


@pytest.mark.parametrize("args", [["--model", "ssh", "--sites", "6"],
                                  ["--model", "dirac2d", "--lx", "2", "--ly", "3"]],
                         ids=["ssh6", "dirac2x3"])
def test_commutators_build_no_fock_space(monkeypatch, capsys, args):
    def refuse(*_):
        raise AssertionError("verify commutators built a Fock space")

    monkeypatch.setattr(FockSpace, "__init__", refuse)
    code, out, _ = run_cli(["verify", "commutators"] + args, capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_interactions_build_no_fock_operator(monkeypatch, capsys):
    # every number is taken on coefficients; the 16-mode cap needs no Fock space either
    def refuse(*_):
        raise AssertionError("verify interactions built a Fock object")

    monkeypatch.setattr(fock.FockSpace, "__init__", refuse)
    monkeypatch.setattr(fock.SparseOperator, "__init__", refuse)
    code, out, _ = run_cli(["verify", "interactions", "--model", "ssh", "--sites", "16",
                            "--seed", "3"], capsys)
    assert code == 0
    assert out == (GOLDEN / "verify_interactions_ssh16.json").read_text()
    code, out, err = run_cli(["verify", "interactions", "--model", "ssh", "--sites", "18"], capsys)
    assert (code, out) == (3, "")
    assert "18 modes exceed the exact-representation cap of 16" in err


@pytest.mark.parametrize(
    "args,checks",
    [
        (["identities", "--model", "ssh", "--sites", "16", "--alpha-u", "0.1"], 128),
        (["identities", "--model", "ssh", "--sites", "8", "--spinful", "--alpha-u", "0.1"], 128),
        (["identities", "--model", "dirac2d", "--lx", "2", "--ly", "4", "--mass", "1.3"], 256),
        (["interactions", "--model", "ssh", "--sites", "14"], 3),
    ],
    ids=["identities-ssh16", "identities-ssh8-spinful", "identities-dirac2x4",
         "interactions-ssh14"],
)
def test_suites_pass_at_the_16_mode_cap(capsys, args, checks):
    code, out, _ = run_cli(["verify"] + args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert len(payload["checks"]) == checks


BAD_FLAGS = [
    ("--tolerance", ["verify", "correspondence", "--model", "ssh", "--sites", "4",
                     "--tolerance", "nan"]),
    ("--tolerance", ["verify", "correspondence", "--model", "ssh", "--sites", "4",
                     "--tolerance", "inf"]),
    ("--tolerance", ["verify", "correspondence", "--model", "ssh", "--sites", "4",
                     "--tolerance", "0"]),
    ("--t0", ["verify", "identities", "--model", "ssh", "--sites", "4", "--t0", "nan"]),
    ("--t0", ["spectrum", "ssh", "--sites", "4", "--t0=-1"]),
    ("--alpha-u", ["spectrum", "ssh", "--sites", "4", "--alpha-u=-inf"]),
    ("--mass", ["spectrum", "dirac2d", "--lx", "2", "--ly", "2", "--mass", "inf"]),
    ("--sites", ["spectrum", "ssh", "--sites", "5"]),
    ("--sites", ["verify", "commutators", "--model", "ssh", "--sites", "0"]),
    ("--lx", ["spectrum", "dirac2d", "--lx", "0", "--ly", "2"]),
    ("--ly", ["verify", "identities", "--model", "dirac2d", "--lx", "2", "--ly=-1"]),
    ("--lx", ["verify", "commutators", "--model", "dirac2d", "--lx", "1", "--ly", "1"]),
    ("--spinful", ["verify", "commutators", "--model", "dirac2d", "--lx", "2", "--ly", "2",
                   "--spinful"]),
    ("--spinful", ["verify", "correspondence", "--model", "ssh", "--sites", "4", "--spinful"]),
    ("--holes", ["verify", "commutators", "--model", "ssh", "--sites", "4", "--holes=-1"]),
    # more holes than sites, each hole emptying one site's pair-carrying mode
    ("--holes", ["verify", "commutators", "--model", "ssh", "--sites", "4", "--holes", "5"]),
    ("--holes", ["verify", "commutators", "--model", "dirac2d", "--lx", "1", "--ly", "2",
                 "--holes", "3"]),
    ("--seed", ["verify", "interactions", "--model", "ssh", "--sites", "4", "--seed=-1"]),
    # finite values whose block entries overflow
    ("--mass", ["spectrum", "dirac2d", "--lx", "2", "--ly", "2", "--mass", "1e308"]),
    ("--t0", ["spectrum", "ssh", "--sites", "4", "--t0", "1e308"]),
    ("--alpha-u", ["spectrum", "ssh", "--sites", "4", "--alpha-u", "1e308"]),
    ("--alpha-u", ["verify", "correspondence", "--model", "ssh", "--sites", "4",
                   "--t0", "5e307", "--alpha-u=-3e307"]),
    ("--mass", ["verify", "correspondence", "--model", "dirac2d", "--lx", "1", "--ly", "1",
                "--mass=-1e308"]),
    # the chain table adds two band energies, each up to hypot(2*t0, 4*alpha_u)
    ("--t0", ["spectrum", "ssh", "--sites", "4", "--t0", "8e307"]),
    ("--t0", ["spectrum", "ssh", "--sites", "4", "--t0", "5e307", "--alpha-u", "1e307"]),
    ("--alpha-u", ["verify", "correspondence", "--model", "ssh", "--sites", "4",
                   "--alpha-u", "4e307"]),
    # the 2D band energies square m = mass/2 (past |mass| ~ 2.68e154)
    ("--mass", ["spectrum", "dirac2d", "--lx", "2", "--ly", "2", "--mass", "1e200"]),
    ("--mass", ["verify", "correspondence", "--model", "dirac2d", "--lx", "2", "--ly", "2",
                "--mass", "1e200"]),
    # chain hopping entries are bounded by the block bound too (2 sites double one)
    ("--t0", ["verify", "identities", "--model", "ssh", "--sites", "2", "--t0", "1e308"]),
    ("--t0", ["verify", "identities", "--model", "ssh", "--sites", "4", "--t0", "1.7e308",
              "--alpha-u", "1e307"]),
    # and the identity weight 2*mass by the 2D bound
    ("--mass", ["verify", "identities", "--model", "dirac2d", "--lx", "2", "--ly", "2",
                "--mass", "1e308"]),
    # flags the model or the suite does not read
    ("--lx", ["verify", "identities", "--model", "ssh", "--sites", "4", "--holes", "3",
              "--lx", "0", "--mass", "5"]),
    ("--ly", ["spectrum", "ssh", "--sites", "4", "--ly", "1"]),
    ("--mass", ["spectrum", "ssh", "--sites", "4", "--mass", "5"]),
    ("--sites", ["spectrum", "dirac2d", "--lx", "2", "--ly", "2", "--sites", "4"]),
    ("--t0", ["verify", "commutators", "--model", "dirac2d", "--lx", "2", "--ly", "2",
              "--t0", "1"]),
    ("--alpha-u", ["verify", "identities", "--model", "dirac2d", "--lx", "2", "--ly", "2",
                   "--alpha-u", "0.1"]),
    ("--holes", ["verify", "identities", "--model", "ssh", "--sites", "4", "--holes", "3"]),
    ("--holes", ["verify", "correspondence", "--model", "dirac2d", "--lx", "2", "--ly", "2",
                 "--holes", "0"]),
    # only the commutators and interactions suites draw random numbers
    ("--seed", ["spectrum", "ssh", "--sites", "4", "--seed", "1"]),
    ("--seed", ["verify", "correspondence", "--model", "dirac2d", "--lx", "2", "--ly", "2",
                "--seed", "0"]),
    ("--seed", ["verify", "identities", "--model", "ssh", "--sites", "4", "--seed", "3"]),
    # verify writes JSON only
    ("--format", ["verify", "identities", "--model", "ssh", "--sites", "4", "--format", "csv"]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag,args", BAD_FLAGS, ids=[" ".join(args) for _, args in BAD_FLAGS])
def test_bad_flag_is_usage_error_naming_the_flag(capsys, flag, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert f"error: {flag}" in err


@pytest.mark.xfail(strict=True, reason="suites accept and echo model flags they never read")
def test_commutators_reject_the_hopping_flags_they_never_read(capsys):
    code, out, err = run_cli(["verify", "commutators", "--model", "ssh", "--sites", "4",
                              "--t0", "5", "--alpha-u", "2"], capsys)
    assert code == 2
    assert "--t0" in err


EDGE_VALUES = {
    "--t0": [math.nan, math.inf, -math.inf, 1e308, 8e307, 1e200, 0.0, -0.5],
    "--alpha-u": [math.nan, math.inf, -math.inf, 1e308, -1e308, -4e307, 1e200],
    "--mass": [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, -2.5],
    "--tolerance": [math.nan, math.inf, 0.0, -1.0, 1e308],
}


@st.composite
def cli_runs(draw):
    """argv for one CLI run on at most 8 Fock modes, with the numeric flags it sets.

    Only the model's own numeric flags are set (the other model's are
    rejected by name).  At most one takes an edge value (NaN, +-inf, 1e308,
    zero or a negative number), so that most runs get past validation to a
    report.
    """
    command = draw(st.sampled_from(["spectrum", "correspondence", "identities",
                                    "commutators", "interactions"]))
    model = draw(st.sampled_from(["ssh", "dirac2d"]))
    argv = ["spectrum", model] if command == "spectrum" else ["verify", command, "--model", model]
    spinful = command != "spectrum" and draw(st.sampled_from([False] * 5 + [True]))
    if model == "ssh":
        sites = draw(st.sampled_from([2, 4, 6, 8, 2, 4, 6, 8, 0, 3]))
        argv.append(f"--sites={min(sites, 4) if spinful else sites}")
    else:
        lx, ly = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (0, 2)]))
        argv += [f"--lx={lx}", f"--ly={ly}"]
    if spinful:
        argv.append("--spinful")
    if model == "ssh":
        numbers = {"--t0": draw(st.floats(0.1, 3.0)), "--alpha-u": draw(st.floats(-3.0, 3.0))}
    else:
        numbers = {"--mass": draw(st.floats(-3.0, 3.0))}
    numbers["--tolerance"] = draw(st.sampled_from([1e-12, 1e-10, 0.5]))
    edge = draw(st.sampled_from([None, None, None, *EDGE_VALUES]))
    if edge is not None:
        numbers[edge] = draw(st.sampled_from(EDGE_VALUES[edge]))
    argv += [f"{flag}={value!r}" for flag, value in numbers.items()]
    if command == "commutators":
        argv.append(f"--holes={draw(st.integers(0, 2))}")
    return argv, numbers


def must_reject(argv, numbers) -> list:
    """The flags whose values the CLI must reject whatever the other flags say."""
    flags = [flag for flag, value in numbers.items() if not math.isfinite(value)]
    if flags:
        return flags
    if numbers["--tolerance"] <= 0:
        flags.append("--tolerance")
    if numbers.get("--t0", 1.0) <= 0:
        flags.append("--t0")
    if argv[0] == "spectrum" or argv[1] in ("correspondence", "identities"):
        # the block entries, the chain hopping entries and the identity
        # weights are bounded by 2|t0| + 4|alpha_u|, resp. 2|mass|
        terms = {flag: factor * abs(numbers[flag])
                 for flag, factor in (("--t0", 2.0), ("--alpha-u", 4.0), ("--mass", 2.0))
                 if flag in numbers}
        if not math.isfinite(sum(terms.values())):
            flags.append(max(terms, key=terms.get))
    if argv[0] == "spectrum" or argv[1] == "correspondence":
        # the chain table adds two band energies, each up to hypot(2|t0|, 4|alpha_u|);
        # the 2D band energies square m = mass/2
        if "--t0" in numbers and not math.isfinite(2.0 * math.hypot(*terms.values())):
            flags.append(max(terms, key=terms.get))
        m = numbers.get("--mass", 0.0) / 2.0
        if not math.isfinite(m * m):
            flags.append("--mass")
    return flags


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_runs())
def test_cli_input_boundary(run):
    argv, numbers = run
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(over="ignore", invalid="ignore"):
            code = main(argv + ["--output", str(report)])
        event(f"exit {code}")
        rejected = must_reject(argv, numbers)
        if rejected:
            # value checks come first: a bad value is named even beside a bad size
            assert code == 2
            assert any(err.getvalue().startswith(f"error: {flag}") for flag in rejected)
        if code == 2:
            assert err.getvalue().startswith("error:")
            return
        assert code in (0, 1), (code, err.getvalue())
        payload = json.loads(report.read_text())
    if "checks" in payload:
        passed = all(c["pass"] for c in payload["checks"])
    else:
        tolerance = numbers["--tolerance"]
        passed = all(float(b["max_discrepancy"]) <= tolerance for b in payload["blocks"])
    assert payload["verdict"] == ("pass" if passed else "fail")
    assert code == (0 if passed else 1)
