import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

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
from bondboson.cli import fmt_float, fmt_momentum, main
from bondboson.fock import FockSpace
from bondboson.lattice import chain_momenta
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


# Loaded on first use, not at import: this test process may have loaded them
# already, so the checks below run in fresh interpreters.
LAZY_MODULES = ("scipy", "bondboson.fock", "bondboson.interactions")


@pytest.mark.parametrize("argv,loaded", [
    (None, []),
    (["spectrum", "ssh", "--sites", "6"], []),
    (["verify", "identities", "--model", "ssh", "--sites", "6"], []),
    (["verify", "correspondence", "--model", "dirac2d", "--lx", "2", "--ly", "3"], []),
    (["verify", "commutators", "--model", "ssh", "--sites", "6"], ["scipy"]),
    (["verify", "interactions", "--model", "ssh", "--sites", "4"], sorted(LAZY_MODULES)),
], ids=["setup-probe", "spectrum", "identities", "correspondence", "commutators",
        "interactions"])
def test_commands_load_only_what_they_run(tmp_path, argv, loaded):
    # the first case is the benchmark's setup probe: import the CLI, build its parser
    script = "import json, sys\nimport bondboson.cli\nbondboson.cli.build_parser()\n"
    if argv is not None:
        argv = argv + ["--output", str(tmp_path / "report")]
        script += f"assert bondboson.cli.main({argv!r}) == 0\n"
    script += f"print(json.dumps(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == loaded


def test_interactions_bind_the_fock_route_in_a_fresh_interpreter():
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


def test_commutators_hole_table_stops_at_the_site_count(capsys):
    # --holes may empty every site; one more is a usage error (BAD_FLAGS)
    code, out, _ = run_cli(["verify", "commutators", "--model", "ssh", "--sites", "2",
                            "--holes", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["highlighted"]["holes"] == 2
    assert sorted({row["holes"] for row in payload["deviation_vs_holes"]}) == [0, 1, 2]


def test_spectrum_exits_1_on_a_failed_verdict(capsys):
    # the closed forms overflow at m*m: NaN discrepancies fail the table
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run_cli(
            ["spectrum", "dirac2d", "--lx", "2", "--ly", "2", "--mass", "1e200"], capsys
        )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["max_discrepancy"] == "+nan"


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
    # 65,536 blocks: the report is about 50 MB of text, never held whole
    out = tmp_path / "report.json"
    code, peak_mb = child_peak_mb(["spectrum", "dirac2d", "--lx", "16", "--ly", "16",
                                   "--output", str(out)])
    assert code == 0
    end = b'"verdict": "pass"\n}\n'
    with out.open("rb") as fh:
        fh.seek(-len(end), os.SEEK_END)
        assert fh.read() == end
    assert peak_mb < 250


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
    "--t0": [math.nan, math.inf, -math.inf, 1e308, 1e200, 0.0, -0.5],
    "--alpha-u": [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200],
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
