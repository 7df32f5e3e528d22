"""Self-tests of the benchmark's output checks and tracing.

    python3 perfbench/selftest.py

Runs small instances of every command kind in process and asserts that

* their reports pass the checks;
* one corrupted eigenvalue (JSON or CSV), one eigenvalue corrupted
  consistently in all three routes, a flipped verdict, a dropped check
  and a report that changes bytes between passes are each counted as
  failed;
* reports written under the tracer are byte-identical to untraced ones,
  and uninstalling the tracer restores every wrapped name;
* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, with
  the same units.

Prints one line per test and exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

import checks
import run
import workloads
from tracer import FUNCTION_SITES, Tracer
from worker import import_package

P = workloads.draw_params(7)

SMALL = [
    workloads.spectrum_cmd("dirac2d", {"lx": 3, "ly": 3}, P),
    workloads.spectrum_cmd("ssh", {"sites": 8}, P, fmt="csv"),
    workloads.spectrum_cmd("dirac2d", {"lx": 2, "ly": 2}, P, suite=True),
    workloads.identities_cmd("ssh", {"sites": 4}, P),
    workloads.identities_cmd("ssh", {"sites": 4}, P, spinful=True),
    workloads.identities_cmd("dirac2d", {"lx": 1, "ly": 2}, P),
    workloads.interactions_cmd(6, P),
    workloads.commutators_cmd("ssh", {"sites": 6}, P, holes=1),
    workloads.commutators_cmd("dirac2d", {"lx": 2, "ly": 3}, P),
]


def check(cmd, data: bytes) -> list:
    return checks.problems(cmd, data, random.Random(0))


def write_reports(main, tmp, tag, tracer=None) -> list:
    out = []
    for i, cmd in enumerate(SMALL):
        path = os.path.join(tmp, f"{tag}{i}.{cmd.fmt}")
        argv = list(cmd.argv) + ["--output", path]
        code = tracer.command(i, main, argv) if tracer else main(argv)
        assert code == 0, f"{cmd.label} exited {code}"
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


def dump(report) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def nudge(value: str) -> str:
    return f"{float(value) + 1e-6:+.14e}"


def test_small_reports_pass(reports):
    for cmd, data in zip(SMALL, reports):
        assert not check(cmd, data), (cmd.label, check(cmd, data))


def test_corrupted_json_eigenvalue(reports):
    report = json.loads(reports[0])
    report["blocks"][5]["numeric"][2] = nudge(report["blocks"][5]["numeric"][2])
    # the row consistency check covers every row, sampled or not
    assert any("routes disagree" in p for p in check(SMALL[0], dump(report)))


def test_consistently_corrupted_eigenvalue(reports):
    # all three routes agree, so only the recomputed band sums can catch it
    report = json.loads(reports[0])
    block = report["blocks"][7]
    for column in ("numeric", "closed_form", "fermion_pairs"):
        block[column][3] = nudge(block[column][3])
    assert any("band sums" in p for p in check(SMALL[0], dump(report)))


def test_corrupted_csv_eigenvalue(reports):
    lines = reports[1].decode().splitlines(keepends=True)
    fields = lines[9].split(",")
    fields[3] = nudge(fields[3])
    lines[9] = ",".join(fields)
    assert any("routes disagree" in p for p in check(SMALL[1], "".join(lines).encode()))


def test_flipped_verdict(reports):
    for i in range(2, len(SMALL)):
        report = json.loads(reports[i])
        report["verdict"] = "fail"
        assert check(SMALL[i], dump(report)), SMALL[i].label


def test_dropped_check(reports):
    report = json.loads(reports[3])
    report["checks"].pop()
    assert check(SMALL[3], dump(report))


def test_changed_bytes_between_passes(reports):
    cmds = SMALL[:2]
    good = {"codes": [0, 0], "digests": ["a", "b"]}
    changed = {"codes": [0, 0], "digests": ["a", "c"]}
    assert run.count_failures(cmds, [good, good], [[], []]) == 0
    assert run.count_failures(cmds, [good, changed], [[], []]) == 1
    assert run.count_failures(cmds, [good, good], [[], ["bad"]]) == 2


def test_traced_reports_identical(reports, modules, tmp):
    originals = [getattr(modules[m], a) for m, a, *_ in FUNCTION_SITES]
    tracer = Tracer(modules)
    tracer.install()
    try:
        traced = write_reports(modules["cli"].main, tmp, "traced", tracer)
    finally:
        tracer.uninstall()
    assert traced == reports, "traced reports differ from untraced ones"
    assert tracer.metrics()["fock.boson_commutator_report.calls"] > 0
    assert [getattr(modules[m], a) for m, a, *_ in FUNCTION_SITES] == originals


def test_benchmark_json_names(modules):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == dict(run.END_TO_END), end_to_end
    names = list(Tracer(modules).metrics()) + run.EXTRA_LAYER_METRICS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {n: run.unit_of(n) for n in names}, set(per_layer) ^ set(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def main() -> int:
    modules = import_package(run.ROOT)
    os.makedirs(run.STATE, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.STATE)
    failures = 0
    try:
        reports = write_reports(modules["cli"].main, tmp, "plain")
        tests = [
            (test_small_reports_pass, (reports,)),
            (test_corrupted_json_eigenvalue, (reports,)),
            (test_consistently_corrupted_eigenvalue, (reports,)),
            (test_corrupted_csv_eigenvalue, (reports,)),
            (test_flipped_verdict, (reports,)),
            (test_dropped_check, (reports,)),
            (test_changed_bytes_between_passes, (reports,)),
            (test_traced_reports_identical, (reports, modules, tmp)),
            (test_benchmark_json_names, (modules,)),
        ]
        for test, args in tests:
            try:
                test(*args)
                print(f"PASS {test.__name__}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {test.__name__}: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
