"""Benchmark of the bondboson CLI: three workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its
``src`` directory, nothing is installed.  A closed loop: one client runs
the workload's CLI commands one after another on one thread, in process
through ``bondboson.cli.main(argv)``, each report written with
``--output`` into a temporary directory under ``.perfbench/``.  Each
workload runs in its own fresh child process with BLAS/OpenMP threads
pinned to 1 and ``BONDBOSON_THREADS`` unset.

* ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
  fresh interpreters importing bondboson and building the parser),
  ``wall_over_ref`` (the time of one pass over the commands divided by
  the time of the fixed reference workload of ``reference.py`` run
  right before and after it, which takes the host's drifting speed out)
  and ``peak_rss_mb`` (the child's ``ru_maxrss`` after its first pass).
  The summary above the result line adds the plain pass time ``wall_s``,
  per-command times and the error rate.  Pass times and ratios are
  reduced over the run by the mean without the fastest and slowest
  quarter.
* ``--trace 1`` alternates untraced and traced passes and prints the
  per-layer metrics of the traced passes, ``wall_s``, per-command times
  and reference time of the untraced ones, and the tracing overhead
  (traced minus untraced ``wall_s``).  Spans go to
  ``.perfbench/spans-<workload>-seed<N>.jsonl``.

An operation (one command in one pass) fails if it exits non-zero,
its report does not parse, its verdict is not ``pass``, its counts
differ from what the sizes imply, a recomputed band sum disagrees, or
its bytes differ from the first pass of the run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

# Thread pools of numpy/scipy's BLAS and OpenMP, pinned to one thread.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# Fresh interpreters timed for setup_s, after one untimed warm-up that
# brings the installed libraries into the file cache.
SETUP_PROBES = 7
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import bondboson.cli\n"
    "bondboson.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

CHILD_TIMEOUT = 150


def pass_mean(values) -> float:
    """Mean of the passes without their fastest and slowest quarter.

    The host's speed drifts between levels that last from seconds to
    minutes.  A median of a few passes snaps to one level or the other,
    so runs that straddle a change scatter by the whole gap; the mean
    moves with the share of time spent at each level, and trimming a
    quarter at each end still drops a lone stalled or lucky pass.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


END_TO_END = [("setup_s", "s"), ("wall_over_ref", "ratio"), ("peak_rss_mb", "MB")]

# Per-layer metrics besides the tracer's: report bytes, pass and
# per-command times of the untraced passes, the reference's time, and
# traced minus untraced wall_s.
EXTRA_LAYER_METRICS = ["cli.output_bytes", "wall_s", *workloads.KIND_METRICS.values(),
                       "reference_s", "trace.overhead_s"]


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("BONDBOSON_THREADS", "PYTHONPATH")}
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # write no bytecode caches, so every run imports the same way and
    # nothing is written outside the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list, timeout: float) -> str:
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[1]} printed no result")
    return lines[-1]


def measure_setup() -> list:
    probe = [sys.executable, "-c", SETUP_PROBE]
    run_child(probe, 120)
    return [float(run_child(probe, 60)) for _ in range(SETUP_PROBES)]


def count_failures(cmds, passes, problems) -> int:
    """Operations that exited non-zero, wrote a bad report or changed bytes."""
    failed = 0
    reference = passes[0]["digests"]
    for p in passes:
        for i in range(len(cmds)):
            ok = (
                p["codes"][i] == 0
                and p["digests"][i] is not None
                and p["digests"][i] == reference[i]
                and not problems[i]
            )
            failed += not ok
    return failed


def kind_times(cmds, passes) -> dict:
    """Per-pass time of each command kind, summed over its commands (0 if absent)."""
    out = {}
    for kind, metric in workloads.KIND_METRICS.items():
        idx = [i for i, cmd in enumerate(cmds) if cmd.kind == kind]
        if not idx:
            out[metric] = 0.0
            continue
        out[metric] = pass_mean([sum(p["times"][i] for i in idx) for p in passes])
    return out


def ref_ratios(passes, reference_s) -> list:
    """Each pass's time over the mean of the reference times around it.

    ``reference_s[i]`` is timed right after pass ``i``; the first pass
    has only the one after it.
    """
    return [sum(p["times"]) / statistics.fmean(reference_s[max(i - 1, 0):i + 1])
            for i, p in enumerate(passes)]


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith((".nnz", ".dim", ".entries")):
        return "count"
    if name.endswith("bytes"):
        return "bytes"
    return "s"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmds = workloads.commands(workload, seed)
    os.makedirs(STATE, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE)
    try:
        setup = measure_setup()
        spans = os.path.join(STATE, f"spans-{workload}-seed{seed}.jsonl") if trace else ""
        worker = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
                  "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace), "--out", out_dir, "--spans", spans]
        result = json.loads(run_child(worker, CHILD_TIMEOUT))
        rng = random.Random(seed)
        problems = []
        for cmd, path in zip(cmds, result["reports"]):
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                problems.append([f"no report: {exc}"])
                continue
            problems.append(checks.problems(cmd, data, rng))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    passes = result["passes"]
    reference_s = result["reference_s"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall = pass_mean([sum(p["times"]) for p in plain])
    ratios = [r for p, r in zip(passes, ref_ratios(passes, reference_s)) if not p["traced"]]
    per_kind = kind_times(cmds, plain)
    if trace:
        # counts repeat exactly across passes; median_low keeps them whole
        metrics = {}
        for name in traced[0]["layers"]:
            median = statistics.median if unit_of(name) == "s" else statistics.median_low
            metrics[name] = median(p["layers"][name] for p in traced)
        metrics["cli.output_bytes"] = passes[0]["output_bytes"]
        metrics["wall_s"] = wall
        metrics.update(per_kind)
        metrics["reference_s"] = statistics.median(reference_s)
        traced_wall = pass_mean([sum(p["times"]) for p in traced])
        metrics["trace.overhead_s"] = traced_wall - wall
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_over_ref": pass_mean(ratios),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = dict(END_TO_END)
    attempted = len(passes) * len(cmds)
    failed = count_failures(cmds, passes, problems)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cmds": cmds,
        "passes": passes,
        "setup": setup,
        "reference_s": reference_s,
        "ratios": ratios,
        "problems": problems,
        "kind_times": per_kind,
        "spans": spans,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def print_summary(run: dict):
    res = run["result"]
    passes = run["passes"]
    plain = [sum(p["times"]) for p in passes if not p["traced"]]
    print(f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"passes {len(passes)} ({len(plain)} untraced)")
    for i, cmd in enumerate(run["cmds"]):
        status = "ok" if not run["problems"][i] else "FAILED"
        print(f"  [{status}] {cmd.label}")
        for problem in run["problems"][i][:5]:
            print(f"      {problem}")
    print(f"  operations {res['attempted']}  failed {res['failed']}  "
          f"error_rate {res['failed'] / res['attempted']:.4g} ratio")
    print(f"  setup_s (median of {len(run['setup'])} fresh interpreters) "
          f"{statistics.median(run['setup']):.4f} s  "
          f"[min {min(run['setup']):.4f}, max {max(run['setup']):.4f}]")
    print(f"  wall_s (trimmed mean of {len(plain)} untraced passes) {pass_mean(plain):.4f} s  "
          f"[min {min(plain):.4f}, max {max(plain):.4f}]")
    ref = run["reference_s"]
    print(f"  reference (median of {len(ref)}) {statistics.median(ref):.4f} s  "
          f"[min {min(ref):.4f}, max {max(ref):.4f}]")
    print(f"  wall_over_ref (trimmed mean of {len(run['ratios'])} untraced passes) "
          f"{pass_mean(run['ratios']):.4f}  "
          f"[min {min(run['ratios']):.4f}, max {max(run['ratios']):.4f}]")
    if not run["trace"]:
        for metric, value in run["kind_times"].items():
            if value:
                print(f"  {metric} (trimmed mean per pass) {value:.4f} s")
    width = max(len(name) for name in res["metrics"])
    for name, m in res["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    if run["spans"]:
        print(f"  spans written to {os.path.relpath(run['spans'], ROOT)}")


def stop_on_sigterm(signum, frame):
    # raising here makes subprocess.run kill and reap the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bondboson", "cli.py")):
        print(f"error: no bondboson sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_summary(run)
        print(json.dumps(run["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
