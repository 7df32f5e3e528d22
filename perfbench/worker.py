"""Child process of the benchmark: runs one workload's passes in process.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 --out DIR [--spans FILE]

Each pass calls ``bondboson.cli.main(argv)`` once per command, one after
another on one thread, writing every report with ``--output`` into the
``--out`` directory.  The first pass keeps its reports for the parent to
check; parsing them there keeps this process's peak RSS to what the
commands themselves use.  Later passes are only hashed, so the parent can
require byte-identical reports across passes.  With ``--trace 1`` the
passes alternate untraced and traced, starting untraced.

The fixed reference workload of ``reference.py`` is timed after every
pass.  The peak RSS is read after the first pass, before the first
reference, which would otherwise add its own allocations to it.

Prints one JSON line: per-pass command times, exit codes, report
digests, output bytes and (traced passes) per-layer metrics, the
reference times, plus the process's peak RSS through the first pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import workloads
from reference import reference_time
from tracer import Tracer, write_spans


def file_digest(path: str):
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def import_package(root: str):
    """Import bondboson from the checkout's ``src``, and from nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from bondboson import blocks, cli, fock, interactions

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"bondboson imported from {cli.__file__}, not from {src}")
    return {"cli": cli, "blocks": blocks, "fock": fock, "interactions": interactions}


def run_command(main, argv, tracer, request):
    try:
        if tracer is not None:
            return tracer.command(request, main, argv)
        return main(argv)
    except Exception:  # a crash is a failed operation; the next one still runs
        traceback.print_exc()
        return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    modules = import_package(args.root)
    cli_main = modules["cli"].main
    cmds = workloads.commands(args.workload, args.seed)
    tracer = Tracer(modules) if args.trace else None
    kept = [os.path.join(args.out, f"report{i}.{cmd.fmt}") for i, cmd in enumerate(cmds)]
    scratch = [os.path.join(args.out, f"scratch{i}.{cmd.fmt}") for i, cmd in enumerate(cmds)]
    min_passes = 2 if args.trace else 1

    passes = []
    span_passes = []
    start = time.perf_counter()
    reference_s = []
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        paths = kept if index == 0 else scratch
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        gc.collect()
        if traced:
            tracer.install()
        times, codes = [], []
        for i, cmd in enumerate(cmds):
            argv = list(cmd.argv) + ["--output", paths[i]]
            t = time.perf_counter()
            codes.append(run_command(cli_main, argv, tracer if traced else None, i))
            times.append(time.perf_counter() - t)
        if traced:
            tracer.uninstall()
        if index == 0:
            # the passes' peak, before the reference allocates anything
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reference_s.append(reference_time())
        record = {
            "traced": traced,
            "times": times,
            "codes": codes,
            "digests": [file_digest(p) for p in paths],
            "output_bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p)),
        }
        if traced:
            record["layers"] = tracer.metrics()
            span_passes.append((index, tracer.spans))
        passes.append(record)
        elapsed = time.perf_counter() - start
        longest = max(sum(p["times"]) for p in passes[-2:]) + reference_s[-1]
        if len(passes) >= min_passes and elapsed + longest > args.seconds:
            break

    if args.spans:
        write_spans(args.spans, span_passes)
    print(json.dumps({"passes": passes, "reference_s": reference_s, "peak_rss_kb": peak_kb,
                      "reports": kept}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
