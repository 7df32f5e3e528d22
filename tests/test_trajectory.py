"""The committed benchmark trajectory: one ``BENCH_<n>.json`` per change at the repository root.

A data check only: each file parses and records, for every workload of
``BENCHMARK.json``, the medians of its end-to-end metrics on the parent
and on the change, with the seed and seconds they were run at.
"""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}


def test_every_trajectory_file_names_the_benchmark_workloads():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        record = json.loads(path.read_text())
        assert record["commit"] and record["host"], path.name
        assert set(record["workloads"]) == WORKLOADS, path.name
        for name, run in record["workloads"].items():
            assert run["seed"] >= 0 and run["seconds"] > 0, (path.name, name)
            for side in ("parent", "change"):
                assert set(run[side]) == METRICS, (path.name, name, side)
