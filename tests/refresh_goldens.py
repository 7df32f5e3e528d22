#!/usr/bin/env python3
"""Regenerate the golden report files under tests/golden/.

Run from the repository root after an intentional output change:

    python tests/refresh_goldens.py

The goldens pin byte-identical CLI output (canonical key order, fixed
float formatting), so any diff here is a deliberate decision.
"""

from __future__ import annotations

import pathlib
import sys

from bondboson.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "spectrum_ssh6.json": [
        "spectrum", "ssh", "--sites", "6", "--t0", "1.0", "--alpha-u", "0.1",
    ],
    "spectrum_ssh6.csv": [
        "spectrum", "ssh", "--sites", "6", "--t0", "1.0", "--alpha-u", "0.1",
        "--format", "csv",
    ],
    "spectrum_dirac2x2.json": [
        "spectrum", "dirac2d", "--lx", "2", "--ly", "2", "--mass", "0.8",
    ],
    "verify_commutators_ssh6.json": [
        "verify", "commutators", "--model", "ssh", "--sites", "6", "--holes", "0",
    ],
    "verify_commutators_dirac2x3.json": [
        "verify", "commutators", "--model", "dirac2d", "--lx", "2", "--ly", "3",
        "--mass", "0.8", "--holes", "1", "--seed", "5",
    ],
    "verify_interactions_ssh6.json": [
        "verify", "interactions", "--model", "ssh", "--sites", "6", "--seed", "3",
    ],
    "spectrum_dirac2x3.json": [
        "spectrum", "dirac2d", "--lx", "2", "--ly", "3", "--mass", "1.3",
    ],
    "spectrum_ssh10_alpha0.csv": [
        "spectrum", "ssh", "--sites", "10", "--alpha-u", "0", "--format", "csv",
    ],
}


def refresh() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN / name
        code = main(argv + ["--output", str(path)])
        if code != 0:
            print(f"[x] {name}: exit {code}", file=sys.stderr)
            return code
        print(f"[ok] wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(refresh())
