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

# golden file name -> the CLI argv that writes it (``tests/test_cli.py``
# checks each file against this same list)
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
    # non-square grid: catches x-major / repeat / tile mistakes in stacked code
    "spectrum_dirac2x3.json": [
        "spectrum", "dirac2d", "--lx", "2", "--ly", "3", "--mass", "1.3",
    ],
    # odd cell count and degenerate eigenvalue ties
    "spectrum_ssh10_alpha0.csv": [
        "spectrum", "ssh", "--sites", "10", "--alpha-u", "0", "--format", "csv",
    ],
    # four momentum columns: the 2D row layout of the CSV table
    "spectrum_dirac2x3.csv": [
        "spectrum", "dirac2d", "--lx", "2", "--ly", "3", "--mass", "1.3", "--format", "csv",
    ],
    # the correspondence suite: the table report with its "suite" key
    "verify_correspondence_dirac2x3.json": [
        "verify", "correspondence", "--model", "dirac2d", "--lx", "2", "--ly", "3",
        "--mass", "1.3",
    ],
    # 400 blocks holding 1,398 distinct floats and 109 exact zeros: pins the
    # digits of a mid-size chain table float by float
    "spectrum_ssh40_alpha013.csv": [
        "spectrum", "ssh", "--sites", "40", "--alpha-u", "0.13", "--format", "csv",
    ],
    # the identities suite: one momentum label per check, chain, spinful and 2D
    "verify_identities_ssh6.json": [
        "verify", "identities", "--model", "ssh", "--sites", "6", "--alpha-u", "0.1",
    ],
    "verify_identities_ssh4_spinful.json": [
        "verify", "identities", "--model", "ssh", "--sites", "4", "--alpha-u", "0.2",
        "--spinful",
    ],
    "verify_identities_dirac2x3.json": [
        "verify", "identities", "--model", "dirac2d", "--lx", "2", "--ly", "3",
        "--mass", "0.8",
    ],
    # the identity tables at the 16-mode cap: 256 rows with list-valued k and l, and
    # 128 chain rows whose nonzero residual digits pin the norms' bits
    "verify_identities_dirac2x4.json": [
        "verify", "identities", "--model", "dirac2d", "--lx", "2", "--ly", "4",
        "--mass", "0.8",
    ],
    "verify_identities_ssh16.json": [
        "verify", "identities", "--model", "ssh", "--sites", "16", "--alpha-u", "0.13",
    ],
    # 90 coupled pairs: a quartic build long enough to cross many term blocks,
    # with nonzero residual digits
    "verify_interactions_ssh10.json": [
        "verify", "interactions", "--model", "ssh", "--sites", "10", "--seed", "3",
    ],
    # the interaction checks at the 16-mode cap, 240 coupled pairs
    "verify_interactions_ssh16.json": [
        "verify", "interactions", "--model", "ssh", "--sites", "16", "--seed", "3",
    ],
    # the commutator tables at the 16-mode cap; at ssh16 the unmatched law is a
    # rounding residue, so its digits pin the table's off-diagonal bits
    "verify_commutators_ssh16_holes3.json": [
        "verify", "commutators", "--model", "ssh", "--sites", "16", "--holes", "3",
        "--seed", "4",
    ],
    "verify_commutators_dirac2x4.json": [
        "verify", "commutators", "--model", "dirac2d", "--lx", "2", "--ly", "4",
        "--mass", "0.8", "--holes", "2", "--seed", "9",
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
