"""Workload definitions: the CLI commands each workload runs, drawn from a seed.

Sizes are fixed; the seed only draws the physical parameters and the
seed handed to the seeded suites, so every seed does the same amount of
work.  Each command also states the report shape its sizes imply, which
the checks in ``checks.py`` compare against.

Sizes stay at 12 Fock modes or fewer so that one pass takes seconds.
The 14-16-mode commands take 13-38 s each and, at the commit that
introduced this benchmark, ``verify identities --model ssh --sites 16``
and ``verify interactions --model ssh --sites 14`` exit 1: nothing here
covers the documented 16-mode cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("spectrum-sweep", "operator-algebra", "near-filling")

# Per-command metric names, keyed by the command kind.
KIND_METRICS = {
    "spectrum": "spectrum_s",
    "correspondence": "correspondence_s",
    "identities": "identities_s",
    "interactions": "interactions_s",
    "commutators": "commutators_s",
}

T0 = 1.0
# Suite tolerances of the CLI; the tables are checked against the same bound.
TABLE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Params:
    """Parameters drawn from the benchmark seed."""

    alpha_u: float
    mass: float
    suite_seed: int


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the report shape its sizes imply."""

    kind: str
    argv: tuple
    fmt: str
    model: str
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def draw_params(seed: int) -> Params:
    rng = random.Random(seed)
    return Params(
        alpha_u=round(rng.uniform(0.05, 0.3), 6),
        mass=round(rng.uniform(0.5, 2.0), 6),
        suite_seed=rng.randrange(2**31),
    )


def _square_offset_classes(lx: int, ly: int) -> tuple:
    """(bond classes, self-reversed classes) among nonzero lattice offsets."""
    nonzero = lx * ly - 1
    self_reversed = sum(
        1
        for l in range(lx)
        for m in range(ly)
        if (l, m) != (0, 0) and (2 * l) % lx == 0 and (2 * m) % ly == 0
    )
    return (nonzero - self_reversed) // 2 + self_reversed, self_reversed


def spectrum_cmd(model: str, size: dict, p: Params, fmt: str = "json",
                 suite: bool = False) -> Command:
    """``spectrum`` (or ``verify correspondence``) over one model's full grid."""
    if model == "ssh":
        n_cells = size["sites"] // 2
        blocks = n_cells * n_cells
        args = ["--sites", str(size["sites"]), "--alpha-u", repr(p.alpha_u)]
    else:
        blocks = (size["lx"] * size["ly"]) ** 2
        args = ["--lx", str(size["lx"]), "--ly", str(size["ly"]), "--mass", repr(p.mass)]
    if suite:
        argv = ["verify", "correspondence", "--model", model] + args
    else:
        argv = ["spectrum", model] + args
    if fmt == "csv":
        argv += ["--format", "csv"]
    return Command(
        kind="correspondence" if suite else "spectrum",
        argv=tuple(argv),
        fmt=fmt,
        model=model,
        expect={"blocks": blocks, "alpha_u": p.alpha_u, "mass": p.mass, **size},
    )


def identities_cmd(model: str, size: dict, p: Params, spinful: bool = False) -> Command:
    if model == "ssh":
        n_cells = size["sites"] // 2
        channels = 4 if spinful else 1
        checks = channels * 2 * n_cells * n_cells
        args = ["--sites", str(size["sites"]), "--alpha-u", repr(p.alpha_u)]
        if spinful:
            args.append("--spinful")
    else:
        checks = 4 * (size["lx"] * size["ly"]) ** 2
        args = ["--lx", str(size["lx"]), "--ly", str(size["ly"]), "--mass", repr(p.mass)]
    return Command(
        kind="identities",
        argv=("verify", "identities", "--model", model, *args),
        fmt="json",
        model=model,
        expect={"checks": checks},
    )


def interactions_cmd(sites: int, p: Params) -> Command:
    return Command(
        kind="interactions",
        argv=("verify", "interactions", "--model", "ssh", "--sites", str(sites),
              "--alpha-u", repr(p.alpha_u), "--seed", str(p.suite_seed)),
        fmt="json",
        model="ssh",
        expect={"checks": 3},
    )


def commutators_cmd(model: str, size: dict, p: Params, holes: int = 0) -> Command:
    if model == "ssh":
        sites = size["sites"]
        site_count = sites
        lengths = sites // 2
        # only the half-ring bond wraps onto itself, at every site momentum
        self_paired = sites
        args = ["--sites", str(sites), "--alpha-u", repr(p.alpha_u)]
    else:
        site_count = size["lx"] * size["ly"]
        lengths, self_reversed = _square_offset_classes(size["lx"], size["ly"])
        self_paired = self_reversed * site_count
        args = ["--lx", str(size["lx"]), "--ly", str(size["ly"]), "--mass", repr(p.mass)]
    argv = ["verify", "commutators", "--model", model] + args + ["--seed", str(p.suite_seed)]
    if holes:
        argv += ["--holes", str(holes)]
    return Command(
        kind="commutators",
        argv=tuple(argv),
        fmt="json",
        model=model,
        expect={
            "checks": 2,
            "site_count": site_count,
            "holes_rows": 4 * lengths,
            "self_paired_cells": self_paired,
            "holes": holes,
        },
    )


def commands(workload: str, seed: int) -> list:
    """The commands of one pass over ``workload``, in run order."""
    p = draw_params(seed)
    if workload == "spectrum-sweep":
        return [
            spectrum_cmd("dirac2d", {"lx": 10, "ly": 10}, p),
            spectrum_cmd("ssh", {"sites": 200}, p, fmt="csv"),
            spectrum_cmd("dirac2d", {"lx": 6, "ly": 6}, p, suite=True),
        ]
    if workload == "operator-algebra":
        return [
            identities_cmd("ssh", {"sites": 12}, p),
            identities_cmd("ssh", {"sites": 6}, p, spinful=True),
            identities_cmd("dirac2d", {"lx": 2, "ly": 3}, p),
            interactions_cmd(12, p),
        ]
    if workload == "near-filling":
        return [
            commutators_cmd("ssh", {"sites": 12}, p, holes=1),
            commutators_cmd("dirac2d", {"lx": 2, "ly": 3}, p),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
