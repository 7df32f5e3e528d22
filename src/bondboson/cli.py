"""Command-line driver: model sweeps, verification suites, reports.

Two commands:

* ``spectrum {ssh,dirac2d} ...`` writes the per-block eigenvalue table
  (numeric, closed-form, and fermion-pair columns) as JSON or CSV.
* ``verify {commutators,correspondence,interactions,identities} ...``
  runs one verification suite and writes a JSON report with per-check
  residuals and a pass/fail verdict.

Reports are deterministic: canonical key order, floats rendered in
scientific notation with an explicit sign and 15 significant digits,
momenta rendered as rational multiples of pi where exact.  A verdict
is "pass" only if every one of its checks passes; a NaN residual fails.
Exit codes: 0 pass, 1 I/O failure or failed verdict, 2 usage error,
3 Fock-space resource limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bilinear import (
    ChainPair,
    SquarePair,
    bond_self_paired,
    boson_commutator_report,
    h_bond_commutator_residuals,
    pair_commutator_table,
    square_bond_offsets,
)
from .blocks import correspondence_report
from .fock import FockSizeError, FockSpace
from .interactions import (
    coulomb_operator,
    coulomb_pair_form,
    interaction_equivalence_residual,
    pair_reconstruction_max,
    random_offdiag_coupling,
)
# imported for the benchmark tracer, which wraps these names where cli looks them up;
# the pair reconstruction is measured on coefficients
from .interactions import creation_pair_direct, pair_from_bonds  # noqa: F401
from .lattice import TWO_PI, ChainSpec, SquareSpec, chain_momenta, square_momenta
from .numerics import max_residual

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

SUITES = ("commutators", "correspondence", "interactions", "identities")

# Suite verdict tolerances; exact operator identities get the tighter bound.
DEFAULT_TOLERANCES = {
    "spectrum": 1e-10,
    "correspondence": 1e-10,
    "commutators": 1e-12,
    "identities": 1e-12,
    "interactions": 1e-12,
}


def fmt_float(x: float) -> str:
    """Scientific notation, explicit sign, 15 significant digits."""
    return f"{float(x):+.14e}"


def fmt_momentum(x: float) -> str:
    """Rational multiple of pi where exact ("2/3 pi"), else a plain float."""
    ratio = float(x) / np.pi
    frac = Fraction(ratio).limit_denominator(720)
    if abs(float(frac) * np.pi - float(x)) < 1e-12:
        if frac == 0:
            return "0"
        if frac.denominator == 1:
            return f"{frac.numerator} pi"
        return f"{frac.numerator}/{frac.denominator} pi"
    return fmt_float(x)


@dataclass
class RunConfig:
    """Validated flag bundle for one CLI invocation."""

    command: str
    model: str
    suite: str = ""
    sites: int = 0
    lx: int = 0
    ly: int = 0
    t0: float = 1.0
    alpha_u: float = 0.0
    mass: float = 0.5
    spinful: bool = False
    holes: int = 0
    seed: int = 0
    tolerance: float = 0.0
    fmt: str = "json"
    output: str = ""

    def chain_spec(self) -> ChainSpec:
        return ChainSpec(self.sites, t0=self.t0, alpha_u=self.alpha_u, spinful=self.spinful)

    def square_spec(self) -> SquareSpec:
        return SquareSpec(self.lx, self.ly, delta=self.mass)

    def echo(self) -> dict:
        out = {
            "command": self.command,
            "model": self.model,
            "seed": self.seed,
            "tolerance": fmt_float(self.tolerance),
            "format": self.fmt,
        }
        if self.suite:
            out["suite"] = self.suite
        if self.model == "ssh":
            out.update(
                sites=self.sites,
                t0=fmt_float(self.t0),
                alpha_u=fmt_float(self.alpha_u),
                spinful=self.spinful,
            )
        else:
            out.update(lx=self.lx, ly=self.ly, mass=fmt_float(self.mass))
        return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bondboson",
        description="Bond-boson spectra and exact verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_params(p, model_positional: bool):
        if model_positional:
            p.add_argument("model", choices=("ssh", "dirac2d"))
        else:
            p.add_argument("--model", choices=("ssh", "dirac2d"), required=True)
        p.add_argument("--sites", type=int, help="chain site count (even)")
        p.add_argument("--lx", type=int, help="square lattice extent along x")
        p.add_argument("--ly", type=int, help="square lattice extent along y")
        # None marks a flag not given: _config_from_args rejects flags of the
        # other model and fills in the RunConfig defaults
        p.add_argument("--t0", type=float, help="uniform hopping (chain, default 1.0)")
        p.add_argument("--alpha-u", type=float, dest="alpha_u",
                       help="alternating hopping modulation (chain, default 0.0)")
        p.add_argument("--mass", type=float,
                       help="on-site mass splitting of the 2D model (default 0.5)")
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        p.add_argument("--output", default="", help="output path (default stdout)")

    sp = sub.add_parser("spectrum", help="per-block eigenvalue table")
    add_model_params(sp, model_positional=True)

    vp = sub.add_parser("verify", help="run one verification suite")
    vp.add_argument("suite", choices=SUITES)
    add_model_params(vp, model_positional=False)
    vp.add_argument("--spinful", action="store_true",
                    help="use the spinful chain space (identities suite)")
    vp.add_argument("--holes", type=int,
                    help="highlighted hole count for the commutators suite (default 0)")
    return parser


# The model flags each model reads; the other model's flags are rejected.
MODEL_FLAGS = {"ssh": ("--sites", "--t0", "--alpha-u"), "dirac2d": ("--lx", "--ly", "--mass")}


def _check_block_bound(model: str, t0: float, alpha_u: float, mass: float) -> None:
    """Reject model parameters whose 4x4 block entries overflow, naming the flag.

    The entries are bounded by 2|t0| + 4|alpha_u| on the chain and by
    2|mass| in 2D.  Past that bound a table would hold inf and NaN, so the
    flag whose term is largest is named instead.
    """
    if model == "ssh":
        terms = {"--t0": 2.0 * abs(t0), "--alpha-u": 4.0 * abs(alpha_u)}
        bound = "2*|t0| + 4*|alpha_u|"
    else:
        terms = {"--mass": 2.0 * abs(mass)}
        bound = "2*|mass|"
    if not math.isfinite(sum(terms.values())):
        flag = max(terms, key=terms.get)
        raise ValueError(f"{flag} is too large: the block entry bound {bound} overflows")


def _config_from_args(args) -> RunConfig:
    """Check every flag the command reads and reject the ones it does not.

    Each error names its flag.  Value checks come before checks of sizes
    and suites, so a bad value is named even when a size is bad too.
    """
    command = args.command
    suite = getattr(args, "suite", "")
    model = args.model
    spinful = getattr(args, "spinful", False)
    given = {"--sites": args.sites, "--lx": args.lx, "--ly": args.ly,
             "--t0": args.t0, "--alpha-u": args.alpha_u, "--mass": args.mass}
    other = "dirac2d" if model == "ssh" else "ssh"
    for flag in MODEL_FLAGS[other]:
        if given[flag] is not None:
            raise ValueError(f"{flag} is not read by the {model} model")
    if command == "verify" and args.fmt != "json":
        raise ValueError(f"--format {args.fmt} is not available for verify: its reports are JSON")
    holes = getattr(args, "holes", None)
    if holes is not None and suite != "commutators":
        raise ValueError("--holes applies only to the commutators suite")
    holes = 0 if holes is None else holes
    t0 = RunConfig.t0 if args.t0 is None else args.t0
    alpha_u = RunConfig.alpha_u if args.alpha_u is None else args.alpha_u
    mass = RunConfig.mass if args.mass is None else args.mass
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCES[suite or "spectrum"]
    for flag, value in (("--t0", t0), ("--alpha-u", alpha_u), ("--mass", mass),
                        ("--tolerance", tolerance)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if tolerance <= 0:
        raise ValueError(f"--tolerance must be positive, got {tolerance}")
    if model == "ssh" and t0 <= 0:
        raise ValueError(f"--t0 must be positive for the chain model, got {t0}")
    if command == "spectrum" or suite == "correspondence":
        _check_block_bound(model, t0, alpha_u, mass)
    if suite == "interactions" and model != "ssh":
        raise ValueError("the interactions suite is defined on the chain model")
    if spinful and (suite, model) != ("identities", "ssh"):
        raise ValueError("--spinful applies only to the identities suite on the chain model")
    if model == "ssh":
        if args.sites is None:
            raise ValueError("--sites is required for the chain model")
        if args.sites <= 0 or args.sites % 2 != 0:
            raise ValueError(f"--sites must be a positive even integer, got {args.sites}")
    else:
        if args.lx is None or args.ly is None:
            raise ValueError("--lx and --ly are required for the 2D model")
        for flag, extent in (("--lx", args.lx), ("--ly", args.ly)):
            if extent < 1:
                raise ValueError(f"{flag} must be >= 1, got {extent}")
    if holes < 0:
        raise ValueError(f"--holes must be non-negative, got {holes}")
    # each hole empties the pair-carrying mode of one site
    n_sites = args.sites if model == "ssh" else args.lx * args.ly
    if holes > n_sites:
        raise ValueError(f"--holes must not exceed the {n_sites} sites, got {holes}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return RunConfig(
        command=command,
        model=model,
        suite=suite,
        sites=args.sites or 0,
        lx=args.lx or 0,
        ly=args.ly or 0,
        t0=t0,
        alpha_u=alpha_u,
        mass=mass,
        spinful=spinful,
        holes=holes,
        seed=args.seed,
        tolerance=tolerance,
        fmt=args.fmt,
        output=args.output,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

MOMENTUM_COLUMNS = {"ssh": ["q", "k"], "dirac2d": ["s", "p", "kx", "ky"]}


def _momentum_labels(rows) -> list:
    """``fmt_momentum`` of every value of ``rows``, each distinct value formatted once.

    A grid table repeats a few momenta in every row, and the rational
    search of ``fmt_momentum`` costs far more than a lookup.
    """
    labels = {value: fmt_momentum(value) for value in {v for row in rows for v in row}}
    return [[labels[value] for value in row] for row in rows]


def _value_rows(table):
    """Per block: the numeric, closed-form and pair lists and the discrepancy, as floats."""
    return zip(table.numeric.tolist(), table.closed_form.tolist(),
               table.fermion_pairs.tolist(), table.discrepancy.tolist())


def _table_payload(table, config: RunConfig) -> dict:
    # fermion_pair_at names the second band momentum entering the signed
    # pair sums (the first is q, resp. (s, p)); it lands on the half-step
    # site grid rather than the block grid.
    if table.model == "ssh":
        points = [(q, k, (k / 2.0 - q) % TWO_PI) for q, k in table.momenta.tolist()]
        as_momenta = lambda l: {"q": l[0], "k": l[1], "fermion_pair_at": l[2]}
    else:
        points = [(s, p, kx, ky, (kx - s) % TWO_PI, (ky - p) % TWO_PI)
                  for s, p, kx, ky in table.momenta.tolist()]
        as_momenta = lambda l: {"s": l[0], "p": l[1], "kx": l[2], "ky": l[3],
                                "fermion_pair_at": l[4:]}
    blocks = []
    for labels, (numeric, closed, pairs, spread) in zip(_momentum_labels(points),
                                                        _value_rows(table)):
        blocks.append(
            {
                "momenta": as_momenta(labels),
                "numeric": [fmt_float(v) for v in numeric],
                "closed_form": [fmt_float(v) for v in closed],
                "fermion_pairs": [fmt_float(v) for v in pairs],
                "max_discrepancy": fmt_float(spread),
            }
        )
    return {
        "config": config.echo(),
        "blocks": blocks,
        "max_discrepancy": fmt_float(table.max_discrepancy),
        "verdict": "pass" if table.passed else "fail",
    }


def _table_csv(table, config: RunConfig) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MOMENTUM_COLUMNS[table.model] + ["rank", "numeric", "closed_form",
                                                     "fermion_pair", "max_discrepancy"])
    for labels, (numeric, closed, pairs, spread) in zip(_momentum_labels(table.momenta.tolist()),
                                                        _value_rows(table)):
        spread = fmt_float(spread)
        for rank in range(4):
            writer.writerow(
                labels
                + [
                    rank,
                    fmt_float(numeric[rank]),
                    fmt_float(closed[rank]),
                    fmt_float(pairs[rank]),
                    spread,
                ]
            )
    return buf.getvalue()


def _emit(text: str, output: str) -> int:
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _emit_json(payload: dict, output: str) -> int:
    return _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig) -> int:
    spec = config.chain_spec() if config.model == "ssh" else config.square_spec()
    table = correspondence_report(spec, tolerance=config.tolerance)
    if config.fmt == "csv":
        code = _emit(_table_csv(table, config), config.output)
    else:
        code = _emit_json(_table_payload(table, config), config.output)
    if code != EXIT_OK:
        return code
    return EXIT_OK if table.passed else 1


def _suite_correspondence(config: RunConfig) -> dict:
    spec = config.chain_spec() if config.model == "ssh" else config.square_spec()
    table = correspondence_report(spec, tolerance=config.tolerance)
    payload = _table_payload(table, config)
    payload["suite"] = "correspondence"
    return payload


def _suite_identities(config: RunConfig) -> dict:
    spec = config.chain_spec() if config.model == "ssh" else config.square_spec()
    residuals = h_bond_commutator_residuals(spec)
    checks = []
    for r in residuals:
        l_label = list(r.l) if isinstance(r.l, tuple) else r.l
        if isinstance(r.k, tuple):
            k_label = [fmt_momentum(v) for v in r.k]
        else:
            k_label = fmt_momentum(r.k)
        checks.append(
            {
                "channel": r.channel,
                "sublattice": r.sublattice,
                "l": l_label,
                "k": k_label,
                "residual": fmt_float(r.residual),
                "pass": bool(r.residual <= config.tolerance),
            }
        )
    return {
        "config": config.echo(),
        "suite": "identities",
        "checks": checks,
        "max_residual": fmt_float(max_residual(r.residual for r in residuals)),
        "verdict": _verdict(checks),
    }


def _suite_commutators(config: RunConfig) -> dict:
    """Near-filling commutator law plus the deviation-vs-holes table."""
    if config.model == "ssh":
        spec = config.chain_spec()
        momenta = chain_momenta(spec.n_sites)
        pairs = [ChainPair(l, K) for l in range(1, spec.n_cells + 1)
                 for K in range(spec.n_sites)]
        as_label = lambda pair: {"l": pair.l, "k": fmt_momentum(momenta[pair.K])}
    else:
        spec = config.square_spec()
        momenta = square_momenta(spec.lx, spec.ly)
        # one offset per {d, -d} class: the reversed offset recreates the
        # same pairs and is not an independent bond
        lengths = square_bond_offsets(spec.lx, spec.ly)
        if not lengths:
            raise ValueError("--lx and --ly: a 1x1 lattice has no bonds to commute")
        pairs = [SquarePair(l, m, Kx, Ky) for l, m in lengths
                 for Kx, Ky in np.ndindex(spec.lx, spec.ly)]
        as_label = lambda pair: {
            "l": [pair.l, pair.m],
            "k": [fmt_momentum(v) for v in momenta[pair.Kx * spec.ly + pair.Ky]],
        }
    site_count = spec.n_sites

    # grid labels are distinct, so two labels match exactly on the diagonal
    table, _ = pair_commutator_table(spec, pairs, n_holes=0, seed=config.seed)
    matched = np.diagonal(table)
    unmatched_mag = max_residual(np.abs(table[~np.eye(len(pairs), dtype=bool)]))
    self_paired = np.array([bond_self_paired(spec, pair) for pair in pairs])
    matched_dev = max_residual(np.abs(matched[~self_paired] - float(site_count)))
    self_paired_cells = []
    for pair, wraps, expectation in zip(pairs, self_paired, matched):
        if wraps:
            cell = as_label(pair)
            cell["expectation"] = fmt_float(expectation.real)
            self_paired_cells.append(cell)

    holes_table = []
    # up to three holes, each on its own pair-carrying mode (one per site);
    # the rows are the bonds at the first grid momentum, read off the
    # diagonal of one table per hole count
    row_pairs = pairs[::len(momenta)]
    for holes in range(0, min(4, site_count + 1)):
        table, hole_modes = pair_commutator_table(spec, row_pairs, n_holes=holes,
                                                  seed=config.seed)
        for pair, expectation in zip(row_pairs, map(complex, np.diagonal(table))):
            entry = as_label(pair)
            entry.update(
                holes=holes,
                hole_modes=list(hole_modes),
                expectation=fmt_float(expectation.real),
                deviation=fmt_float(abs(expectation - float(site_count))),
                self_paired=bond_self_paired(spec, pair),
            )
            holes_table.append(entry)

    # highlight a bond that is not self-paired whenever one exists
    highlight = next((pair for pair, wraps in zip(pairs, self_paired) if not wraps), pairs[0])
    highlighted = boson_commutator_report(spec, highlight, highlight,
                                          n_holes=config.holes, seed=config.seed)
    checks = [
        {
            "name": "filled_matched_law",
            "residual": fmt_float(matched_dev),
            "pass": bool(matched_dev <= config.tolerance),
        },
        {
            "name": "filled_unmatched_law",
            "residual": fmt_float(unmatched_mag),
            "pass": bool(unmatched_mag <= config.tolerance),
        },
    ]
    return {
        "config": config.echo(),
        "suite": "commutators",
        "site_count": site_count,
        "checks": checks,
        "highlighted": {
            "holes": config.holes,
            "expectation": fmt_float(highlighted.expectation.real),
            "normalized_per_site": fmt_float(highlighted.expectation.real / site_count),
            "normalized_per_cell": fmt_float(
                highlighted.expectation.real / max(site_count // 2, 1)
            ),
            "deviation": fmt_float(highlighted.deviation),
        },
        "self_paired_cells": self_paired_cells,
        "deviation_vs_holes": holes_table,
        "verdict": _verdict(checks),
    }


def _suite_interactions(config: RunConfig) -> dict:
    spec = config.chain_spec()
    space = FockSpace.chain(spec.n_sites)
    alpha = random_offdiag_coupling(spec.n_sites, seed=config.seed)
    density_form = coulomb_operator(space, alpha)
    pair_form = coulomb_pair_form(space, alpha)
    form_distance = (density_form - pair_form).norm()

    reconstruction_max = pair_reconstruction_max(spec.n_sites)

    assembled_residual = interaction_equivalence_residual(space, alpha)
    scale = pair_form.norm()
    checks = [
        {
            "name": "density_vs_pair_form",
            "residual": fmt_float(form_distance),
            "tolerance": fmt_float(config.tolerance),
            "pass": bool(form_distance <= config.tolerance),
        },
        {
            "name": "pair_reconstruction_max",
            "residual": fmt_float(reconstruction_max),
            "tolerance": fmt_float(1e-13),
            "pass": bool(reconstruction_max <= 1e-13),
        },
        {
            "name": "bond_assembled_interaction",
            "residual": fmt_float(assembled_residual),
            "tolerance": fmt_float(config.tolerance * max(scale, 1.0)),
            "pass": bool(assembled_residual <= config.tolerance * max(scale, 1.0)),
        },
    ]
    return {
        "config": config.echo(),
        "suite": "interactions",
        "interaction_norm": fmt_float(scale),
        "checks": checks,
        "verdict": _verdict(checks),
    }


def _verdict(checks) -> str:
    """The verdict of a report: pass exactly when every check passes (NaN never does)."""
    return "pass" if all(c["pass"] for c in checks) else "fail"


def cmd_verify(config: RunConfig) -> int:
    if config.suite == "correspondence":
        payload = _suite_correspondence(config)
    elif config.suite == "identities":
        payload = _suite_identities(config)
    elif config.suite == "commutators":
        payload = _suite_commutators(config)
    else:
        payload = _suite_interactions(config)
    code = _emit_json(payload, config.output)
    if code != EXIT_OK:
        return code
    return EXIT_OK if payload["verdict"] == "pass" else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _config_from_args(args)
        if config.command == "spectrum":
            return cmd_spectrum(config)
        return cmd_verify(config)
    except FockSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
