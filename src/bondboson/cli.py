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

from .blocks import correspondence_report
from .fock import (
    FockSizeError,
    FockSpace,
    bond_self_paired,
    boson_commutator_report,
    h_bond_commutator_residuals,
    near_filling_commutator_table,
    square_bond_offsets,
)
from .interactions import (
    coulomb_operator,
    coulomb_pair_form,
    interaction_equivalence_residual,
    pair_from_bonds,
    random_offdiag_coupling,
    creation_pair_direct,
)
from .lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
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
        p.add_argument("--t0", type=float, default=1.0, help="uniform hopping (chain)")
        p.add_argument("--alpha-u", type=float, default=0.0, dest="alpha_u",
                       help="alternating hopping modulation (chain)")
        p.add_argument("--mass", type=float, default=0.5,
                       help="on-site mass splitting of the 2D model")
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
    vp.add_argument("--holes", type=int, default=0,
                    help="highlighted hole count for the commutators suite")
    return parser


def _config_from_args(args) -> RunConfig:
    """Check every flag the command reads; each error names its flag."""
    command = args.command
    suite = getattr(args, "suite", "")
    model = args.model
    spinful = getattr(args, "spinful", False)
    holes = getattr(args, "holes", 0)
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCES[suite or "spectrum"]
    for flag, value in (("--t0", args.t0), ("--alpha-u", args.alpha_u), ("--mass", args.mass),
                        ("--tolerance", tolerance)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if tolerance <= 0:
        raise ValueError(f"--tolerance must be positive, got {tolerance}")
    if suite == "interactions" and model != "ssh":
        raise ValueError("the interactions suite is defined on the chain model")
    if spinful and (suite, model) != ("identities", "ssh"):
        raise ValueError("--spinful applies only to the identities suite on the chain model")
    if model == "ssh":
        if args.sites is None:
            raise ValueError("--sites is required for the chain model")
        if args.sites <= 0 or args.sites % 2 != 0:
            raise ValueError(f"--sites must be a positive even integer, got {args.sites}")
        if args.t0 <= 0:
            raise ValueError(f"--t0 must be positive for the chain model, got {args.t0}")
    else:
        if args.lx is None or args.ly is None:
            raise ValueError("--lx and --ly are required for the 2D model")
        for flag, extent in (("--lx", args.lx), ("--ly", args.ly)):
            if extent < 1:
                raise ValueError(f"{flag} must be >= 1, got {extent}")
    if holes < 0:
        raise ValueError(f"--holes must be non-negative, got {holes}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return RunConfig(
        command=command,
        model=model,
        suite=suite,
        sites=args.sites or 0,
        lx=args.lx or 0,
        ly=args.ly or 0,
        t0=args.t0,
        alpha_u=args.alpha_u,
        mass=args.mass,
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

def _momenta_dict(model: str, momenta) -> dict:
    # fermion_pair_at names the second band momentum entering the signed
    # pair sums (the first is q, resp. (s, p)); it lands on the half-step
    # site grid rather than the block grid.
    two_pi = 2.0 * np.pi
    if model == "ssh":
        q, k = momenta
        return {
            "q": fmt_momentum(q),
            "k": fmt_momentum(k),
            "fermion_pair_at": fmt_momentum((k / 2.0 - q) % two_pi),
        }
    s, p, kx, ky = momenta
    return {
        "s": fmt_momentum(s),
        "p": fmt_momentum(p),
        "kx": fmt_momentum(kx),
        "ky": fmt_momentum(ky),
        "fermion_pair_at": [
            fmt_momentum((kx - s) % two_pi),
            fmt_momentum((ky - p) % two_pi),
        ],
    }


def _table_payload(table, config: RunConfig) -> dict:
    blocks = []
    for row in table.rows:
        blocks.append(
            {
                "momenta": _momenta_dict(table.model, row.momenta),
                "numeric": [fmt_float(v) for v in row.numeric],
                "closed_form": [fmt_float(v) for v in row.closed_form],
                "fermion_pairs": [fmt_float(v) for v in row.fermion_pairs],
                "max_discrepancy": fmt_float(row.max_discrepancy),
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
    if table.model == "ssh":
        momentum_cols = ["q", "k"]
    else:
        momentum_cols = ["s", "p", "kx", "ky"]
    writer.writerow(momentum_cols + ["rank", "numeric", "closed_form",
                                     "fermion_pair", "max_discrepancy"])
    for row in table.rows:
        labels = [fmt_momentum(m) for m in row.momenta]
        for rank in range(4):
            writer.writerow(
                labels
                + [
                    rank,
                    fmt_float(row.numeric[rank]),
                    fmt_float(row.closed_form[rank]),
                    fmt_float(row.fermion_pairs[rank]),
                    fmt_float(row.max_discrepancy),
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
        space = FockSpace.chain(spec.n_sites)
        site_count = spec.n_sites
        momenta = list(chain_momenta(spec.n_sites))
        lengths = list(range(1, spec.n_cells + 1))
        pairs = [(l, k) for l in lengths for k in momenta]
        as_label = lambda l, k: {"l": l, "k": fmt_momentum(k)}
    else:
        spec = config.square_spec()
        space = FockSpace.square(spec.lx, spec.ly)
        site_count = spec.lx * spec.ly
        momenta = [tuple(v) for v in square_momenta(spec.lx, spec.ly)]
        # one offset per {d, -d} class: the reversed offset recreates the
        # same pairs and is not an independent bond
        lengths = square_bond_offsets(spec.lx, spec.ly)
        if not lengths:
            raise ValueError("--lx and --ly: a 1x1 lattice has no bonds to commute")
        pairs = [(l, k) for l in lengths for k in momenta]
        as_label = lambda l, k: {
            "l": list(l),
            "k": [fmt_momentum(v) for v in k],
        }

    # grid labels are distinct, so (l, k) = (l', k') exactly on the diagonal
    table, _ = near_filling_commutator_table(space, pairs, n_holes=0, seed=config.seed)
    matched_devs = []
    unmatched_mags = []
    self_paired_cells = []
    for i, (l, k) in enumerate(pairs):
        for j in range(len(pairs)):
            expectation = complex(table[i, j])
            if i != j:
                unmatched_mags.append(abs(expectation))
            elif bond_self_paired(space, l):
                cell = as_label(l, k)
                cell["expectation"] = fmt_float(expectation.real)
                self_paired_cells.append(cell)
            else:
                matched_devs.append(abs(expectation - float(site_count)))
    matched_dev = max_residual(matched_devs)
    unmatched_mag = max_residual(unmatched_mags)

    holes_table = []
    # up to three holes, each on its own pair-carrying mode (one per site)
    for holes in range(0, min(4, site_count + 1)):
        for l, k in pairs:
            if k != momenta[0]:
                continue
            rep = boson_commutator_report(space, l, l, k, k, n_holes=holes, seed=config.seed)
            entry = as_label(l, k)
            entry.update(
                holes=holes,
                hole_modes=list(rep.holes),
                expectation=fmt_float(rep.expectation.real),
                deviation=fmt_float(rep.deviation),
                self_paired=rep.self_paired,
            )
            holes_table.append(entry)

    # highlight a bond that is not self-paired whenever one exists
    highlight = next(((l, k) for l, k in pairs if not bond_self_paired(space, l)), pairs[0])
    highlighted = boson_commutator_report(
        space, highlight[0], highlight[0], highlight[1], highlight[1],
        n_holes=config.holes, seed=config.seed,
    )
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

    reconstruction_max = max_residual(
        (creation_pair_direct(space, p, l) - pair_from_bonds(space, p, l)).norm()
        for p in range(spec.n_sites)
        for l in range(1, spec.n_sites)
    )

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
