"""Command-line driver: model sweeps, verification suites, reports.

Two commands:

* ``spectrum {ssh,dirac2d} ...`` writes the per-block eigenvalue table
  (numeric, closed-form, and fermion-pair columns) as JSON or CSV.
* ``verify {commutators,correspondence,interactions,identities} ...``
  runs one verification suite and writes a JSON report with per-check
  residuals and a pass/fail verdict.

Reports are deterministic: canonical key order, floats rendered in
scientific notation with an explicit sign and 15 significant digits,
momenta (integer indices j on an n-point grid) as 2j/n reduced times pi
("2/3 pi") while its denominator is at most 720, else as the float
2*pi*j/n.  A verdict is "pass" only if every one of its checks passes; a
NaN residual fails.  Exit codes: 0 pass, 1 I/O failure or failed verdict,
2 usage error, 3 resource limit (a Fock space past 16 modes, or a table
too large for memory).

The flags are checked once, each error naming its flag, and the lattice
and its model parameters become one :class:`~bondboson.lattice.ChainSpec`
or :class:`~bondboson.lattice.SquareSpec`, ``RunConfig.spec``: the
suites, the table and the report's config echo all read it.

Spectrum tables (``spectrum`` and ``verify correspondence``) are streamed
``CHUNK_ROWS`` blocks at a time, each chunk one string join of a per-block
template's literal pieces and field labels, laid out as ``json.dumps(indent=2,
sort_keys=True)`` or ``csv.writer`` would.  Each distinct float is printed once,
in numpy with ``fmt_float``'s bytes, by ``fmt_float`` only where that is not proved.
``spectrum dirac2d --lx 16 --ly 16`` takes about 1.0 s and 125 MB (README.md).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bilinear import (
    ChainPair,
    FockSizeError,
    SquarePair,
    bond_self_paired,
    boson_commutator_report,
    h_bond_commutator_residuals,
    pair_commutator_table,
    square_bond_offsets,
)
from .blocks import correspondence_report
# bound for the benchmark tracer, which wraps these names where cli looks them up;
# no command calls them (momenta are integer indices)
from .lattice import chain_momenta, square_momenta  # noqa: F401
from .lattice import TWO_PI, ChainSpec, SquareSpec
from .numerics import max_residual

# The Fock route and scipy under it are imported on first use: only `verify
# interactions` runs them, and their import is most of the package's start-up.
# A name is bound into the module's globals by its first lookup from outside
# (`__getattr__`, PEP 562) or by `_bind_fock_route` when the suite starts, so a
# wrapper the benchmark tracer installs in its place is the one the suite calls.
# `creation_pair_direct` and `pair_from_bonds` are bound for the tracer alone:
# the pair reconstruction is measured on coefficients.
_FOCK_ROUTE = {
    "FockSpace": "fock",
    "coulomb_operator": "interactions",
    "coulomb_pair_form": "interactions",
    "creation_pair_direct": "interactions",
    "interaction_equivalence_residual": "interactions",
    "pair_from_bonds": "interactions",
    "pair_reconstruction_max": "interactions",
    "random_offdiag_coupling": "interactions",
}


def __getattr__(name: str):
    """Import a Fock-route name's module on the name's first lookup and bind the name."""
    module = _FOCK_ROUTE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _bind_fock_route() -> None:
    """Bind every Fock-route name not yet in the module's globals."""
    for name in _FOCK_ROUTE.keys() - globals().keys():
        __getattr__(name)

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


def fmt_momentum(j: int, n: int) -> str:
    """The momentum 2*pi*j/n of the n-point grid: "0", "1 pi" or "2/3 pi" while the
    reduced denominator of 2j/n is at most 720, else ``fmt_float`` of 2*pi*j/n (bit
    for bit the ``chain_momenta(n)`` entry)."""
    frac = Fraction(2 * int(j), int(n))
    if frac.denominator > 720:
        return fmt_float(TWO_PI * int(j) / int(n))
    return f"{frac} pi" if frac else "0"


# The --model name of each lattice, and the mass of the 2D model when --mass is not given.
MODEL_NAMES = {ChainSpec: "ssh", SquareSpec: "dirac2d"}
DEFAULT_MASS = 0.5


@dataclass
class RunConfig:
    """Validated flag bundle for one CLI invocation; ``spec`` holds the lattice flags."""

    command: str
    spec: ChainSpec | SquareSpec
    suite: str = ""
    holes: int = 0
    seed: int = 0
    tolerance: float = 0.0
    fmt: str = "json"
    output: str = ""

    def echo(self) -> dict:
        spec = self.spec
        out = {
            "command": self.command,
            "model": MODEL_NAMES[type(spec)],
            "seed": self.seed,
            "tolerance": fmt_float(self.tolerance),
            "format": self.fmt,
        }
        if self.suite:
            out["suite"] = self.suite
        if isinstance(spec, ChainSpec):
            out.update(
                sites=spec.n_sites,
                t0=fmt_float(spec.t0),
                alpha_u=fmt_float(spec.alpha_u),
                spinful=spec.spinful,
            )
        else:
            out.update(lx=spec.lx, ly=spec.ly, mass=fmt_float(spec.delta))
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
        # other model and fills in the spec defaults
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

    The entries are bounded by 2|t0| + 4|alpha_u| on the chain (a bound on
    every hopping entry too) and by 2|mass| in 2D (the mass weight of the
    H-bond identities too).  Past that bound a table or an identity would
    hold inf and NaN, so the flag whose term is largest is named instead.
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
    t0 = ChainSpec.t0 if args.t0 is None else args.t0
    alpha_u = ChainSpec.alpha_u if args.alpha_u is None else args.alpha_u
    mass = DEFAULT_MASS if args.mass is None else args.mass
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
    if command == "spectrum" or suite in ("correspondence", "identities"):
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
        spec = ChainSpec(args.sites, t0=t0, alpha_u=alpha_u, spinful=spinful)
    else:
        if args.lx is None or args.ly is None:
            raise ValueError("--lx and --ly are required for the 2D model")
        for flag, extent in (("--lx", args.lx), ("--ly", args.ly)):
            if extent < 1:
                raise ValueError(f"{flag} must be >= 1, got {extent}")
        spec = SquareSpec(args.lx, args.ly, delta=mass)
    if holes < 0:
        raise ValueError(f"--holes must be non-negative, got {holes}")
    # each hole empties the pair-carrying mode of one site
    if holes > spec.n_sites:
        raise ValueError(f"--holes must not exceed the {spec.n_sites} sites, got {holes}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return RunConfig(command=command, spec=spec, suite=suite, holes=holes, seed=args.seed,
                     tolerance=tolerance, fmt=args.fmt, output=args.output)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

MOMENTUM_COLUMNS = {ChainSpec: ["q", "k"], SquareSpec: ["s", "p", "kx", "ky"]}
# Table rows (momentum blocks) filled and written per chunk.
CHUNK_ROWS = 1024
KERNEL_BLOCK = 4096  # distinct floats per kernel pass, bounding its scratch arrays


@functools.cache
def _pow10_rows() -> np.ndarray:
    """Rows (hi, lo): 10^(14 - e), e = -90..90, as double-doubles by correctly rounded int
    true division (hi the nearest float, lo the nearest to the rest), on first use."""
    rows = []
    for k in range(104, -77, -1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        n, d = (num / den).as_integer_ratio()
        rows.append((num / den, (num * d - n * den) / (den * d)))
    return np.array(rows).T


_THREE_DIGITS = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)


def _format_floats(x) -> np.ndarray:
    """``fmt_float`` of each entry of ``x`` as an object array, printed in numpy: |x| in
    [1e-90, 1e91) times the double-double 10^(14 - e), e = floor(log10|x|), made exact to
    1e-15 by Dekker's split, rounded to 15 digits and printed by 3-digit lookups.  Values
    this does not prove (remainder within 1e-6 of a half, digits off [1e14, 1e15) as log10
    was one off), zeros, subnormals, infs and NaNs are printed by ``fmt_float``."""
    fast = (np.abs(x) >= 1e-90) & (np.abs(x) < 1e91)
    a = np.where(fast, np.abs(x), 1.0)
    e = np.clip(np.floor(np.log10(a)), -90, 90).astype(np.int64)
    hi, lo = _pow10_rows().take(e + 90, axis=1)
    # Dekker's split of a and hi into halves of at most 26 significant bits each
    pair = np.stack([a, hi])
    scaled = 134217729.0 * pair
    (a1, h1), (a2, h2) = (high := scaled - (scaled - pair)), pair - high
    p = a * hi
    n = np.floor(p)
    # the remainder: p - n exactly, plus the rounding error of p, plus a * lo
    r = (p - n) + (((((a1 * h1 - p) + a1 * h2) + a2 * h1) + a2 * h2) + a * lo)
    n, r = n + np.floor(r), r - np.floor(r)
    fast &= (np.abs(r - 0.5) >= 1e-6) & (n >= 1e14) & (n < 1e15)
    n += r > 0.5
    carry = n == 1e15
    n[carry], e[carry] = 1e14, e[carry] + 1
    groups = n.astype(np.int64)[:, None] // [10 ** 12, 10 ** 9, 10 ** 6, 1000, 1] % 1000
    digits = _THREE_DIGITS.take(groups, axis=0).reshape(-1, 15)
    text = np.empty((len(a), 22), dtype=np.uint8)
    text[:, 0] = np.where(x < 0, ord("-"), ord("+"))
    text[:, 1], text[:, 2], text[:, 3:17] = digits[:, 0], ord("."), digits[:, 1:]
    text[:, 17], text[:, 18] = ord("e"), np.where(e < 0, ord("-"), ord("+"))
    text[:, 19:21], text[:, 21] = _THREE_DIGITS.take(np.abs(e), axis=0)[:, 1:], ord("\n")
    labels = np.array(text.tobytes().decode("ascii").split(), dtype=object)
    labels[~fast] = [fmt_float(v) for v in x[~fast].tolist()]
    return labels


def _format_distinct(values) -> np.ndarray:
    """``fmt_float`` of every entry of ``values`` as an object array, formatted once per
    distinct 64-bit pattern: not per value, as +0.0 == -0.0 format apart and a NaN
    equals nothing.  The kernel takes ``KERNEL_BLOCK`` distinct floats at a time."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    labels = np.concatenate([_format_floats(distinct[start:start + KERNEL_BLOCK].view(np.float64))
                             for start in range(0, len(distinct), KERNEL_BLOCK)])
    return labels[inverse.reshape(values.shape)]


def _table_points(table):
    """The table's momentum index columns, then fermion_pair_at's, and each one's grid size.
    fermion_pair_at is the second band momentum of the signed pair sums (the first is q,
    resp. (s, p)): k/2 - q on the chain's half-step site grid, (kx - s, ky - p) in 2D."""
    m, spec = table.momenta, table.spec
    if isinstance(spec, ChainSpec):
        return (np.column_stack([m, (m[:, 1] - 2 * m[:, 0]) % spec.n_sites]),
                [spec.n_cells, spec.n_cells, spec.n_sites])
    return np.hstack([m, (m[:, 2:] - m[:, :2]) % (spec.lx, spec.ly)]), [spec.lx, spec.ly] * 3


def _table_fields(table, points, grids) -> np.ndarray:
    """(N, F) strings: ``fmt_momentum`` of each ``points`` column on its grid of
    ``grids``, each grid point formatted once, then ``fmt_float`` of the numeric,
    closed-form and pair spectra (4 columns each) and the discrepancy."""
    labels = {n: np.array([fmt_momentum(j, n) for j in range(n)], dtype=object)
              for n in set(grids)}
    values = np.column_stack([table.numeric, table.closed_form, table.fermion_pairs,
                              table.discrepancy])
    return np.hstack([np.column_stack([labels[n][points[:, c]] for c, n in enumerate(grids)]),
                      _format_distinct(values)])


def _fill(rows, template: str, sep: str):
    """``template`` filled with each row and joined by ``sep``: one join per ``CHUNK_ROWS``
    rows of a grid interleaving the template's literal pieces and the row's fields."""
    literals = template.split("%s")
    grid = np.empty((min(len(rows), CHUNK_ROWS), 2 * len(literals) - 1), dtype=object)
    grid[:, 0], grid[:, 2::2] = sep + literals[0], literals[1:]
    for start in range(0, len(rows), CHUNK_ROWS):
        chunk = rows[start:start + CHUNK_ROWS]
        grid[0, 0] = sep + literals[0] if start else literals[0]
        grid[:len(chunk), 1::2] = chunk
        yield "".join(grid[:len(chunk)].ravel().tolist())


def _table_json(table, config: RunConfig):
    """The table report as text pieces, laid out by ``json.dumps(indent=2, sort_keys=True)``
    itself around one block whose leaves, the field columns, become ``"%s"`` fields
    (no label needs JSON escaping)."""
    points, grids = _table_points(table)
    if isinstance(table.spec, ChainSpec):
        momenta = {"q": 0, "k": 1, "fermion_pair_at": 2}
    else:
        momenta = {"s": 0, "p": 1, "kx": 2, "ky": 3, "fermion_pair_at": [4, 5]}
    v = points.shape[1]
    block = {"momenta": momenta, "numeric": [v, v + 1, v + 2, v + 3],
             "closed_form": [v + 4, v + 5, v + 6, v + 7],
             "fermion_pairs": [v + 8, v + 9, v + 10, v + 11], "max_discrepancy": v + 12}
    # the column tokens are the only digits of the block's text
    tokens = json.dumps(block, indent=2, sort_keys=True).replace("\n", "\n    ")
    order = [int(c) for c in re.findall(r"\d+", tokens)]
    template = re.sub(r"\d+", '"%s"', tokens)
    report = {"blocks": ["<blocks>"], "config": config.echo(),
              "max_discrepancy": fmt_float(table.max_discrepancy),
              "verdict": "pass" if table.passed else "fail"}
    if config.suite:
        report["suite"] = config.suite
    head, tail = (json.dumps(report, indent=2, sort_keys=True) + "\n").split('"<blocks>"')
    yield head
    yield from _fill(_table_fields(table, points, grids)[:, order], template, ",\n    ")
    yield tail


def _table_csv(table):
    """The table as CSV text pieces, one row per rank, laid out as
    ``csv.writer(lineterminator="\\n")``: no field needs quoting."""
    columns = MOMENTUM_COLUMNS[type(table.spec)]
    n = len(columns)
    points, grids = _table_points(table)
    # per rank: the momenta, the rank, the three spectra at it and the discrepancy
    order = [c for r in range(4) for c in (*range(n), n + r, n + 4 + r, n + 8 + r, n + 12)]
    template = "".join(",".join(["%s"] * n + [str(r)] + ["%s"] * 4) + "\n" for r in range(4))
    yield ",".join(columns + ["rank", "numeric", "closed_form", "fermion_pair",
                              "max_discrepancy"]) + "\n"
    yield from _fill(_table_fields(table, points[:, :n], grids[:n])[:, order], template, "")


def _emit(pieces, output: str) -> int:
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig) -> int:
    """The table of ``spectrum``, also the report of ``verify correspondence``."""
    table = correspondence_report(config.spec, tolerance=config.tolerance)
    pieces = _table_csv(table) if config.fmt == "csv" else _table_json(table, config)
    code = _emit(pieces, config.output)
    if code != EXIT_OK:
        return code
    return EXIT_OK if table.passed else 1


def _k_label(spec, k):
    """The report label of a momentum index: K on the chain's site grid, (Kx, Ky) in 2D."""
    if isinstance(spec, ChainSpec):
        return fmt_momentum(k, spec.n_sites)
    return [fmt_momentum(k[0], spec.lx), fmt_momentum(k[1], spec.ly)]


def _suite_identities(config: RunConfig) -> dict:
    spec = config.spec
    identities, residuals = h_bond_commutator_residuals(spec)
    checks = [{"channel": channel, "sublattice": sublattice, "l": l, "k": _k_label(spec, k),
               "residual": fmt_float(residual), "pass": residual <= config.tolerance}
              for channel, sublattice, l, k, residual in zip(
                  identities.channel.tolist(), identities.sublattice.tolist(),
                  identities.l.tolist(), identities.k.tolist(), residuals.tolist())]
    return {
        "config": config.echo(),
        "suite": "identities",
        "checks": checks,
        "max_residual": fmt_float(max_residual(residuals)),
        "verdict": _verdict(checks),
    }


def _suite_commutators(config: RunConfig) -> dict:
    """Near-filling commutator law plus the deviation-vs-holes table."""
    spec = config.spec
    if isinstance(spec, ChainSpec):
        pairs = [ChainPair(l, K) for l in range(1, spec.n_cells + 1)
                 for K in range(spec.n_sites)]
        as_label = lambda pair: {"l": pair.l, "k": _k_label(spec, pair.K)}
    else:
        # one offset per {d, -d} class: the reversed offset recreates the
        # same pairs and is not an independent bond
        lengths = square_bond_offsets(spec.lx, spec.ly)
        if not lengths:
            raise ValueError("--lx and --ly: a 1x1 lattice has no bonds to commute")
        pairs = [SquarePair(l, m, Kx, Ky) for l, m in lengths
                 for Kx, Ky in np.ndindex(spec.lx, spec.ly)]
        as_label = lambda pair: {"l": [pair.l, pair.m], "k": _k_label(spec, (pair.Kx, pair.Ky))}
    site_count = spec.n_sites

    # grid labels are distinct, so two labels match exactly on the diagonal
    table, _ = pair_commutator_table(spec, pairs, n_holes=0, seed=config.seed)
    matched = np.diagonal(table)
    unmatched_mag = max_residual(np.abs(table[~np.eye(len(pairs), dtype=bool)]))
    self_paired = bond_self_paired(spec, pairs)
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
    # diagonal of one table per hole count (one pair per bond and grid point)
    row_pairs = pairs[::site_count]
    for holes in range(0, min(4, site_count + 1)):
        table, hole_modes = pair_commutator_table(spec, row_pairs, n_holes=holes,
                                                  seed=config.seed)
        for pair, wraps, expectation in zip(row_pairs, self_paired[::site_count].tolist(),
                                            map(complex, np.diagonal(table))):
            entry = as_label(pair)
            entry.update(
                holes=holes,
                hole_modes=list(hole_modes),
                expectation=fmt_float(expectation.real),
                deviation=fmt_float(abs(expectation - float(site_count))),
                self_paired=wraps,
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
    _bind_fock_route()
    spec = config.spec
    space = FockSpace(spec)
    alpha = random_offdiag_coupling(spec.n_sites, seed=config.seed)
    density_form = coulomb_operator(space, alpha)
    pair_form = coulomb_pair_form(space, alpha)
    form_distance = (density_form - pair_form).norm()

    reconstruction_max = pair_reconstruction_max(spec.n_sites)

    assembled_residual = interaction_equivalence_residual(space, alpha, pair_form)
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
        return cmd_spectrum(config)
    if config.suite == "identities":
        payload = _suite_identities(config)
    elif config.suite == "commutators":
        payload = _suite_commutators(config)
    else:
        payload = _suite_interactions(config)
    code = _emit([json.dumps(payload, indent=2, sort_keys=True) + "\n"], config.output)
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
    except MemoryError:
        flags = "--sites" if args.model == "ssh" else "--lx/--ly"
        print(f"error: the {args.model} report does not fit in memory; lower {flags}",
              file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
