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
2*pi*j/n.  The library returns measurements and this module judges them, by one
rule, ``_passes``: a residual passes when it is at most its bound (a NaN never
passes), entry by entry for the identity checks.  Each other suite's checks are built by
``_check``, and a spectrum table passes when its ``max_discrepancy`` does.
``_report`` wraps every JSON report once, with the config echo, the suite when
one ran and the verdict, "pass" only if every check passes.  Exit
codes: 0 pass, 1 I/O failure or failed verdict, 2 usage error, 3 resource
limit (a Fock space past 16 modes, or a table too large for memory).

The flags are checked once, each error naming its flag, and the lattice
and its model parameters become one :class:`~bondboson.lattice.ChainSpec`
or :class:`~bondboson.lattice.SquareSpec`, ``RunConfig.spec``: the
suites, the table and the report's config echo all read it.  The parser is
built once per process (``build_parser`` is cached); ``main`` may be called
repeatedly and keeps no other state between calls.

Row tables (``spectrum``, ``verify correspondence`` and the checks of ``verify identities``)
are written as bytes, ``CHUNK_ROWS`` rows at a time: each chunk is one uint8 grid of a per-row
template's literal bytes, laid out as ``json.dumps(indent=2, sort_keys=True)`` or ``csv.writer``
would, and labels taken by index, each label (a distinct float, a grid momentum) made once.
The table is computed in the same ``CHUNK_ROWS`` blocks (``blocks.CHUNK_ROWS``), so
``spectrum dirac2d --lx 16 --ly 16`` takes under a second and peaks at 65 MB (README.md).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .bilinear import (
    ChainPair,
    FockSizeError,
    SquarePair,
    bond_self_paired,
    boson_commutator_report,
    check_mode_cap,
    filling_weights,
    h_bond_commutator_residuals,
    pair_carrying_modes,
    pair_pattern,
    pattern_diagonal,
    pattern_table,
    square_bond_offsets,
)
from .blocks import CHUNK_ROWS, correspondence_report
from .interactions import (
    density_tensor,
    interaction_equivalence_residual,
    pair_form_stacks,
    pair_reconstruction_max,
    pair_tensor,
    pair_tensor_norm,
    random_offdiag_coupling,
)
# bound for the benchmark tracer, which wraps these names where cli looks them up;
# no command calls them (momenta are integer indices, and no suite builds a Fock space)
from .interactions import (  # noqa: F401
    coulomb_operator, coulomb_pair_form, creation_pair_direct, pair_from_bonds)
from .lattice import chain_momenta, square_momenta  # noqa: F401
from .lattice import TWO_PI, ChainSpec, SquareSpec
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


def fmt_momentum(j: int, n: int) -> str:
    """The momentum 2*pi*j/n of the n-point grid: "0", "1 pi" or "2/3 pi" while the
    reduced denominator of 2j/n is at most 720, else ``fmt_float`` of 2*pi*j/n (bit
    for bit the ``chain_momenta(n)`` entry)."""
    g = math.gcd(2 * j, n)
    num, den = 2 * j // g, n // g
    if den > 720:
        return fmt_float(TWO_PI * j / n)
    return f"{num}/{den} pi" if den > 1 else f"{num} pi" if num else "0"


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
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


def _check_block_bound(model: str, t0: float, alpha_u: float, mass: float,
                       table: bool) -> None:
    """Reject model parameters whose 4x4 block entries overflow, naming the flag.

    The entries are bounded by 2|t0| + 4|alpha_u| on the chain (a bound on
    every hopping entry too) and by 2|mass| in 2D (the mass weight of the
    H-bond identities too).  Past that bound a table or an identity would
    hold inf and NaN, so the flag whose term is largest is named instead.
    A ``table`` also adds two chain band energies, each up to
    hypot(2 t0, 4 alpha_u), and squares m = mass/2 in its 2D band energies.
    """
    if model == "ssh":
        terms = {"--t0": 2.0 * abs(t0), "--alpha-u": 4.0 * abs(alpha_u)}
        bounds = [("the block entry bound 2*|t0| + 4*|alpha_u|", sum(terms.values())),
                  ("the band energy sum 2*hypot(2*t0, 4*alpha_u)", 2 * math.hypot(*terms.values()))]
    else:
        terms, m = {"--mass": 2.0 * abs(mass)}, mass / 2.0
        bounds = [("the block entry bound 2*|mass|", terms["--mass"]),
                  ("the band energies' m*m (m = mass/2)", m * m)]
    for bound, value in bounds[:2 if table else 1]:
        if not math.isfinite(value):
            raise ValueError(f"{max(terms, key=terms.get)} is too large: {bound} overflows")


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
        _check_block_bound(model, t0, alpha_u, mass,
                           table=command == "spectrum" or suite == "correspondence")
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
    """``fmt_float`` of each entry of ``x`` as (N, 22) NUL-padded uint8 text, printed in numpy:
    |x| in [1e-90, 1e91) times the double-double 10^(14 - e), e = floor(log10|x|), made exact
    to 1e-15 by Dekker's split, rounded to 15 digits and printed by 3-digit lookups.  Values
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
    text[:, 19:21], text[:, 21] = _THREE_DIGITS.take(np.abs(e), axis=0)[:, 1:], 0
    text.view("S22")[~fast, 0] = [fmt_float(v) for v in x[~fast].tolist()]
    return text


def _format_distinct(values):
    """``fmt_float`` of ``values`` as (labels, inverse): the text of each distinct 64-bit pattern
    (not value: +0.0 == -0.0 format apart, a NaN equals nothing) once, cut to its widest label
    (fewer NULs), and each entry's row in it.  The kernel takes ``KERNEL_BLOCK`` at a time."""
    keys = values.view(np.uint64).ravel()
    # np.unique's sort written out, the sorted keys freed before the inverse is built: one
    # whole-length array fewer at the peak (searchsorted for the inverse is about 4x slower)
    order = np.argsort(keys)
    gathered = keys[order]
    change = np.ones(len(keys), dtype=bool)
    np.not_equal(gathered[1:], gathered[:-1], out=change[1:])
    distinct = gathered[change]
    del gathered
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(change) - 1
    labels = np.concatenate([_format_floats(distinct[start:start + KERNEL_BLOCK].view(np.float64))
                             for start in range(0, len(distinct), KERNEL_BLOCK)])
    labels = np.ascontiguousarray(labels[:, :labels.any(axis=0).nonzero()[0][-1] + 1])
    return labels, inverse.reshape(values.shape)


def _table_points(table):
    """The table's momentum index columns, then fermion_pair_at's, and each one's grid size.
    fermion_pair_at is the second band momentum of the signed pair sums (the first is q,
    resp. (s, p)): k/2 - q on the chain's half-step site grid, (kx - s, ky - p) in 2D."""
    m, spec = table.momenta, table.spec
    if isinstance(spec, ChainSpec):
        return (np.column_stack([m, (m[:, 1] - 2 * m[:, 0]) % spec.n_sites]),
                [spec.n_cells, spec.n_cells, spec.n_sites])
    return np.hstack([m, (m[:, 2:] - m[:, :2]) % (spec.lx, spec.ly)]), [spec.lx, spec.ly] * 3


def _table_fields(table, points, grids) -> list:
    """Each field column as (label table, index column): ``fmt_momentum`` of each ``points``
    column on its grid of ``grids``, then ``fmt_float`` of the numeric, closed-form and pair
    spectra and the discrepancy, each distinct float of each distinct array formatted once."""
    momenta = {n: _labels([fmt_momentum(j, n) for j in range(n)]) for n in set(grids)}
    spectra = (table.numeric, table.closed_form, table.fermion_pairs, table.discrepancy[:, None])
    distinct = {id(a): a for a in spectra}
    labels, inverse = _format_distinct(np.hstack(list(distinct.values())))
    first = {key: 4 * k for k, key in enumerate(distinct)}
    return ([(momenta[n], points[:, c]) for c, n in enumerate(grids)]
            + [(labels, inverse[:, first[id(a)] + r]) for a in spectra for r in range(a.shape[1])])


def _fill(fields, order, template: str, sep: str):
    """``template`` filled with the ``order`` columns of ``fields`` (label table, index
    column) and joined by ``sep``, as bytes: per ``CHUNK_ROWS`` rows one uint8 grid holding
    each row's literal bytes and, at fixed offsets, its NUL-padded labels, NULs dropped."""
    literals = (sep + template).split("%s")
    widths = [fields[c][0].shape[1] for c in order]
    ends = np.cumsum([len(literal) + w for literal, w in zip(literals, widths)]).tolist()
    row = "".join(literal + "\0" * w for literal, w in zip(literals, widths + [0])).encode()
    grid = np.tile(np.frombuffer(row, dtype=np.uint8), (min(len(fields[0][1]), CHUNK_ROWS), 1))
    for start in range(0, len(fields[0][1]), CHUNK_ROWS):
        for c, end, width in zip(order, ends, widths):
            index = fields[c][1][start:start + CHUNK_ROWS]  # every column: the chunk's rows
            grid[:len(index), end - width:end] = fields[c][0].take(index, axis=0)
        text = grid[:len(index)].tobytes().replace(b"\0", b"")
        yield text if start else text[len(sep):]


def _labels(texts) -> np.ndarray:
    """A label table: each of ``texts`` (ASCII, or ints) as one NUL-padded uint8 row."""
    return np.asarray(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


def _rows_json(report: dict, row: dict, fields):
    """``report`` as byte pieces, laid out by ``json.dumps(indent=2, sort_keys=True)`` itself
    around its ``"<rows>"`` entry: a ``row`` per row of ``fields``, whose column tokens (its only
    digits) print as ``"%s"`` if text and bare if ints (int and bool columns; no JSON escapes)."""
    tokens = json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n    ")
    order = [int(c) for c in re.findall(r"\d+", tokens)]
    head, tail = (json.dumps(report, indent=2, sort_keys=True) + "\n").split('"<rows>"')
    yield head.encode()
    yield from _fill(fields, order, re.sub(r"\d+", "%s", tokens), ",\n    ")
    yield tail.encode()


def _table_json(table, config: RunConfig, passed: bool):
    """The table report with the verdict ``passed``, as byte pieces (:func:`_rows_json`),
    one text field per column of a block."""
    points, grids = _table_points(table)
    momenta = ({"q": "0", "k": "1", "fermion_pair_at": "2"} if isinstance(table.spec, ChainSpec)
               else {"s": "0", "p": "1", "kx": "2", "ky": "3", "fermion_pair_at": ["4", "5"]})
    v = [str(c) for c in range(points.shape[1], points.shape[1] + 13)]
    block = {"momenta": momenta, "numeric": v[:4], "closed_form": v[4:8],
             "fermion_pairs": v[8:12], "max_discrepancy": v[12]}
    report = _report(config, passed, blocks=["<rows>"],
                     max_discrepancy=fmt_float(table.max_discrepancy))
    yield from _rows_json(report, block, _table_fields(table, points, grids))


def _table_csv(table):
    """The table as CSV byte pieces, one row per rank, laid out as
    ``csv.writer(lineterminator="\\n")``: no field needs quoting."""
    columns = MOMENTUM_COLUMNS[type(table.spec)]
    n = len(columns)
    points, grids = _table_points(table)
    # per rank: the momenta, the rank, the three spectra at it and the discrepancy
    order = [c for r in range(4) for c in (*range(n), n + r, n + 4 + r, n + 8 + r, n + 12)]
    template = "".join(",".join(["%s"] * n + [str(r)] + ["%s"] * 4) + "\n" for r in range(4))
    yield (",".join(columns + ["rank", "numeric", "closed_form", "fermion_pair",
                               "max_discrepancy"]) + "\n").encode()
    yield from _fill(_table_fields(table, points[:, :n], grids[:n]), order, template, "")


def _emit(pieces, output: str) -> int:
    try:
        if output:
            with open(output, "wb") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.flush()  # text written before the bytes stays before them
            sys.stdout.buffer.writelines(pieces)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _passes(residual, bound: float):
    """The one pass rule of every report, entry by entry: residual <= bound (a NaN never passes)."""
    return residual <= bound


def _check(residual: float, bound: float, **fields) -> dict:
    """One check of a report: its label ``fields``, the residual, and whether it passes."""
    return {**fields, "residual": fmt_float(residual), "pass": bool(_passes(residual, bound))}


def _report(config: RunConfig, passed: bool, **fields) -> dict:
    """The report around its own ``fields``: the config echo, the suite when one ran and
    the verdict, ``pass`` exactly when ``passed``."""
    report = {**fields, "config": config.echo(), "verdict": "pass" if passed else "fail"}
    if config.suite:
        report["suite"] = config.suite
    return report


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig):
    """The table of ``spectrum``, also the report of ``verify correspondence``, as
    (byte pieces, passed).  The table passes when its ``max_discrepancy`` does, so
    exactly when every block's does (a NaN in any block fails it)."""
    table = correspondence_report(config.spec)
    passed = _passes(table.max_discrepancy, config.tolerance)
    return (_table_csv(table) if config.fmt == "csv" else _table_json(table, config, passed),
            passed)


def cmd_identities(config: RunConfig):
    """The report of ``verify identities``, as (byte pieces, passed): one row per identity
    (:func:`_rows_json`), l and K indices into one digit table and one momentum table per grid."""
    spec = config.spec
    identities, residuals = h_bond_commutator_residuals(spec)
    passes = _passes(residuals, config.tolerance)
    l, k = (a.reshape(len(residuals), -1) for a in (identities.l, identities.k))
    grids = [spec.n_sites] if isinstance(spec, ChainSpec) else [spec.lx, spec.ly]
    digits = _labels(range(l.max() + 1))
    text = [np.unique(a, return_inverse=True) for a in (identities.channel, identities.sublattice)]
    fields = ([(_labels(t), i) for t, i in text]
              + [_format_distinct(residuals), (_labels(["false", "true"]), passes)]
              + [(digits, c) for c in l.T]
              + [(_labels([fmt_momentum(j, n) for j in range(n)]), c) for n, c in zip(grids, k.T)])
    row = {"channel": "0", "sublattice": "1", "residual": "2", "pass": 3,
           **({"l": 4, "k": "5"} if len(grids) == 1 else {"l": [4, 5], "k": ["6", "7"]})}
    passed = bool(passes.all())
    report = _report(config, passed, checks=["<rows>"],
                     max_residual=fmt_float(max_residual(residuals)))
    return _rows_json(report, row, fields), passed


def _suite_commutators(config: RunConfig) -> dict:
    """Near-filling commutator law plus the deviation-vs-holes table."""
    spec = config.spec
    if isinstance(spec, ChainSpec):
        pairs = [ChainPair(l, K) for l in range(1, spec.n_cells + 1)
                 for K in range(spec.n_sites)]
        as_label = lambda pair: {"l": pair.l, "k": fmt_momentum(pair.K, spec.n_sites)}
    else:
        # one offset per {d, -d} class: the reversed offset recreates the
        # same pairs and is not an independent bond
        lengths = square_bond_offsets(spec.lx, spec.ly)
        if not lengths:
            raise ValueError("--lx and --ly: a 1x1 lattice has no bonds to commute")
        pairs = [SquarePair(l, m, Kx, Ky) for l, m in lengths
                 for Kx, Ky in np.ndindex(spec.lx, spec.ly)]
        as_label = lambda pair: {"l": [pair.l, pair.m], "k": [fmt_momentum(pair.Kx, spec.lx),
                                                              fmt_momentum(pair.Ky, spec.ly)]}
    site_count = spec.n_sites
    # one pattern of X, one triangle and one set of pair-carrying modes per run
    check_mode_cap(spec.n_modes)
    modes, triangle = pair_carrying_modes(spec), np.triu_indices(spec.n_modes, 1)
    k, r, values = pattern = pair_pattern(spec, pairs)

    # grid labels are distinct, so two labels match exactly on the diagonal
    table = pattern_table(pattern, filling_weights(spec, 0, config.seed, modes, triangle)[0],
                          len(pairs))
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
    # the rows are the bonds at the first grid momentum (labels 0, site_count, ...),
    # each the diagonal entry of its own table, read off the rows of the pattern
    row_pairs = pairs[::site_count]
    on_row = r % site_count == 0
    rows = (k[on_row], r[on_row] // site_count, values[on_row])
    for holes in range(0, min(4, site_count + 1)):
        weights, hole_modes = filling_weights(spec, holes, config.seed, modes, triangle)
        for pair, wraps, expectation in zip(row_pairs, self_paired[::site_count].tolist(),
                                            map(complex, pattern_diagonal(rows, weights,
                                                                          len(row_pairs)))):
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
    highlighted = boson_commutator_report(spec, highlight, n_holes=config.holes,
                                          seed=config.seed)
    return {
        "site_count": site_count,
        "checks": [_check(matched_dev, config.tolerance, name="filled_matched_law"),
                   _check(unmatched_mag, config.tolerance, name="filled_unmatched_law")],
        "highlighted": {
            "holes": config.holes,
            "expectation": fmt_float(highlighted.real),
            "normalized_per_site": fmt_float(highlighted.real / site_count),
            "normalized_per_cell": fmt_float(highlighted.real / max(site_count // 2, 1)),
            "deviation": fmt_float(abs(highlighted - float(site_count))),
        },
        "self_paired_cells": self_paired_cells,
        "deviation_vs_holes": holes_table,
    }


def _suite_interactions(config: RunConfig) -> dict:
    spec = config.spec
    check_mode_cap(spec.n_modes)
    alpha = random_offdiag_coupling(spec.n_sites, seed=config.seed)
    pair = pair_tensor(*pair_form_stacks(alpha))
    scale = pair_tensor_norm(pair, spec.n_modes)
    form_distance = pair_tensor_norm(pair - density_tensor(alpha), spec.n_modes)

    reconstruction_max = pair_reconstruction_max(spec.n_sites)

    assembled_residual = interaction_equivalence_residual(alpha, pair)
    checks = [_check(residual, bound, name=name, tolerance=fmt_float(bound))
              for name, residual, bound in (
                  ("density_vs_pair_form", form_distance, config.tolerance),
                  ("pair_reconstruction_max", reconstruction_max, 1e-13),
                  ("bond_assembled_interaction", assembled_residual,
                   config.tolerance * max(scale, 1.0)))]
    return {"interaction_norm": fmt_float(scale), "checks": checks}


def cmd_verify(config: RunConfig):
    """The report of ``verify``, as (byte pieces, passed)."""
    if config.suite in ("correspondence", "identities"):
        return (cmd_spectrum if config.suite == "correspondence" else cmd_identities)(config)
    fields = (_suite_commutators if config.suite == "commutators" else _suite_interactions)(config)
    passed = all(check["pass"] for check in fields["checks"])
    report = json.dumps(_report(config, passed, **fields), indent=2, sort_keys=True) + "\n"
    return [report.encode()], passed


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _config_from_args(args)
        command = cmd_spectrum if config.command == "spectrum" else cmd_verify
        pieces, passed = command(config)
        return _emit(pieces, config.output) or (EXIT_OK if passed else 1)
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
