"""Output checks: does a report parse, pass, and have the shape its sizes imply?

``problems(cmd, data, rng)`` returns a list of human-readable problems
with one report (empty when the report is correct).  Beyond parsing,
the verdict and the counts, every spectrum row is checked for internal
consistency, and a seeded sample of rows is recomputed here from the
band formulas stated in the README, independently of the package:

* chain:  ``E(K) = sqrt((2 t0 cos K)^2 + (4 alpha_u sin K)^2)`` at
  ``q`` and ``k/2 - q``;
* square: ``E(kx, ky) = 2 sqrt(m^2 + sin^2 kx + sin^2 ky)``, ``m = mass/2``,
  at ``(s, p)`` and ``(kx - s, ky - p)``;

and the four signed sums ``+-E1 +-E2``, ascending, must equal the
``numeric`` column within the suite tolerance.  No golden bytes or
hashes are stored, so a deliberate change of output format stays
possible as long as the reports keep their meaning.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import T0, TABLE_TOLERANCE

# Verdict tolerances of the verification suites, as the CLI applies them.
SUITE_TOLERANCE = {
    "spectrum": TABLE_TOLERANCE,
    "correspondence": TABLE_TOLERANCE,
    "identities": 1e-12,
    "commutators": 1e-12,
    "interactions": 1e-12,
}

# Rows of each table recomputed from the band formulas.
SAMPLE_ROWS = 256

TWO_PI = 2.0 * math.pi

CSV_MOMENTA = {"ssh": ["q", "k"], "dirac2d": ["s", "p", "kx", "ky"]}
CSV_VALUES = ["rank", "numeric", "closed_form", "fermion_pair", "max_discrepancy"]

INTERACTION_CHECKS = ["density_vs_pair_form", "pair_reconstruction_max",
                      "bond_assembled_interaction"]
COMMUTATOR_CHECKS = ["filled_matched_law", "filled_unmatched_law"]


class ReportError(ValueError):
    """A report that does not parse or breaks its expected shape."""


def parse_momentum(label: str) -> float:
    """Inverse of the CLI's momentum labels: "0", "3 pi", "2/3 pi" or a float."""
    if label.endswith(" pi"):
        num, _, den = label[:-3].partition("/")
        return int(num) * math.pi / (int(den) if den else 1)
    return float(label)


def _angle_gap(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def band_sums(model: str, momenta: list, cmd) -> list:
    """The four signed pair sums at one block's momenta, ascending."""
    if model == "ssh":
        q, k = momenta
        alpha_u = cmd.expect["alpha_u"]

        def band(x):
            return math.hypot(2.0 * T0 * math.cos(x), 4.0 * alpha_u * math.sin(x))

        e1, e2 = band(q), band(k / 2.0 - q)
    else:
        s, p, kx, ky = momenta
        m = cmd.expect["mass"] / 2.0

        def band(x, y):
            return 2.0 * math.sqrt(m * m + math.sin(x) ** 2 + math.sin(y) ** 2)

        e1, e2 = band(s, p), band(kx - s, ky - p)
    return sorted(s1 * e1 + s2 * e2 for s1 in (1.0, -1.0) for s2 in (1.0, -1.0))


def _check_row(numeric, closed, pairs, discrepancy, tol, where, out):
    if numeric != sorted(numeric):
        out.append(f"{where}: numeric eigenvalues not ascending")
    spread = max(
        max(abs(a - b) for a, b in zip(numeric, closed)),
        max(abs(a - b) for a, b in zip(numeric, pairs)),
    )
    if spread > tol or discrepancy > tol:
        out.append(f"{where}: routes disagree by {spread:.3e} (reported {discrepancy:.3e})")


def _check_sample(cmd, rows, rng, tol, out):
    picks = rows if len(rows) <= SAMPLE_ROWS else rng.sample(rows, SAMPLE_ROWS)
    for where, momenta, numeric in picks:
        expected = band_sums(cmd.model, momenta, cmd)
        gap = max(abs(a - b) for a, b in zip(numeric, expected))
        if gap > tol:
            out.append(f"{where}: numeric column off the band sums by {gap:.3e}")


def _floats(values, n=4) -> list:
    if not isinstance(values, list) or len(values) != n:
        raise ReportError(f"expected a list of {n} values, got {values!r}")
    return [float(v) for v in values]


def _json_table(cmd, report, rng, out):
    tol = SUITE_TOLERANCE[cmd.kind]
    blocks = report["blocks"]
    if len(blocks) != cmd.expect["blocks"]:
        out.append(f"{len(blocks)} blocks, sizes imply {cmd.expect['blocks']}")
    keys = CSV_MOMENTA[cmd.model]
    seen = set()
    rows = []
    worst = 0.0
    for i, block in enumerate(blocks):
        labels = block["momenta"]
        momenta = [parse_momentum(labels[key]) for key in keys]
        seen.add(tuple(labels[key] for key in keys))
        numeric = _floats(block["numeric"])
        discrepancy = float(block["max_discrepancy"])
        worst = max(worst, discrepancy)
        _check_row(numeric, _floats(block["closed_form"]), _floats(block["fermion_pairs"]),
                   discrepancy, tol, f"block {i}", out)
        if cmd.model == "ssh":
            q, k = momenta
            pair_at = [parse_momentum(labels["fermion_pair_at"])]
            pair_ref = [k / 2.0 - q]
        else:
            s, p, kx, ky = momenta
            pair_at = [parse_momentum(v) for v in labels["fermion_pair_at"]]
            pair_ref = [kx - s, ky - p]
        if max(_angle_gap(a, b) for a, b in zip(pair_at, pair_ref)) > 1e-9:
            out.append(f"block {i}: fermion_pair_at {labels['fermion_pair_at']!r} is off")
        rows.append((f"block {i}", momenta, numeric))
    if len(seen) != len(blocks):
        out.append(f"{len(blocks) - len(seen)} duplicated momentum blocks")
    if float(report["max_discrepancy"]) != worst:
        out.append("table max_discrepancy is not the largest row value")
    _check_sample(cmd, rows, rng, tol, out)


def _csv_table(cmd, text, rng, out):
    tol = SUITE_TOLERANCE[cmd.kind]
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    keys = CSV_MOMENTA[cmd.model]
    if header != keys + CSV_VALUES:
        raise ReportError(f"unexpected CSV header {header!r}")
    lines = list(reader)
    if len(lines) != 4 * cmd.expect["blocks"]:
        out.append(f"{len(lines)} rows, sizes imply {4 * cmd.expect['blocks']}")
    n_mom = len(keys)
    seen = set()
    rows = []
    for start in range(0, len(lines) - len(lines) % 4, 4):
        group = lines[start:start + 4]
        if any(len(line) != n_mom + len(CSV_VALUES) for line in group):
            raise ReportError(f"row {start}: wrong field count")
        labels = tuple(group[0][:n_mom])
        if any(tuple(line[:n_mom]) != labels for line in group):
            out.append(f"rows {start}-{start + 3}: momenta differ within one block")
        if [line[n_mom] for line in group] != ["0", "1", "2", "3"]:
            out.append(f"rows {start}-{start + 3}: ranks are not 0..3")
        seen.add(labels)
        numeric = [float(line[n_mom + 1]) for line in group]
        closed = [float(line[n_mom + 2]) for line in group]
        pairs = [float(line[n_mom + 3]) for line in group]
        discrepancy = max(float(line[n_mom + 4]) for line in group)
        where = f"rows {start}-{start + 3}"
        _check_row(numeric, closed, pairs, discrepancy, tol, where, out)
        rows.append((where, [parse_momentum(v) for v in labels], numeric))
    if len(seen) != len(rows):
        out.append(f"{len(rows) - len(seen)} duplicated momentum blocks")
    _check_sample(cmd, rows, rng, tol, out)


def _check_list(report, names, tol, out):
    checks = report["checks"]
    if [c["name"] for c in checks] != names:
        out.append(f"checks {[c['name'] for c in checks]!r}, expected {names!r}")
    for c in checks:
        bound = float(c.get("tolerance", tol))
        if c["pass"] is not True or float(c["residual"]) > bound:
            out.append(f"check {c['name']} fails: residual {c['residual']}")


def _identities(cmd, report, out):
    tol = SUITE_TOLERANCE["identities"]
    checks = report["checks"]
    if len(checks) != cmd.expect["checks"]:
        out.append(f"{len(checks)} checks, sizes imply {cmd.expect['checks']}")
    keys = {json.dumps([c["channel"], c["sublattice"], c["l"], c["k"]]) for c in checks}
    if len(keys) != len(checks):
        out.append(f"{len(checks) - len(keys)} duplicated checks")
    residuals = [float(c["residual"]) for c in checks]
    failing = [c for c, r in zip(checks, residuals) if c["pass"] is not True or r > tol]
    if failing:
        out.append(f"{len(failing)} identity checks fail, first {failing[0]!r}")
    if residuals and float(report["max_residual"]) != max(residuals):
        out.append("max_residual is not the largest check residual")


def _commutators(cmd, report, out):
    _check_list(report, COMMUTATOR_CHECKS, SUITE_TOLERANCE["commutators"], out)
    expect = cmd.expect
    if report["site_count"] != expect["site_count"]:
        out.append(f"site_count {report['site_count']}, expected {expect['site_count']}")
    if len(report["deviation_vs_holes"]) != expect["holes_rows"]:
        out.append(f"{len(report['deviation_vs_holes'])} hole rows, "
                   f"sizes imply {expect['holes_rows']}")
    if len(report["self_paired_cells"]) != expect["self_paired_cells"]:
        out.append(f"{len(report['self_paired_cells'])} self-paired cells, "
                   f"sizes imply {expect['self_paired_cells']}")
    if report["highlighted"]["holes"] != expect["holes"]:
        out.append(f"highlighted holes {report['highlighted']['holes']}, "
                   f"expected {expect['holes']}")


def problems(cmd, data: bytes, rng) -> list:
    """Everything wrong with one report; ``rng`` picks the recomputed rows."""
    out = []
    try:
        text = data.decode("utf-8")
        if cmd.fmt == "csv":
            _csv_table(cmd, text, rng, out)
            return out
        report = json.loads(text)
        if report.get("verdict") != "pass":
            out.append(f"verdict {report.get('verdict')!r}")
        if cmd.kind == "correspondence" and report.get("suite") != "correspondence":
            out.append(f"suite {report.get('suite')!r}")
        if cmd.kind in ("spectrum", "correspondence"):
            _json_table(cmd, report, rng, out)
        elif cmd.kind == "identities":
            _identities(cmd, report, out)
        elif cmd.kind == "interactions":
            _check_list(report, INTERACTION_CHECKS, SUITE_TOLERANCE["interactions"], out)
        else:
            _commutators(cmd, report, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, csv.Error) as exc:
        out.append(f"report does not parse as expected: {type(exc).__name__}: {exc}")
    return out
