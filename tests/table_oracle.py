"""The row tables written the plain way: a payload dict through ``json.dumps``
and rows through ``csv.writer``, one ``fmt_float`` call per entry, and momentum
labels recovered from radians by :func:`float_momentum_label`.  The spectrum
table (:func:`table_json`, :func:`table_csv`) and the checks of ``verify
identities`` (:func:`identities_json`, one check dict per identity).

The CLI streams the same bytes from fixed templates and labels momenta from
their integer grid indices; the writer tests compare the two.
"""

import csv
import io
import json
from fractions import Fraction

import numpy as np

from bondboson.cli import MOMENTUM_COLUMNS, fmt_float
from bondboson.lattice import ChainSpec, chain_momenta
from bondboson.numerics import max_residual


def float_momentum_label(x: float) -> str:
    """Rational multiple of pi where exact ("2/3 pi"), else a plain float.

    The float route to a momentum label: the nearest fraction of
    denominator at most 720, accepted within 1e-12.  ``cli.fmt_momentum``
    labels the grid index instead and must agree with this on the grid.
    """
    ratio = float(x) / np.pi
    frac = Fraction(ratio).limit_denominator(720)
    if abs(float(frac) * np.pi - float(x)) < 1e-12:
        if frac == 0:
            return "0"
        if frac.denominator == 1:
            return f"{frac.numerator} pi"
        return f"{frac.numerator}/{frac.denominator} pi"
    return fmt_float(x)


def _labels(table):
    """Per row: the labels of the momentum columns, then of fermion_pair_at, in radians
    through ``chain_momenta``; fermion_pair_at is k/2 - q at site-grid index K - 2Q,
    resp. (kx - s, ky - p) at (Kx - S, Ky - P), mod the grid."""
    if isinstance(table.spec, ChainSpec):
        n_sites = table.spec.n_sites
        grids = [n_sites // 2] * 2 + [n_sites]
        rows = [(q, k, (k - 2 * q) % n_sites) for q, k in table.momenta.tolist()]
    else:
        lx, ly = table.spec.lx, table.spec.ly
        grids = [lx, ly] * 3
        rows = [(s, p, kx, ky, (kx - s) % lx, (ky - p) % ly)
                for s, p, kx, ky in table.momenta.tolist()]
    radians = [chain_momenta(n) for n in grids]
    return [[float_momentum_label(radians[c][j]) for c, j in enumerate(row)] for row in rows]


def _value_rows(table):
    return zip(table.numeric.tolist(), table.closed_form.tolist(),
               table.fermion_pairs.tolist(), table.discrepancy.tolist())


def table_json(table, config) -> str:
    if isinstance(table.spec, ChainSpec):
        as_momenta = lambda l: {"q": l[0], "k": l[1], "fermion_pair_at": l[2]}
    else:
        as_momenta = lambda l: {"s": l[0], "p": l[1], "kx": l[2], "ky": l[3],
                                "fermion_pair_at": l[4:]}
    blocks = [
        {
            "momenta": as_momenta(labels),
            "numeric": [fmt_float(v) for v in numeric],
            "closed_form": [fmt_float(v) for v in closed],
            "fermion_pairs": [fmt_float(v) for v in pairs],
            "max_discrepancy": fmt_float(spread),
        }
        for labels, (numeric, closed, pairs, spread) in zip(_labels(table), _value_rows(table))
    ]
    payload = {
        "config": config.echo(),
        "blocks": blocks,
        "max_discrepancy": fmt_float(table.max_discrepancy),
        "verdict": "pass" if np.all(table.discrepancy <= config.tolerance) else "fail",
    }
    if config.suite:
        payload["suite"] = config.suite
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table_csv(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = MOMENTUM_COLUMNS[type(table.spec)]
    writer.writerow(columns + ["rank", "numeric", "closed_form", "fermion_pair",
                               "max_discrepancy"])
    for labels, (numeric, closed, pairs, spread) in zip(_labels(table), _value_rows(table)):
        for rank in range(4):
            writer.writerow(labels[:len(columns)] + [rank, fmt_float(numeric[rank]),
                                                     fmt_float(closed[rank]),
                                                     fmt_float(pairs[rank]), fmt_float(spread)])
    return buf.getvalue()


def identities_json(config, identities, residuals) -> str:
    """The ``verify identities`` report of ``identities`` and their ``residuals``: one
    check dict per identity, judged here (residual <= tolerance), then ``json.dumps``."""
    spec = config.spec
    grids = [spec.n_sites] if isinstance(spec, ChainSpec) else [spec.lx, spec.ly]
    radians = [chain_momenta(n) for n in grids]

    def k_label(k):
        labels = [float_momentum_label(radians[c][j]) for c, j in enumerate(np.atleast_1d(k))]
        return labels[0] if isinstance(spec, ChainSpec) else labels

    checks = [{"channel": channel, "sublattice": sublattice, "l": l, "k": k_label(k),
               "residual": fmt_float(residual), "pass": residual <= config.tolerance}
              for channel, sublattice, l, k, residual in zip(
                  identities.channel.tolist(), identities.sublattice.tolist(),
                  identities.l.tolist(), identities.k.tolist(), residuals.tolist())]
    payload = {
        "config": config.echo(),
        "checks": checks,
        "max_residual": fmt_float(max_residual(residuals)),
        "suite": config.suite,
        "verdict": "pass" if all(check["pass"] for check in checks) else "fail",
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
