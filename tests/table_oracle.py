"""The spectrum table written the plain way: a payload dict through ``json.dumps``
and rows through ``csv.writer``, one ``fmt_float`` call per entry.

The CLI streams the same bytes from fixed templates; the writer tests
compare the two.
"""

import csv
import io
import json

from bondboson.cli import MOMENTUM_COLUMNS, fmt_float, fmt_momentum
from bondboson.lattice import TWO_PI


def _labels(rows):
    return [[fmt_momentum(v) for v in row] for row in rows]


def _value_rows(table):
    return zip(table.numeric.tolist(), table.closed_form.tolist(),
               table.fermion_pairs.tolist(), table.discrepancy.tolist())


def table_json(table, config) -> str:
    if table.model == "ssh":
        points = [(q, k, (k / 2.0 - q) % TWO_PI) for q, k in table.momenta.tolist()]
        as_momenta = lambda l: {"q": l[0], "k": l[1], "fermion_pair_at": l[2]}
    else:
        points = [(s, p, kx, ky, (kx - s) % TWO_PI, (ky - p) % TWO_PI)
                  for s, p, kx, ky in table.momenta.tolist()]
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
        for labels, (numeric, closed, pairs, spread) in zip(_labels(points), _value_rows(table))
    ]
    payload = {
        "config": config.echo(),
        "blocks": blocks,
        "max_discrepancy": fmt_float(table.max_discrepancy),
        "verdict": "pass" if table.passed else "fail",
    }
    if config.suite:
        payload["suite"] = config.suite
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table_csv(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MOMENTUM_COLUMNS[table.model] + ["rank", "numeric", "closed_form",
                                                     "fermion_pair", "max_discrepancy"])
    for labels, (numeric, closed, pairs, spread) in zip(_labels(table.momenta.tolist()),
                                                        _value_rows(table)):
        for rank in range(4):
            writer.writerow(labels + [rank, fmt_float(numeric[rank]), fmt_float(closed[rank]),
                                      fmt_float(pairs[rank]), fmt_float(spread)])
    return buf.getvalue()
