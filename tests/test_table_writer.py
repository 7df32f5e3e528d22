"""The streamed spectrum table against the plain payload and csv.writer route.

Real tables, and tables with injected rows: +0.0 and -0.0 side by side,
NaN of both signs, +-inf, the smallest subnormal and other subnormals,
and momenta off the grid.  Sizes: one row, one chunk, one chunk plus a
row.
"""

import dataclasses

import numpy as np
import pytest

import table_oracle
from bondboson import cli
from bondboson.blocks import correspondence_report
from bondboson.lattice import ChainSpec, SquareSpec

SPECIAL = np.array([0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
                    5e-324, -5e-324, 2.5e-310, -1.2345e-315, 2.2250738585072009e-308])
VALUES = ("numeric", "closed_form", "fermion_pairs", "discrepancy")

# 1225 and 1296 blocks: more than one chunk
TABLES = {
    "ssh": correspondence_report(ChainSpec(70, t0=1.0, alpha_u=0.2)),
    "dirac2d": correspondence_report(SquareSpec(6, 6, delta=1.3)),
}
SIZES = {"one_row": 1, "one_chunk": cli.CHUNK_ROWS, "chunk_plus_one": cli.CHUNK_ROWS + 1}


def injected(table, n):
    """The first ``n`` rows of ``table`` with SPECIAL values and off-grid momenta.

    Every other entry of the value columns is replaced in turn by the next
    SPECIAL value, and the first numeric column alternates +0.0 and -0.0.
    """
    values = np.column_stack([getattr(table, name)[:n] for name in VALUES])
    values.reshape(-1)[::2] = np.resize(SPECIAL, values.reshape(-1)[::2].shape)
    values[0::2, 0], values[1::2, 0] = 0.0, -0.0
    momenta = table.momenta[:n].copy()
    momenta[::5, 0] += 0.1234
    return dataclasses.replace(table, momenta=momenta, numeric=values[:, 0:4],
                               closed_form=values[:, 4:8], fermion_pairs=values[:, 8:12],
                               discrepancy=values[:, 12])


def first_difference(got, want):
    """The first line where two texts differ, as (line number, got, want), or None.

    Cheap where pytest's own diff of two long strings takes minutes.
    """
    for number, pair in enumerate(zip(got.splitlines(True), want.splitlines(True))):
        if pair[0] != pair[1]:
            return number, *pair
    return None if len(got) == len(want) else ("length", len(got), len(want))


def json_difference(table, cfg):
    return first_difference("".join(cli._table_json(table, cfg)),
                            table_oracle.table_json(table, cfg))


def csv_difference(table):
    return first_difference("".join(cli._table_csv(table)), table_oracle.table_csv(table))


def config(model, suite):
    return cli.RunConfig(command="verify" if suite else "spectrum", model=model, suite=suite,
                         sites=70, lx=6, ly=6, alpha_u=0.2, mass=1.3, tolerance=1e-10)


@pytest.mark.parametrize("size", list(SIZES))
def test_injected_rows_hold_the_special_values(size):
    n = SIZES[size]
    table = injected(TABLES["ssh"], n)
    bits = np.concatenate([getattr(table, name).reshape(-1) for name in VALUES]).view(np.uint64)
    # one row holds the first seven, two rows hold them all
    present = SPECIAL[:7] if n == 1 else SPECIAL
    assert set(present.view(np.uint64)) <= set(bits)
    if n > 1:
        assert set(np.signbit(table.numeric[:, 0])) == {False, True}
        assert not np.any(table.numeric[:, 0])


@pytest.mark.parametrize("suite", ["", "correspondence"], ids=["spectrum", "correspondence"])
@pytest.mark.parametrize("model", list(TABLES))
def test_json_of_real_tables(model, suite):
    table, cfg = TABLES[model], config(model, suite)
    assert json_difference(table, cfg) is None


@pytest.mark.parametrize("size", list(SIZES))
@pytest.mark.parametrize("suite", ["", "correspondence"], ids=["spectrum", "correspondence"])
@pytest.mark.parametrize("model", list(TABLES))
def test_json_of_injected_tables(model, suite, size):
    table, cfg = injected(TABLES[model], SIZES[size]), config(model, suite)
    assert json_difference(table, cfg) is None


@pytest.mark.parametrize("model", list(TABLES))
def test_csv_of_real_tables(model):
    table = TABLES[model]
    assert csv_difference(table) is None


@pytest.mark.parametrize("size", list(SIZES))
@pytest.mark.parametrize("model", list(TABLES))
def test_csv_of_injected_tables(model, size):
    table = injected(TABLES[model], SIZES[size])
    assert csv_difference(table) is None


def test_each_distinct_pattern_is_formatted_once(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "fmt_float", lambda x: calls.append(x) or f"{x:+.14e}")
    n = cli.CHUNK_ROWS + 1
    # grid momenta only: an off-grid label would call fmt_float too
    table = dataclasses.replace(injected(TABLES["dirac2d"], n),
                                momenta=TABLES["dirac2d"].momenta[:n])
    "".join(cli._table_csv(table))
    values = np.concatenate([getattr(table, name).reshape(-1) for name in VALUES])
    assert len(calls) == len(np.unique(values.view(np.uint64)))
