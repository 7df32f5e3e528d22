"""The streamed spectrum table against the plain payload and csv.writer route.

Real tables, and tables with injected rows: +0.0 and -0.0 side by side,
NaN of both signs, +-inf, the smallest subnormal and other subnormals,
and momenta on an x grid of more than 720 cells, where most labels are
floats.  Sizes: one row, one chunk, one chunk plus a row.  The CLI writes
the same bytes to standard output and to ``--output``, in chunks of
bounded memory.
"""

import dataclasses
import io
import json
import math
import sys
import tracemalloc
import types
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import table_oracle
from bondboson import cli
from bondboson.blocks import correspondence_report
from bondboson.lattice import TWO_PI, ChainSpec, SquareSpec, chain_momenta

SPECIAL = np.array([0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
                    5e-324, -5e-324, 2.5e-310, -1.2345e-315, 2.2250738585072009e-308])
VALUES = ("numeric", "closed_form", "fermion_pairs", "discrepancy")

# 1225 and 1296 blocks: more than one chunk
TABLES = {
    "ssh": correspondence_report(ChainSpec(70, t0=1.0, alpha_u=0.2)),
    "dirac2d": correspondence_report(SquareSpec(6, 6, delta=1.3)),
}
SIZES = {"one_row": 1, "one_chunk": cli.CHUNK_ROWS, "chunk_plus_one": cli.CHUNK_ROWS + 1}
# x-axis cells of injected tables: 2j/1442 = j/721 = j/(7*103) reduces to a
# denominator of at most 720 only when 7 or 103 divides j
BIG = 1442


def injected(table, n):
    """The first ``n`` rows of ``table`` with SPECIAL values and momenta on a BIG grid.

    Every other entry of the value columns is replaced in turn by the next
    SPECIAL value, and the first numeric column alternates +0.0 and -0.0.
    The x-axis momentum columns (q and k, resp. s and kx) get seeded indices
    on a grid of BIG cells, 0 and BIG/2 in the first row.
    """
    values = np.column_stack([getattr(table, name)[:n] for name in VALUES])
    values.reshape(-1)[::2] = np.resize(SPECIAL, values.reshape(-1)[::2].shape)
    values[0::2, 0], values[1::2, 0] = 0.0, -0.0
    momenta = table.momenta[:n].copy()
    chain = isinstance(table.spec, ChainSpec)
    x = [0, 1] if chain else [0, 2]
    momenta[:, x] = np.random.default_rng(7).integers(0, BIG, size=(n, 2))
    momenta[0, x] = 0, BIG // 2
    spec = dataclasses.replace(table.spec, **({"n_sites": 2 * BIG} if chain else {"lx": BIG}))
    return dataclasses.replace(table, spec=spec, momenta=momenta, numeric=values[:, 0:4],
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
    # the writer is handed the CLI's verdict; the oracle judges every block itself
    passed = cli._passes(table.max_discrepancy, cfg.tolerance)
    return first_difference(b"".join(cli._table_json(table, cfg, passed)).decode(),
                            table_oracle.table_json(table, cfg))


def csv_difference(table):
    return first_difference(b"".join(cli._table_csv(table)).decode(),
                            table_oracle.table_csv(table))


def config(model, suite):
    return cli.RunConfig(command="verify" if suite else "spectrum", spec=TABLES[model].spec,
                         suite=suite, tolerance=1e-10)


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


@pytest.mark.parametrize("model", list(TABLES))
def test_injected_momenta_have_exact_and_float_labels(model):
    table = injected(TABLES[model], cli.CHUNK_ROWS)
    rows = b"".join(cli._table_csv(table)).decode().splitlines()[1:]
    x = [0, 1] if model == "ssh" else [0, 2]
    labels = {row.split(",")[c] for row in rows for c in x}
    exact = {label for label in labels if label.endswith(" pi")}
    assert {"0", "1 pi"} <= labels and len(exact) > 10
    assert len(labels - exact) > len(labels) // 2


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


# the CLI flags of the TABLES specs
MODEL_FLAGS = {"ssh": ["--sites", "70", "--alpha-u", "0.2"],
               "dirac2d": ["--lx", "6", "--ly", "6", "--mass", "1.3"]}
COMMANDS = {"spectrum": ["spectrum", "{model}"],
            "spectrum-csv": ["spectrum", "{model}", "--format", "csv"],
            "correspondence": ["verify", "correspondence", "--model", "{model}"]}


@pytest.mark.parametrize("inject", [False, True], ids=["real", "injected"])
@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("model", list(TABLES))
def test_stdout_and_output_get_the_same_bytes(monkeypatch, capsysbinary, tmp_path, model,
                                              command, inject):
    # tables of more than one chunk; the injected one holds +-0, subnormals, +-inf, NaNs
    # and 3-digit exponents, and fails its verdict
    if inject:
        table = injected(TABLES[model], cli.CHUNK_ROWS + 1)
        monkeypatch.setattr(cli, "correspondence_report", lambda spec: table)
    argv = [arg.format(model=model) for arg in COMMANDS[command]] + MODEL_FLAGS[model]
    code = cli.main(argv)
    stdout = capsysbinary.readouterr()
    assert cli.main(argv + ["--output", str(tmp_path / "report")]) == code == int(inject)
    written = (tmp_path / "report").read_bytes()
    assert stdout.out == written
    assert stdout.err == capsysbinary.readouterr().err == b""
    assert b"\0" not in written
    assert written.count(b"\n") > cli.CHUNK_ROWS


def test_table_bytes_follow_text_already_on_stdout(monkeypatch):
    # a buffered text layer, as on a pipe: its text must reach the bytes first
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    print("text")
    assert cli._emit([b"bytes\n"], "") == cli.EXIT_OK
    assert stdout.buffer.getvalue() == b"text\nbytes\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_memory_is_bounded_by_the_chunk(tmp_path, fmt):
    # the 10,000-block dirac2d 10x10 table (7.4 MB of JSON, 5.8 MB of CSV): tracemalloc
    # peaks of writing it were 7.0 MiB (JSON) and 6.9 MiB (CSV) with one string object per
    # field, and 4.7 MiB for both with one uint8 grid per chunk (x86-64, Python 3.11,
    # numpy 2.4); one grid of the whole table, and its bytes, would add about 14 MB
    spec = SquareSpec(10, 10, delta=0.5)
    table = correspondence_report(spec)
    cfg = cli.RunConfig(command="spectrum", spec=spec, tolerance=1e-10, fmt=fmt)
    pieces = cli._table_csv(table) if fmt == "csv" else cli._table_json(table, cfg, True)
    tracemalloc.start()
    try:
        code = cli._emit(pieces, str(tmp_path / "report"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < 6 * 2 ** 20


def off_the_fast_path(x: float) -> bool:
    """Whether the kernel may leave ``x`` to ``fmt_float``: a zero, subnormal, inf or
    NaN, a decimal exponent past +-90, or, measured exactly, a 15-digit remainder
    within 2e-6 of one half or a value within a relative 1e-14 of a power of ten."""
    if not math.isfinite(x) or not 1e-90 <= abs(x) < 1e91:
        return True
    exact = abs(Decimal(x))
    scaled = exact.scaleb(14 - exact.adjusted())
    remainder = scaled - int(scaled)
    return (abs(remainder - Decimal("0.5")) < Decimal("2e-6")
            or scaled < Decimal("100000000000001") or scaled > Decimal("999999999999990"))


def assert_formatted_as_fmt_float(values):
    """``_format_distinct(values)`` equals ``fmt_float`` entry by entry, and calls
    ``fmt_float`` once for each zero, subnormal, inf, NaN or |exponent| > 90 pattern
    and otherwise only for values off the fast path."""
    values = np.asarray(values, dtype=np.float64)
    calls = []
    fmt_float = cli.fmt_float
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "fmt_float", lambda x: calls.append(x) or fmt_float(x))
        labels, inverse = cli._format_distinct(values)
    # each entry's uint8 row as bytes, its NUL padding dropped
    got = labels[inverse].view(f"S{labels.shape[1]}").ravel().tolist()
    want = [text.encode() for text in map(fmt_float, values.tolist())]
    if got != want:
        i = next(i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1])
        raise AssertionError((values[i], got[i], want[i]))
    called = np.array(calls, dtype=np.float64)
    assert len(np.unique(called.view(np.uint64))) == len(called)
    in_range = (np.abs(called) >= 1e-90) & (np.abs(called) < 1e91)
    slow = values[~((np.abs(values) >= 1e-90) & (np.abs(values) < 1e91))]
    assert all(off_the_fast_path(x) for x in called[in_range].tolist())
    assert np.isin(slow.view(np.uint64), called.view(np.uint64)).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=50))
def test_kernel_matches_fmt_float_on_hypothesis_floats(xs):
    specials = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310]
    assert_formatted_as_fmt_float(xs + specials)


def test_kernel_matches_fmt_float_on_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    assert_formatted_as_fmt_float(bits.view(np.float64))


def test_kernel_matches_fmt_float_at_powers_of_ten_and_carries():
    powers = np.array([float(f"1e{k}") for k in range(-95, 96)])
    # and up to 9e-15 below each power, where log10 may round up to the power's exponent
    below = np.outer(powers, 1.0 - 1e-15 * np.arange(1, 10)).ravel()
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             below])
    carries = [0.9999999999999999, 9.999999999999999e-05, 9.9999999999999995e89]
    # exact ties, rounded half to even: down, then up
    ties = [1234567890123455.0, 1234567890123465.0, 2.5e15 + 5.0, 2.0 ** -22, 3 * 2.0 ** -22]
    assert_formatted_as_fmt_float(np.concatenate([values, -values, carries, ties]))
    assert cli.fmt_float(9.999999999999999e-05) == "+1.00000000000000e-04"


def test_kernel_matches_fmt_float_at_decimal_near_ties():
    # 16-digit decimals whose last digit is 5, as floats: one rounding away from the
    # tie of two 15-digit neighbours
    rng = np.random.default_rng(12)
    mantissas = rng.integers(10 ** 14, 10 ** 15, size=10 ** 5)
    exponents = rng.integers(-105, 76, size=10 ** 5)
    ties = np.array([float(f"{m}5e{k}") for m, k in zip(mantissas.tolist(),
                                                          exponents.tolist())])
    ties[rng.random(len(ties)) < 0.5] *= -1.0
    ties[0] = float("1234567890123455e-20")
    values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    assert_formatted_as_fmt_float(values)


def test_each_distinct_pattern_is_formatted_at_most_once(monkeypatch):
    kernel_input, calls = [], []
    format_floats = cli._format_floats
    monkeypatch.setattr(cli, "_format_floats",
                        lambda x: kernel_input.append(x.copy()) or format_floats(x))
    monkeypatch.setattr(cli, "fmt_float", lambda x: calls.append(x) or f"{x:+.14e}")
    n = cli.CHUNK_ROWS + 1
    # the 6x6 grid's momenta only: a label on a grid of more than 720 cells calls fmt_float too
    real = TABLES["dirac2d"]
    table = dataclasses.replace(injected(real, n), spec=real.spec, momenta=real.momenta[:n])
    b"".join(cli._table_csv(table))
    values = np.concatenate([getattr(table, name).reshape(-1) for name in VALUES])
    formatted = np.concatenate(kernel_input).view(np.uint64)
    assert len(np.unique(formatted)) == len(formatted)
    assert set(formatted.tolist()) == set(values.view(np.uint64).tolist())
    # fmt_float runs for the injected zeros, NaNs, infs and subnormals, once each
    fallback = values[~((np.abs(values) >= 1e-90) & (np.abs(values) < 1e91))]
    called = np.array(calls, dtype=np.float64).view(np.uint64)
    assert len(called) == len(set(called.tolist()))
    assert set(called.tolist()) == set(fallback.view(np.uint64).tolist())
    assert set(SPECIAL.view(np.uint64).tolist()) <= set(called.tolist())


def grid_table(model, n):
    """The momentum columns of a table over every block of an n-cell chain, or of an
    n x 1 lattice, with the radians of fermion_pair_at as the float route computed them:
    ``np.mod(k/2 - q, 2*pi)``, resp. ``np.mod(kx - s, 2*pi)``."""
    first, second = np.divmod(np.arange(n * n), n)
    grid = chain_momenta(n)
    if model == "ssh":
        table = types.SimpleNamespace(spec=ChainSpec(2 * n), momenta=np.column_stack((first, second)))
        return table, 2, np.mod(grid[second] / 2.0 - grid[first], TWO_PI)
    zero = np.zeros_like(first)
    table = types.SimpleNamespace(spec=SquareSpec(n, 1),
                                  momenta=np.column_stack((first, zero, second, zero)))
    return table, 4, np.mod(grid[second] - grid[first], TWO_PI)


def pair_label_mismatches(model, n):
    """(index, float-route label, index label) for each fermion_pair_at x label that
    the two routes print differently; the float route is evaluated once per distinct float."""
    table, column, radians = grid_table(model, n)
    points, grids = cli._table_points(table)
    distinct, first, inverse = np.unique(radians.view(np.uint64), return_index=True,
                                         return_inverse=True)
    index = points[first, column]
    # one grid index per float
    assert np.array_equal(index[inverse.ravel()], points[:, column])
    labels = ((j, table_oracle.float_momentum_label(x), cli.fmt_momentum(j, grids[column]))
              for j, x in zip(index.tolist(), distinct.view(np.float64).tolist()))
    return [label for label in labels if label[1] != label[2]]


def test_chain_pair_labels_match_the_float_route():
    for n_cells in [*range(1, 41), 97, 360, 719, 720]:
        assert pair_label_mismatches("ssh", n_cells) == [], n_cells


def test_square_pair_labels_match_the_float_route():
    for extent in range(1, 130):
        assert pair_label_mismatches("dirac2d", extent) == [], extent


def test_chain_pair_label_at_1442_sites_is_printed_from_its_index():
    # block (q, k) = (2, 9) of 721 cells: k/2 - q is index 5 of the 1,442-site grid, and
    # 2*5/1442 = 5/721 has no denominator of at most 720; the float route printed
    # np.mod(k/2 - q, 2*pi), one rounding off 2*pi*5/1442
    real = TABLES["ssh"]
    table = dataclasses.replace(real, spec=dataclasses.replace(real.spec, n_sites=1442),
                                momenta=np.array([[2, 9]]),
                                **{name: getattr(real, name)[:1] for name in VALUES})
    report = json.loads(b"".join(cli._table_json(table, config("ssh", ""), True)))
    label = report["blocks"][0]["momenta"]["fermion_pair_at"]
    assert label == "+2.17863568210110e-02" == cli.fmt_float(chain_momenta(1442)[5])
    q, k = chain_momenta(721)[[2, 9]]
    assert table_oracle.float_momentum_label(np.mod(k / 2.0 - q, TWO_PI)) == (
        "+2.17863568210111e-02")
    assert pair_label_mismatches("ssh", 721)
