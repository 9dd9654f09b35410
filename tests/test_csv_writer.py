"""The CSV writer against ``csv.writer`` with per-cell formatting, and the
array float formatter against ``repr``."""

import contextlib
import csv
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levy_info import _shortest, cli

FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2e-308]))
INTS = st.integers(min_value=-2**63, max_value=2**63 - 1)
TEXT_CHARS = st.sampled_from([",", '"', "\n", "a", "Z", " ", "[", "=", "é", "0"])
KINDS = {
    "float": FLOATS,
    "int": INTS,
    "text": st.text(TEXT_CHARS, max_size=6),
}


def cell_by_cell(value):
    """Per-cell formatting: text as is, integers by ``str``, floats by ``repr``."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def format_column(kind, values):
    """A column as the writer takes it, an ``S`` array of cells."""
    if kind == "float":
        return _shortest.floats(np.array(values, dtype=float))
    if kind == "int":
        return np.array(values, dtype=np.int64).astype(bytes)
    return cli._texts(values)


def emitted_rows(header, blocks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(None, "simulate", {"seed": 0}, header, blocks)
    lines = out.getvalue().splitlines(keepends=True)
    assert all(line.startswith("# ") for line in lines[:4])
    return "".join(lines[4:])


@st.composite
def tables(draw, text=KINDS["text"]):
    # every CLI schema has at least four columns; two or more keep clear of
    # csv's special case of a lone empty field
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=2, max_size=6))
    header = draw(st.lists(text, min_size=len(kinds), max_size=len(kinds)))
    strategies = [text if kind == "text" else KINDS[kind] for kind in kinds]
    rows = draw(st.lists(st.tuples(*strategies), max_size=8))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return kinds, header, rows, cuts


def to_blocks(kinds, rows, cuts):
    bounds = [0, *cuts, len(rows)]
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        columns = list(zip(*rows[lo:hi])) or [()] * len(kinds)
        blocks.append(tuple(format_column(k, list(c)) for k, c in zip(kinds, columns)))
    return blocks


@settings(max_examples=300, deadline=None)
@given(tables())
def test_emit_matches_csv_writer(table):
    kinds, header, rows, cuts = table
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell_by_cell(v) for v in row])
    assert emitted_rows(header, to_blocks(kinds, rows, cuts)) == ref.getvalue()


@settings(max_examples=300, deadline=None)
@given(tables(text=st.text(st.sampled_from([",", '"', "\n", "\r", "x", " "]), max_size=6)))
def test_emit_reads_back_exactly(table):
    # a carriage return is quoted too, so csv.reader recovers every text cell
    kinds, header, rows, cuts = table
    text = emitted_rows(header, to_blocks(kinds, rows, cuts))
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed[0] == header
    assert len(parsed) == len(rows) + 1
    for row, cells in zip(rows, parsed[1:]):
        for kind, value, cell in zip(kinds, row, cells):
            if kind == "text":
                assert cell == value
            elif kind == "int":
                assert int(cell) == value
            elif math.isnan(value):
                assert math.isnan(float(cell))
            else:
                assert struct.pack("<d", float(cell)) == struct.pack("<d", value)


def assert_reprs(values):
    """``_shortest.floats`` of ``values`` is ``repr`` of each, byte for byte."""
    values = np.asarray(values, dtype=float)
    cells = _shortest.floats(values)
    assert cells.shape == values.shape
    got, want = cells.reshape(-1).tolist(), [repr(v).encode() for v in values.reshape(-1).tolist()]
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        raise AssertionError(f"{values.reshape(-1)[bad]!r}: {got[bad]!r} != {want[bad]!r}")


def test_floats_match_repr_on_a_sweep_of_edges_and_random_bits():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tiny = np.finfo(float).smallest_normal
    subnormal_ends = [5e-324, 1e-323, np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0)]
    edges = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        [0.0, math.nan, math.inf, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1.7976931348623157e308],
        subnormal_ends, np.arange(2**53 - 5000, 2**53 + 5000, dtype=np.int64).astype(float),
    ])
    assert_reprs(np.concatenate([edges, -edges]))
    bits = np.random.default_rng(20240).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    cells = _shortest.floats(values)
    assert b"\n".join(cells.tolist()) == "\n".join(map(repr, values.tolist())).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40), st.sampled_from([(-1,), (1, -1), (-1, 1)]))
def test_floats_match_repr(values, shape):
    assert_reprs(np.array(values, dtype=float).reshape(shape))


@pytest.mark.parametrize("cells", [["a\0b"], ["ok", "\0"], ["trailing\0"]])
def test_a_text_cell_holding_a_nul_raises(cells):
    # the writer drops every NUL, so such a cell would lose it silently
    with pytest.raises(ValueError, match="NUL"):
        cli._texts(cells)
    with pytest.raises(ValueError, match="NUL"):
        emitted_rows(cells + ["x"], [])
