"""The F_p-linear map kernels of FieldCtx (_map_tables/_apply_map, and the
whole-field table _span) against the column-by-column oracle
(tests/bruteforce.py), by property tests."""

import pytest

from bruteforce import linear_map_by_columns
from pnfield.field import _pack, _unpack, build_field

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# p = 2 and 3 (chunk tables), 5 and 7 (packed columns), and two towers
MAP_FIELDS = [build_field(*spec) for spec in
              ((2, 1, 8), (2, 2, 3), (3, 1, 5), (3, 2, 2), (5, 1, 3), (7, 1, 3))]


@st.composite
def _map_and_input(draw):
    ctx = draw(st.sampled_from(MAP_FIELDS))
    # a map of the field into itself, or an F_p-valued one such as the trace
    top = ctx.p if draw(st.booleans()) else ctx.order
    images = draw(st.lists(st.integers(0, top - 1), min_size=ctx.k * ctx.n,
                           max_size=ctx.k * ctx.n))
    return ctx, images, draw(st.integers(0, ctx.order - 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_map_and_input())
def test_apply_map_matches_the_column_oracle(case):
    ctx, images, a = case
    p = ctx.p
    tables = ctx._map_tables([_pack(v, p, ctx._bits) for v in images])
    wide = (len(images) * (p - 1) ** 2).bit_length()
    want = _unpack(linear_map_by_columns([_pack(v, p, wide) for v in images], a, p), p, wide)
    assert ctx._apply_map(tables, a) == want


# the map fields, one with 2-byte digit slots (p = 257) and one with more
# columns than the 2^14 records of _span's first table take (2^1:16)
SPAN_FIELDS = MAP_FIELDS + [build_field(257, 1, 2), build_field(2, 1, 16)]


@st.composite
def _span_case(draw):
    ctx = draw(st.sampled_from(SPAN_FIELDS))
    element = st.integers(0, ctx.order - 1)
    cols = draw(st.lists(st.one_of(st.just(0), element), max_size=ctx.k * ctx.n))
    if len(cols) > 1 and draw(st.booleans()):  # a column repeated
        cols[draw(st.integers(1, len(cols) - 1))] = draw(st.sampled_from(cols))
    return ctx, cols, draw(st.lists(st.integers(0, ctx.p ** len(cols) - 1), max_size=20))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_span_case())
def test_span_matches_the_combination_oracle(case):
    ctx, cols, picks = case
    p, table = ctx.p, ctx._span(cols)
    assert len(table) == p ** len(cols)
    wide = (len(cols) * (p - 1) ** 2).bit_length()
    packed = [_pack(v, p, wide) for v in cols]
    for j in [0, len(table) - 1] + picks:
        assert table[j] == _unpack(linear_map_by_columns(packed, j, p), p, wide), j
