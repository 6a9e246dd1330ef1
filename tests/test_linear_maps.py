"""The F_p-linear map kernel of FieldCtx (_map_tables/_apply_map) against the
column-by-column oracle (tests/bruteforce.py), by property tests."""

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
