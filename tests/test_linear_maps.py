"""The F_p-linear map kernel of FieldCtx (_map, applied by _fold through
_apply_map, and read back by _columns), the whole-field table _span, and
polyfq's applier _Packed._apply that _fold runs on for odd p, against the
column-by-column oracle (tests/bruteforce.py), by property tests."""

import random
from array import array

import pytest

from bruteforce import linear_map_by_columns
from pnfield.field import _pack, _unpack, build_field
from pnfield.polyfq import _packed
from pnfield.smallfield import SmallField

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# p = 2 (XOR tables, 2^2:3 with a short last table), odd p with 8-bit slots,
# two towers, fields whose maps must normalize mid-sum (kn digits p - 1 pass
# an 8-bit slot's budget: 7^1:8, 13^1:4, 7^2:11) and 16-bit slots (17^1:3)
MAP_FIELDS = [build_field(*spec) for spec in
              ((2, 1, 8), (2, 2, 3), (3, 1, 5), (3, 2, 2), (5, 1, 3), (7, 1, 3), (7, 1, 8),
               (13, 1, 4), (7, 2, 11), (17, 1, 3))]


def _element(draw, top):
    """0, top - 1 (every digit p - 1 when top is the field order) or any."""
    return draw(st.one_of(st.just(0), st.just(top - 1), st.integers(0, top - 1)))


@st.composite
def _map_and_input(draw):
    ctx = draw(st.sampled_from(MAP_FIELDS))
    # a map of the field into itself, or an F_p-valued one such as the trace
    top = ctx.p if draw(st.booleans()) else ctx.order
    images = [_element(draw, top) for _ in range(ctx.k * ctx.n)]
    return ctx, images, _element(draw, ctx.order)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_map_and_input())
def test_apply_map_matches_the_column_oracle(case):
    ctx, images, a = case
    p = ctx.p
    m = ctx._map([_pack(v, p, ctx._W) for v in images])
    wide = (len(images) * (p - 1) ** 2).bit_length()
    want = _unpack(linear_map_by_columns([_pack(v, p, wide) for v in images], a, p), p, wide)
    assert ctx._apply_map(m, a) == want


@pytest.mark.parametrize("spec", [(2, 1, 10), (2, 2, 3), (2, 1, 63), (3, 1, 5), (7, 2, 11)], ids=str)
def test_columns_of_a_map_are_its_columns(spec):
    # for p = 2 a last table of 2^r entries holds the last r columns (kn = 10
    # and 6 are not multiples of 8, and 63 is the widest k = 1 field); any
    # number of columns, the fold's included, and columns with every digit
    # p - 1
    ctx, rng = build_field(*spec), random.Random(19)
    p, kn = ctx.p, ctx.k * ctx.n
    for count in (0, 1, kn - 1, kn, kn + 9):
        cols = [_pack(rng.choice([ctx.order - 1, rng.randrange(ctx.order)]), p, ctx._W) for _ in range(count)]
        m = ctx._map(cols)
        if p == 2:
            assert [len(table) for table in m] == [256] * (count // 8) + [2 ** (count % 8)] * (count % 8 > 0)
            assert all(isinstance(table, array) for table in m)
        assert ctx._columns(m) == cols
    if p == 2:  # columns past 64 bits, as the product layout has for k > 1, make lists
        cols = [rng.getrandbits(70) for _ in range(kn)]
        m = ctx._map(cols)
        assert not any(isinstance(table, array) for table in m) and ctx._columns(m) == cols


# the ring of each applier: p = 2, odd p with 8-bit slots (budget 63 and 6),
# a tower, and 16-bit slots
APPLY_RINGS = [_packed(SmallField(*spec)) for spec in ((2, 1), (3, 1), (7, 1), (7, 2), (17, 1))]


@pytest.mark.parametrize("ring", APPLY_RINGS, ids=lambda ring: f"F_{ring.q}")
def test_packed_apply_adds_the_total(ring):
    # polyfq._Packed._apply with a nonzero total against the column oracle
    # plus that total, on both sides of its one-sum threshold (the digits of
    # the input summing to at most budget·(p - 1), or more), with inputs,
    # columns and totals whose every digit is p - 1
    p, W, rng = ring.p, ring.W, random.Random(20)
    budget = getattr(ring, "budget", 8)  # p = 2 sums by XOR: 8 splits sparse from dense inputs
    n, top = 2 * budget + 3, p**4  # n slots of input, columns of 4 digits
    cases = [(p**n - 1, [top - 1] * n, top - 1)]  # every digit p - 1: above the threshold
    for _ in range(10):
        cols = [rng.choice([top - 1, rng.randrange(top)]) for _ in range(n)]
        cases.append((rng.randrange(p**n), cols, rng.randrange(top)))
        cases.append((rng.randrange(p**budget), cols, rng.choice([top - 1, rng.randrange(top)])))
    sides = set()
    for a, cols, total in cases:
        h = _pack(a, p, W)
        sides.add(_digit_sum(a, p) <= budget * (p - 1))
        wide = ((n + 1) * (p - 1) ** 2).bit_length()  # a sum of packed vectors: XOR for p = 2
        want = _unpack(linear_map_by_columns([_pack(c, p, wide) for c in cols], a, p) + _pack(total, p, wide),
                       p, wide) if p > 2 else linear_map_by_columns(cols, a, p) ^ total
        got = ring._apply(h, [_pack(c, p, W) for c in cols], _pack(total, p, W))
        assert _unpack(got, p, W) == want, (a, cols, total)
    assert sides == {True, False}


def _digit_sum(a, p):
    """The sum of the base-p digits of a."""
    total = 0
    while a:
        a, d = divmod(a, p)
        total += d
    return total


# the map fields up to the table cap 2^20, above which no field is
# tabulated, one with 2-byte digit slots (p = 257) and one with more columns
# than the 2^14 records of _span's first table take (2^1:16)
SPAN_FIELDS = ([ctx for ctx in MAP_FIELDS if ctx.order <= 2**20]
               + [build_field(257, 1, 2), build_field(2, 1, 16)])


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
