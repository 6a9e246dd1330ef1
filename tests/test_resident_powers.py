"""Powers resident in the product layout: products, pow, inv, norm, the
multiplicative order and is_primitive on the polynomial path against the
schoolbook and ladder oracles of tests/bruteforce.py, in value and in
op_count charge, and against the exp/log tables where a field has them.

The draws include 0, 1, -1 and the element whose every F_p digit is p - 1,
which makes the largest slot sums of a raw product and of the fold (the cut
planes of 7^1:8, 7^2:11 and 13^1:4, and for k > 1 the fold sums of 3^2:5,
5^2:6 and 7^2:11, which pass 8 bits before they are normalized)."""

import pytest

from bruteforce import frobenius_by_powering, linear_map_by_columns, power_by_ladder, schoolbook_mul
from pnfield.field import _pack, _unpack, build_field
from test_field import BASE_Q_FIELDS, LARGE_Q_FIELDS, POLY_PATH_FIELDS

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# and two fields of degree n = 1, where the fold of 5^1:1 has no slot at all
FIELDS = POLY_PATH_FIELDS + [build_field(*spec) for spec in BASE_Q_FIELDS + LARGE_Q_FIELDS
                             + [(5, 1, 1), (3, 2, 1)]]


def _twin(ctx):
    """A context of the same field on its exp/log tables, or None above the
    table cap (and for the fields with a user modulus, whose tables would
    be another field's)."""
    if ctx.order > 2**16 or ctx is POLY_PATH_FIELDS[-1]:
        return None
    twin = build_field(ctx.p, ctx.k, ctx.n)
    twin.ensure_tables()
    return twin


TWINS = {id(ctx): _twin(ctx) for ctx in FIELDS}


def _element(draw, ctx, nonzero=False):
    minus_one = ctx.p - 1 if ctx.p > 2 else 1
    special = [1, minus_one, ctx.order - 1] + ([] if nonzero else [0])
    return draw(st.one_of(st.sampled_from(special), st.integers(1 if nonzero else 0, ctx.order - 1)))


def _charged(ctx, fn, *args):
    before = ctx.op_count
    value = fn(*args)
    return value, ctx.op_count - before


def _ladder_tests(ctx, a, exponents):
    """For each exponent e in turn, whether α^e = 1 by the ladder oracle."""
    return [power_by_ladder(ctx, a, e) == 1 for e in exponents]


@st.composite
def _field_and_pair(draw):
    ctx = draw(st.sampled_from(FIELDS))
    return ctx, _element(draw, ctx), _element(draw, ctx)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_field_and_pair())
def test_product_matches_schoolbook(case):
    ctx, a, b = case
    assert ctx._mul_poly(a, b) == schoolbook_mul(ctx, a, b)
    twin = TWINS[id(ctx)]
    if twin is not None:
        assert ctx._mul_poly(a, b) == twin.mul(a, b)


@st.composite
def _field_element_exponent(draw):
    ctx = draw(st.sampled_from(FIELDS))
    m = ctx.order - 1
    special = [0, 1, ctx.q, m - 1, m] + [m // r for r in ctx.mult_factorization.primes()]
    e = draw(st.one_of(st.sampled_from(special), st.integers(0, 2 * m)))
    return ctx, _element(draw, ctx), e


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_field_element_exponent())
def test_pow_inv_and_norm_match_the_ladder(case):
    ctx, a, e = case
    got, charge = _charged(ctx, ctx.pow, a, e)
    assert charge == 1
    assert got == (power_by_ladder(ctx, a, e % (ctx.order - 1)) if a else int(e == 0))
    norm, charge = _charged(ctx, ctx.norm, a)
    assert charge == (1 if a else 0)
    want = power_by_ladder(ctx, a, (ctx.order - 1) // (ctx.p - 1)) if a else 0
    assert norm == want < ctx.p
    if a:
        inv, charge = _charged(ctx, ctx.inv, a)
        assert charge == 1
        assert schoolbook_mul(ctx, inv, a) == 1
    twin = TWINS[id(ctx)]
    if twin is not None:
        assert _charged(twin, twin.pow, a, e) == (got, 1)
        assert twin.norm(a) == norm


@st.composite
def _field_and_unit(draw):
    ctx = draw(st.sampled_from(FIELDS))
    return ctx, _element(draw, ctx, nonzero=True)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_field_and_unit())
def test_is_primitive_matches_the_ladder_in_value_and_charge(case):
    ctx, a = case
    m = ctx.order - 1
    ones = _ladder_tests(ctx, a, [m // r for r in ctx.mult_factorization.primes()])
    # one charge per prime tested, up to the first power that is 1
    want_charge = ones.index(True) + 1 if True in ones else len(ones)
    got, charge = _charged(ctx, ctx.is_primitive, a)
    assert (got, charge) == (not any(ones), want_charge)
    twin = TWINS[id(ctx)]
    if twin is not None:
        assert _charged(twin, twin.is_primitive, a) == (got, charge)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_field_and_unit())
def test_multiplicative_order_matches_the_ladder_in_value_and_charge(case):
    ctx, a = case
    # the same descent as the definition, each power by the ladder oracle
    d, want_charge = ctx.order - 1, 0
    for r, e in ctx.mult_factorization.entries:
        for _ in range(e):
            want_charge += 1
            if power_by_ladder(ctx, a, d // r) != 1:
                break
            d //= r
    got, charge = _charged(ctx, ctx.multiplicative_order, a)
    assert (got, charge) == (d, want_charge)
    assert power_by_ladder(ctx, a, d) == 1
    assert all(power_by_ladder(ctx, a, d // r) != 1 for r, _ in ctx.mult_factorization.entries if d % r == 0)
    twin = TWINS[id(ctx)]
    if twin is not None:
        assert _charged(twin, twin.multiplicative_order, a) == (got, charge)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_multiplicative_order_shares_one_table_of_digit_powers(ctx):
    tables = []
    inner = ctx._pow_poly

    def recorded(powers, e):
        tables.append(powers)
        return inner(powers, e)

    ctx._pow_poly = recorded
    try:
        ctx.multiplicative_order(ctx.order - 1)
    finally:
        del ctx._pow_poly
    assert tables and all(t is tables[0] for t in tables)


@pytest.mark.parametrize("ctx", [ctx for ctx in FIELDS if ctx.n > 1], ids=repr)
def test_frobenius_step_in_the_product_layout(ctx):
    # Frob^i as a map of the product layout, for the Horner step i = w and
    # the norm steps of is_primitive up to i = n - 1, applied to a vector in
    # that layout and read back, against α^(q^i) by the ladder (by i rounds
    # of q - 1 schoolbook products where q is small); for n = 1 an exponent
    # below q^n - 1 is one digit, so no power takes a step
    assert ctx._step is ctx._frob_layout(ctx._frob_w)
    for i in sorted({1, ctx._frob_w, ctx.n // 2, ctx.n - 1} - {0}):
        for a in (1, ctx.q, ctx.order - 1, ctx.order // 3):
            got = ctx._from_layout(ctx._fold(ctx._frob_layout(i), ctx._to_layout(a)))
            if ctx.q <= 16:
                assert got == frobenius_by_powering(ctx, a, i), (i, a)
            assert got == power_by_ladder(ctx, a, ctx.q**i), (i, a)


@pytest.mark.parametrize("ctx", [ctx for ctx in FIELDS if ctx.p > 2], ids=repr)
def test_fold_normalizes_mid_sum_at_the_worst_case(ctx):
    # a map of the product layout whose every column has every digit p - 1,
    # applied to every digit p - 1 on top of a total with every digit p - 1:
    # the largest sum a fold can meet, which passes a slot of W bits unless
    # it is normalized on the budget
    p, k, n = ctx.p, ctx.k, ctx.n
    slots = (2 * n - 1) * (2 * k - 1) - ctx._low
    top = ctx._to_layout(ctx.order - 1)
    total = _pack(p ** ctx._low - 1, p, ctx._W)
    got = ctx._from_layout(ctx._fold([top] * slots, _pack(p ** slots - 1, p, ctx._W), total))
    wide = ((slots + 1) * (p - 1) ** 2).bit_length()
    want = linear_map_by_columns([_pack(ctx.order - 1, p, wide)] * slots, p ** slots - 1, p)
    assert got == _unpack(want + _pack(p ** ctx._low - 1, p, wide), p, wide)


def test_worst_case_fields_cut_the_raw_product():
    # n·k·(p - 1)^2 passes the budget of an 8-bit slot on these fields, so
    # the properties above run their products plane by plane
    cuts = {ctx.spec_string(): len(ctx._cuts) for ctx in POLY_PATH_FIELDS}
    assert cuts["7^1:8"] == 2 and cuts["7^2:11"] == 4 and cuts["13^1:4"] == 4
    assert cuts["3^1:14"] == cuts["5^1:10"] == 1
