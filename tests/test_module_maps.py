"""The F_q[x]-module action as maps: r∘ of a fixed r, by its one route
(the quotient by S = Σ_{j < p^e} x^(cj) after the trace to F_{q^c} where S
divides r mod x^n - 1, else r itself), and the maps of the divisors of
x^n - 1, against the Horner form apply_linearized, in value and in op_count
charge; and the rank test of normality against the divisor test."""

import random

import pytest

from pnfield import characters as ch
from pnfield.claims import enumerate_field_specs
from pnfield.field import _pack, build_field
from pnfield.polyfq import _split_p_part, poly_mul, x_pow_n_minus_1
from test_field import LARGE_Q_FIELDS, POLY_PATH_FIELDS

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _table_path(spec):
    ctx = build_field(*spec)
    ctx.ensure_tables()
    return ctx


# the polynomial path, fields with q > 16, and three fields on the exp/log
# tables, where a Frobenius image is a lookup and charges nothing
MODULE_FIELDS = (POLY_PATH_FIELDS + [build_field(*spec) for spec in LARGE_Q_FIELDS]
                 + [_table_path(spec) for spec in ((2, 1, 4), (3, 1, 3), (2, 2, 2))])


def _elements(draw, ctx):
    return draw(st.one_of(st.just(0), st.just(1), st.integers(0, ctx.order - 1)))


@st.composite
def _polynomial_and_element(draw):
    ctx = draw(st.sampled_from(MODULE_FIELDS))
    if draw(st.integers(0, 9)) == 0:
        r = x_pow_n_minus_1(ctx.fq, ctx.n)
    else:
        deg = draw(st.integers(0, ctx.n + 1))
        r = tuple(draw(st.lists(st.integers(0, ctx.q - 1), min_size=deg, max_size=deg)))
        r += (draw(st.integers(1, ctx.q - 1)),)
    return ctx, r, _elements(draw, ctx)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_polynomial_and_element())
def test_module_map_equals_horner(case):
    ctx, r, a = case
    before = ctx.op_count
    want = ctx.apply_linearized(r, a)
    charged = ctx.op_count - before
    m = ctx._module_map(r)
    assert ctx.op_count == before + charged  # building the map is uncounted
    assert ctx._apply_map(m, a) == want
    assert ctx._module_charge(r, a) == charged


def _spec_id(spec):
    return "%d^%d:%d" % spec


@pytest.mark.parametrize("spec", [(2, 1, 4), (2, 1, 8), (3, 1, 6), (3, 1, 9), (2, 2, 4), (5, 1, 5), (2, 1, 24)],
                         ids=_spec_id)
def test_module_map_of_a_multiple_of_the_trace_equals_horner(spec):
    # r = S·h with deg h < c takes the quotient route: h on the orbit of c
    ctx = build_field(*spec)
    rng = random.Random(32)
    c = _split_p_part(ctx.n, ctx.p)[0]
    s = tuple(int(i % c == 0) for i in range(ctx.n - c + 1))
    elements = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(8)]
    for _ in range(8):
        r = poly_mul(ctx.fq, s, tuple(rng.randrange(ctx.q) for _ in range(c)))
        m = ctx._module_map(r)
        assert [ctx._apply_map(m, a) for a in elements] == [ctx.apply_linearized(r, a) for a in elements], r


@pytest.mark.parametrize("spec", [(2, 1, 8), (3, 1, 6), (2, 1, 5), (5, 1, 10), (3, 2, 3), (2, 1, 1)], ids=_spec_id)
def test_module_map_grows_no_orbit_past_its_period(spec):
    # r is reduced mod x^n - 1 first, so the orbit of c holds at most c
    # images of each unit vector, however far r reaches
    ctx = build_field(*spec)
    rng = random.Random(33)
    for deg in (ctx.n, 2 * ctx.n + 1, 3 * ctx.n):
        r = tuple(rng.randrange(ctx.q) for _ in range(deg)) + (1,)
        m = ctx._module_map(r)
        for a in [1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(6)]:
            assert ctx._apply_map(m, a) == ctx.apply_linearized(r, a), (r, a)
    assert ctx._orbits
    assert all(len(cols) <= ctx.k * c for c, orbit in ctx._orbits.items() for cols in orbit)


@pytest.mark.parametrize("spec", enumerate_field_specs(4, 2**10), ids=_spec_id)
def test_every_divisor_map_has_the_columns_of_horner(spec):
    ctx = build_field(*spec)
    p, W, fact = ctx.p, ctx._W, ctx.add_factorization
    for exps in fact.exponent_vectors():
        d = fact.divisor(exps)
        want = [_pack(ctx.apply_linearized(d, p**e), p, W) for e in range(ctx.k * ctx.n)]
        assert ctx._columns(ctx._divisor_map(exps)) == want, exps


@st.composite
def _divisor_and_element(draw):
    ctx = draw(st.sampled_from(MODULE_FIELDS))
    top = ctx.add_factorization.exponents()
    exps = tuple(draw(st.integers(0, e)) for e in top)
    return ctx, draw(st.sampled_from([exps, top, (0,) * len(top)])), _elements(draw, ctx)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_divisor_and_element())
def test_divisor_action_equals_horner(case):
    # the top vector is x^n - 1 itself, the zero vector the constant 1
    ctx, exps, a = case
    d = ctx.add_factorization.divisor(exps)
    before = ctx.op_count
    want = ctx.apply_linearized(d, a)
    charged = ctx.op_count - before
    assert ctx.divisor_action(exps, a) == want
    assert ctx.op_count == before + 2 * charged


@pytest.mark.parametrize("ctx", POLY_PATH_FIELDS[:6] + MODULE_FIELDS[-3:], ids=repr)
def test_compose_applies_the_inner_map_first(ctx):
    # "times g" and Frobenius do not commute, so an outer map applied first
    # gives g^q·α^q instead of g·α^q; the columns of the composite are
    # g·Frob(p^d), each normalized
    p, W = ctx.p, ctx._W
    rng = random.Random(16)
    g = rng.randrange(2, ctx.order)
    units = [p**d for d in range(ctx.k * ctx.n)]
    times_g = ctx._map([_pack(ctx._mul_poly(g, u), p, W) for u in units])
    composed = ctx._compose(times_g, ctx._module_map((0, 1)))
    assert ctx._columns(composed) == [_pack(ctx._mul_poly(g, ctx.frobenius(u)), p, W) for u in units]
    for a in [1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(10)]:
        assert ctx._apply_map(composed, a) == ctx._mul_poly(g, ctx.frobenius(a)), a


@pytest.mark.parametrize("spec", [(3, 1, 14), (2, 4, 8), (7, 2, 11), (2, 1, 4)], ids=str)
def test_second_is_normal_makes_no_apply_linearized_call(spec):
    ctx = build_field(*spec)
    if ctx.order < 2**10:
        ctx.ensure_tables()
    ctx.is_normal(5)
    calls = []
    horner = ctx.apply_linearized
    ctx.apply_linearized = lambda r, a: calls.append(r) or horner(r, a)
    try:
        for a in range(6, min(40, ctx.order)):
            ctx.is_normal(a)
    finally:
        del ctx.apply_linearized
    assert calls == []


@pytest.mark.parametrize("ctx", MODULE_FIELDS, ids=repr)
def test_rank_test_rejects_every_image_of_a_factor(ctx):
    # r∘β lies in the kernel of the cofactor (x^n - 1)/r, so it is never
    # normal; the rank test must see that without the cofactor maps
    rng = random.Random(17)
    fact = ctx.add_factorization
    for r, _ in fact.entries:
        for _ in range(4):
            a = ctx.apply_linearized(r, rng.randrange(ctx.order))
            assert not ctx.is_normal(a, method="rank"), (r, a)
    for a in [rng.randrange(1, ctx.order) for _ in range(20)] + [ctx.order - 1]:
        assert ctx.is_normal(a, method="rank") == ctx.is_normal(a), a


def test_indicator_normal_df_tests_eta_once():
    ctx = _table_path((3, 1, 3))
    tau = ctx.reference_tau
    calls = []
    test = ctx.is_normal
    ctx.is_normal = lambda a, method="divisor": calls.append(a) or test(a, method)
    try:
        total = sum(ch.indicator_normal_df(ctx, a, tau) for a in range(1, ctx.order))
        for _ in range(2):
            with pytest.raises(ValueError):
                ch.indicator_normal_df(ctx, 1, 1)  # η = 1 is not normal
    finally:
        del ctx.is_normal
    assert total == sum(ctx.is_normal(a) for a in range(1, ctx.order))
    assert calls == [tau, 1, 1]
