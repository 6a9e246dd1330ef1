"""Property tests over towers with user-supplied moduli: a base modulus other
than the default wherever F_q has one (F_8, F_16, F_9, F_25) and an extension
modulus other than the default on every tower, each tower both on a cold
context and on one warmed up with its exp/log tables."""

import itertools

import pytest

from bruteforce import order_by_ladder, primitive_by_ladder
from pnfield.field import parse_field_spec
from pnfield.numtheory import factorize
from pnfield.polyfq import first_irreducible, format_poly, is_irreducible
from pnfield.smallfield import SmallField, canonical_field

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# (p, k, n, base modulus or None for the default); n = 1 is left out, as a
# degree-1 extension modulus has no alternative that differs in more than
# the encoding
TOWER_SPECS = [(2, 3, 2, (1, 0, 1, 1)), (2, 4, 3, (1, 0, 0, 1, 1)), (3, 2, 3, (2, 1, 1)),
               (5, 2, 2, (1, 1, 1)), (2, 2, 3, None), (2, 1, 12, None), (3, 1, 6, None), (7, 1, 4, None)]


def _other_irreducible(fq: SmallField, n: int) -> tuple:
    """The first monic irreducible of degree n over F_q, in the order of
    itertools.product over its low coefficients, that is not the default."""
    default = first_irreducible(fq, n)
    return next(f for f in (low + (1,) for low in itertools.product(range(fq.q), repeat=n))
                if f != default and is_irreducible(fq, f))


def _spec(p: int, k: int, n: int, base) -> str:
    fq = canonical_field(p**k) if base is None else SmallField(p, k, modulus=base)
    assert base is None or base != canonical_field(p**k).modulus
    base_text = "" if base is None else format_poly(canonical_field(p), base)
    return f"{p}^{k}:{n}:{base_text}:{format_poly(fq, _other_irreducible(fq, n))}"


def _pair(spec: str):
    """A cold and a warmed-up context of one tower."""
    cold, warm = parse_field_spec(spec), parse_field_spec(spec)
    warm.ensure_tables()
    assert cold is not warm and cold._log is None and warm._log is not None
    return cold, warm


TOWERS = [_pair(_spec(*spec)) for spec in TOWER_SPECS]


@st.composite
def _tower_and_elements(draw, count: int):
    pair = draw(st.sampled_from(TOWERS))
    top = pair[0].order
    return pair, [draw(st.one_of(st.just(0), st.just(1), st.integers(0, top - 1))) for _ in range(count)]


def test_towers_have_the_moduli_asked_for():
    for (cold, _), (p, k, n, base) in zip(TOWERS, TOWER_SPECS):
        assert (cold.p, cold.k, cold.n) == (p, k, n)
        assert cold.ext_modulus != first_irreducible(cold.fq, n)
        assert cold.base_modulus == (canonical_field(p**k).modulus if base is None else base)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_tower_and_elements(3))
def test_field_axioms(case):
    (cold, warm), (a, b, c) = case
    for ctx in (cold, warm):
        add, mul = ctx.add, ctx.mul
        assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
        assert add(a, ctx.neg(a)) == 0 and ctx.sub(add(a, b), b) == a
        if a:
            assert mul(a, ctx.inv(a)) == 1
    assert cold.mul(a, b) == warm.mul(a, b)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_tower_and_elements(3))
def test_frobenius_is_a_ring_automorphism_of_order_n_fixing_f_q(case):
    (cold, warm), (a, b, c) = case
    for ctx in (cold, warm):
        frob = ctx.frobenius
        assert frob(ctx.add(a, b)) == ctx.add(frob(a), frob(b))
        assert frob(ctx.mul(a, b)) == ctx.mul(frob(a), frob(b))
        assert frob(c % ctx.q) == c % ctx.q  # F_q is the coordinate 0
        assert frob(a) == ctx.pow(a, ctx.q)
        cur = a
        for _ in range(ctx.n):
            cur = frob(cur)
        assert cur == a
    assert cold.frobenius(a) == warm.frobenius(a)


@pytest.mark.parametrize("pair", TOWERS, ids=lambda pair: pair[0].spec_string())
def test_frobenius_has_no_smaller_order(pair):
    # x generates F_{q^n} over F_q, so Frob^(n/ℓ) moves it for each prime ℓ | n
    for ctx in pair:
        x = ctx.q
        for ell in factorize(ctx.n).primes():
            assert ctx.frobenius(x, ctx.n // ell) != x


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_tower_and_elements(2), st.integers(0, 100))
def test_trace_is_f_p_linear_into_f_p(case, c):
    (cold, warm), (a, b) = case
    p = cold.p
    for ctx in (cold, warm):
        tr = ctx.trace
        assert 0 <= tr(a) < p
        assert tr(ctx.add(a, b)) == (tr(a) + tr(b)) % p
        assert tr(ctx.mul(c % p, a)) == c * tr(a) % p
        total = 0
        for j in range(ctx.k * ctx.n):
            total = ctx.add(total, ctx.pow(a, p**j))
        assert total == tr(a)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_tower_and_elements(1))
def test_orders_agree_on_both_contexts_and_with_the_ladder(case):
    (cold, warm), (a,) = case
    if a == 0:
        return
    results = []
    for ctx in (cold, warm):
        before = ctx.op_count
        results.append((ctx.is_primitive(a), ctx.multiplicative_order(a), ctx.op_count - before))
    assert results[0] == results[1]
    assert results[0][:2] == (primitive_by_ladder(cold, a), order_by_ladder(cold, a))
