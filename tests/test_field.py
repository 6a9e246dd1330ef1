"""Field tower construction, element arithmetic, orders, and element tests."""

import random

import pytest

from pnfield.claims import enumerate_field_specs
from pnfield.counting import exact_counts
from pnfield.errors import ResourceLimitError
from pnfield.field import build_field, get_field, parse_field_spec
from pnfield.numtheory import euler_phi
from pnfield.polyfq import poly_mul, poly_phi, poly_trim

from bruteforce import (
    dlog_by_scan,
    normal_by_det_n2,
    normal_by_span,
    order_by_powering,
    primitive_by_powering,
)

SMALL_FIELDS = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 2, 2)]


def test_build_field_examples():
    f4 = get_field(2, 1, 2)
    assert f4.ext_modulus == (1, 1, 1)  # the only monic irreducible quadratic over F_2
    f3 = get_field(3, 1, 1)
    assert f3.ext_modulus == (0, 1)  # canonical degree-1 choice is x itself
    f16 = get_field(2, 2, 2)
    assert f16.order == 16 and f16.q == 4


def test_build_field_validation():
    with pytest.raises(ValueError):
        build_field(4, 1, 2)  # 4 is not prime
    with pytest.raises(ValueError):
        build_field(2, 1, 2, ext_modulus=(1, 0, 1))  # (x+1)^2 reducible
    with pytest.raises(ResourceLimitError):
        build_field(2, 1, 64)  # exceeds the 2^63 cap


def test_frobenius_examples():
    f4 = get_field(2, 1, 2)
    assert f4.frobenius(2, 1) == 3  # α² = α + 1
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        assert ctx.frobenius(0, 1) == 0
        for c in range(ctx.q):
            assert ctx.frobenius(ctx.embed_base(c), 1) == ctx.embed_base(c)
        for a in range(ctx.order):
            assert ctx.frobenius(a, n) == a


def test_frobenius_is_automorphism():
    rng = random.Random(11)
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        for _ in range(200):
            a = rng.randrange(ctx.order)
            b = rng.randrange(ctx.order)
            assert ctx.frobenius(ctx.add(a, b)) == ctx.add(ctx.frobenius(a), ctx.frobenius(b))
            assert ctx.frobenius(ctx.mul(a, b)) == ctx.mul(ctx.frobenius(a), ctx.frobenius(b))


def test_trace_norm_examples():
    f4 = get_field(2, 1, 2)
    assert f4.trace(2) == 1  # tr(α) = α + α² = 1
    assert f4.trace(0) == 0
    assert f4.norm(2) == 1  # N(α) = α·α² = α³ = 1
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        assert {ctx.trace(a) for a in range(ctx.order)} == set(range(p))
        rng = random.Random(5)
        for _ in range(100):
            a, b = rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)
            assert ctx.norm(ctx.mul(a, b)) == ctx.norm(a) * ctx.norm(b) % p
            assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % p


def test_apply_linearized_examples():
    f4 = get_field(2, 1, 2)
    assert f4.apply_linearized((1, 1), 2) == 1  # α² + α = 1
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        xn1 = [0] * (n + 1)
        xn1[0] = ctx.fq.neg(1)
        xn1[n] = 1
        for a in range(ctx.order):
            assert ctx.apply_linearized((1,), a) == a
            assert ctx.apply_linearized(poly_trim(xn1), a) == 0


def test_linearized_module_action_associative():
    rng = random.Random(23)
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        for _ in range(100):
            r = poly_trim(rng.randrange(ctx.q) for _ in range(n))
            s = poly_trim(rng.randrange(ctx.q) for _ in range(n))
            a = rng.randrange(ctx.order)
            assert ctx.apply_linearized(poly_mul(ctx.fq, r, s), a) == ctx.apply_linearized(
                r, ctx.apply_linearized(s, a)
            )


def test_multiplicative_order_examples():
    f4 = get_field(2, 1, 2)
    assert f4.multiplicative_order(1) == 1
    assert f4.multiplicative_order(2) == 3
    f8 = get_field(2, 1, 3)
    for a in range(2, 8):
        assert f8.multiplicative_order(a) == 7
    with pytest.raises(ValueError):
        f4.multiplicative_order(0)


def test_multiplicative_order_against_powering():
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        for a in range(1, ctx.order):
            assert ctx.multiplicative_order(a) == order_by_powering(ctx, a)


def test_additive_order_examples():
    f4 = get_field(2, 1, 2)
    assert f4.additive_order(1) == (1, 1)  # x + 1
    assert f4.additive_order(2) == (1, 0, 1)  # x² - 1
    assert f4.additive_order(0) == (1,)  # the constant 1


def test_additive_order_minimality():
    from pnfield.polyfq import poly_divmod

    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        for a in range(ctx.order):
            d = ctx.additive_order(a)
            assert ctx.apply_linearized(d, a) == 0
            full = [0] * (n + 1)
            full[0] = ctx.fq.neg(1)
            full[n] = 1
            assert not poly_divmod(ctx.fq, poly_trim(full), d)[1]  # d | x^n - 1
            for factor, _ in ctx.add_factorization.entries:
                quot, rem = poly_divmod(ctx.fq, d, factor)
                if not rem:
                    assert ctx.apply_linearized(quot, a) != 0


def test_is_primitive_matches_powering():
    f4 = get_field(2, 1, 2)
    assert f4.is_primitive(2)
    assert not f4.is_primitive(1)
    f8 = get_field(2, 1, 3)
    assert f8.is_primitive(f8.parse_element("1,1"))  # α with α³ = α+1? any non-F2 element
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        for a in range(1, ctx.order):
            assert ctx.is_primitive(a) == primitive_by_powering(ctx, a)


def test_is_normal_both_methods_and_span_oracle():
    f4 = get_field(2, 1, 2)
    assert f4.is_normal(2)
    assert not f4.is_normal(1)
    assert not f4.is_normal(0)
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        for a in range(ctx.order):
            div = ctx.is_normal(a)
            assert div == ctx.is_normal(a, method="rank")
            if ctx.order <= 81:
                assert div == normal_by_span(ctx, a)
            if n == 2:
                assert div == normal_by_det_n2(ctx, a)


def test_trace_zero_blocks_normality():
    # the x-1 cofactor of the divisor test is the trace map when q = p
    f8 = get_field(2, 1, 3)
    for a in range(8):
        if f8.trace(a) == 0:
            assert not f8.is_normal(a)


def test_counts_match_formulas():
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        normals = sum(1 for a in range(ctx.order) if ctx.is_normal(a))
        prims = sum(1 for a in range(1, ctx.order) if ctx.is_primitive(a))
        assert normals == poly_phi(ctx.add_factorization)
        assert prims == euler_phi(ctx.order - 1)


def test_reference_tau_examples():
    assert get_field(2, 1, 2).reference_tau == 2  # α itself
    f8 = get_field(2, 1, 3)
    tau8 = f8.reference_tau
    normals = [a for a in range(8) if f8.is_normal(a)]
    assert tau8 == normals[0] == 3
    f9 = get_field(3, 1, 2)
    assert f9.reference_tau == 4  # first primitive-normal successor of the root i


def test_reference_tau_is_first_witness():
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        tau = ctx.reference_tau
        assert ctx.is_primitive(tau) and ctx.is_normal(tau)
        for a in range(1, tau):
            assert not (ctx.is_primitive(a) and ctx.is_normal(a))


def test_degree_one_towers():
    # n = 1 plumbing: every nonzero element is normal
    for p in (2, 3, 5):
        ctx = get_field(p, 1, 1)
        for a in range(1, p):
            assert ctx.is_normal(a)
        assert not ctx.is_normal(0)


def test_exp_log_table_consistency():
    for p, k, n in SMALL_FIELDS:
        ctx = get_field(p, k, n)
        ctx.ensure_tables()
        rng = random.Random(2)
        for _ in range(300):
            a = rng.randrange(ctx.order)
            b = rng.randrange(ctx.order)
            assert ctx.mul(a, b) == ctx._mul_poly(a, b)


def test_whole_field_pass_matches_per_element_tests():
    # the pass runs on one fresh context, the per-element oracle on another
    for p, k, n in enumerate_field_specs(4, 4096):
        ctx = build_field(p, k, n)
        oracle = build_field(p, k, n)
        tau = ctx.reference_tau
        prim, norm = ctx._prim_mask, ctx._norm_mask
        assert len(prim) == len(norm) == ctx.order
        assert prim[0] == norm[0] == 0
        first = None
        for a in range(1, ctx.order):
            is_prim = oracle.is_primitive(a)
            is_norm = oracle.is_normal(a, method="rank")
            assert prim[a] == is_prim, (ctx, a)
            assert norm[a] == is_norm, (ctx, a)
            if first is None and is_prim and is_norm:
                first = a
        assert tau == first, ctx
        ctx.ensure_tables()
        cur = 1
        for i in range(ctx.order - 1):
            assert ctx._exp[i] == cur and ctx._log[cur] == i, (ctx, i)
            cur = oracle._mul_poly(cur, tau)
        assert cur == 1


@pytest.mark.parametrize("spec,counts,tau", [
    ((5, 1, 6), (9216, 2568), 6),
    ((3, 3, 3), (18954, 8748), 732),
])
def test_exact_counts_pinned(spec, counts, tau):
    ctx = build_field(*spec)
    rec = exact_counts(ctx)
    assert rec.num_primitive == euler_phi(ctx.order - 1)
    assert (rec.num_normal, rec.num_primitive_normal) == counts
    assert ctx.reference_tau == tau


def test_element_text_roundtrip():
    f4 = get_field(2, 1, 2)
    assert f4.format_element(2) == "0,1"
    assert f4.parse_element("0,1") == 2
    f16 = get_field(2, 2, 2)
    text = f16.format_element(7)
    assert text == "1/1,1/0"
    assert f16.parse_element(text) == 7


def test_parse_field_spec():
    ctx = parse_field_spec("2^1:2")
    assert (ctx.p, ctx.k, ctx.n) == (2, 1, 2)
    ctx = parse_field_spec("2^2:2")
    assert ctx.q == 4
    ctx = parse_field_spec("2^1:3:0,1:1,1,0,1")
    assert ctx.ext_modulus == (1, 1, 0, 1)
    from pnfield.errors import FieldSpecError

    with pytest.raises(FieldSpecError):
        parse_field_spec("banana")
    with pytest.raises(FieldSpecError):
        parse_field_spec("2^1")  # missing n
    with pytest.raises(FieldSpecError):
        parse_field_spec("2^1:x")


def test_parse_element_errors():
    from pnfield.errors import FieldSpecError

    f4 = get_field(2, 1, 2)
    with pytest.raises(FieldSpecError):
        f4.parse_element("1,0,1")  # too many coordinates
    with pytest.raises(FieldSpecError):
        f4.parse_element("a,b")
    f16 = get_field(2, 2, 2)
    with pytest.raises(FieldSpecError):
        f16.parse_element("9,0")  # coordinate encoding out of range for k > 1


def test_discrete_log_scan_oracle():
    from pnfield.characters import discrete_log, discrete_log_bsgs

    for p, k, n in [(2, 1, 2), (2, 1, 4), (3, 1, 2), (5, 1, 2)]:
        ctx = get_field(p, k, n)
        for a in range(1, ctx.order):
            expected = dlog_by_scan(ctx, a)
            assert discrete_log(ctx, a) == expected
            assert discrete_log_bsgs(ctx, a) == expected
