"""Field tower construction, element arithmetic, orders, and element tests."""

import os
import random
import resource
import subprocess
import sys
from array import array

import pytest

from pnfield.claims import enumerate_field_specs
from pnfield.counting import exact_counts
from pnfield.errors import ConsistencyError, ResourceLimitError
from pnfield.field import _pack, _unpack, build_field, get_field, parse_field_spec
from pnfield.numtheory import euler_phi
from pnfield.polyfq import factor_x_n_minus_1, poly_mul, poly_phi, poly_trim
from pnfield.smallfield import canonical_field

from bruteforce import (
    additive_order_by_division,
    coprime_residues_by_gcd,
    dlog_by_scan,
    frobenius_by_powering,
    linear_map_by_columns,
    normal_by_det_n2,
    normal_by_fq_rank,
    normal_by_span,
    normal_image_by_action,
    order_by_powering,
    poly_gcd_by_calls,
    power_by_ladder,
    primitive_by_ladder,
    primitive_by_powering,
    schoolbook_mul,
    trace_by_powering,
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


def test_default_base_modulus_shares_the_cached_factorization():
    # one factorization of x^n - 1 per (q, n), over the one cached F_q, also
    # with a user extension modulus; a user base modulus gets its own
    ctx = build_field(3, 2, 4)
    assert ctx.fq is canonical_field(9)
    assert ctx.add_factorization is factor_x_n_minus_1(9, 4) is build_field(3, 2, 4).add_factorization
    other = build_field(5, 1, 5, ext_modulus=(4, 4, 0, 0, 0, 1))
    assert other.add_factorization is factor_x_n_minus_1(5, 5)
    own = build_field(3, 2, 2, base_modulus=(2, 2, 1))  # x^2 + 2x + 2 over F_3
    assert own.fq is not canonical_field(9) and own.add_factorization.fq is own.fq
    assert own.fq.modulus == (2, 2, 1)


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


@pytest.mark.parametrize("spec", [(3, 2, 2), (3, 2, 3), (2, 3, 3), (5, 1, 3)],
                         ids=lambda s: "%d^%d:%d" % s)
def test_trace_table_matches_definition(spec):
    # the trace map against Σ α^(p^j) summed element by element, on the
    # polynomial path and again once the exp/log tables exist
    ctx = build_field(*spec)
    assert all(ctx.trace(a) == trace_by_powering(ctx, a) for a in range(ctx.order))
    ctx.ensure_tables()
    assert all(ctx.trace(a) == trace_by_powering(ctx, a) for a in range(ctx.order))


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


@pytest.mark.parametrize("p,k,n", [
    (2, 1, 4), (2, 1, 6), (3, 1, 3), (3, 1, 6), (2, 2, 4), (5, 1, 5),  # p | n
    (2, 1, 5), (3, 1, 4), (7, 1, 3), (2, 2, 3),  # p ∤ n
])
def test_additive_order_matches_division_oracle(p, k, n):
    # fresh contexts: the lattice walk makes the same apply_linearized calls
    # on the same polynomials as the division oracle, so the op counts agree
    ctx, oracle = build_field(p, k, n), build_field(p, k, n)
    for a in range(ctx.order):
        assert ctx.additive_order(a) == additive_order_by_division(oracle, a), a
    assert ctx.op_count == oracle.op_count


def test_first_is_normal_builds_only_the_cofactors_chains():
    # x^63 - 1 has 13 distinct factors over F_2: a lattice of 8 192 divisors
    ctx = build_field(2, 1, 63)
    fact = ctx.add_factorization
    assert len(fact.entries) == 13
    ctx.is_normal(3)
    # the zero vector, then at most one chain of 13 entries per cofactor
    assert len(fact._lattice) <= 1 + 13 * 13


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


@pytest.mark.parametrize("p,k,n", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3)])
def test_coprime_s_polys_match_the_gcd_oracle(p, k, n):
    # the units of F_q[x]/(x^n - 1) in encoding order, each tested by the
    # tuple gcd that makes one SmallField call per coefficient
    ctx = get_field(p, k, n)
    xn1 = (ctx.fq.neg(1),) + (0,) * (n - 1) + (1,)
    residues = ((s, poly_trim(ctx.decode(s))) for s in range(1, ctx.order))
    want = [s for s, poly in residues if len(poly_gcd_by_calls(ctx.fq, poly, xn1)) == 1]
    assert ctx._units() == want


UNIT_FIELDS = [(2, 1, 1), (2, 1, 4), (2, 1, 6), (2, 1, 7), (3, 1, 3), (3, 1, 4), (2, 2, 3),
               (5, 1, 3), (3, 2, 2), (7, 1, 2), (2, 3, 3), (2, 1, 12)]


@pytest.mark.parametrize("p,k,n", UNIT_FIELDS)
def test_unit_sieve_matches_the_packed_gcd_oracle(p, k, n):
    ctx = build_field(p, k, n)
    assert [poly_trim(ctx.decode(s)) for s in ctx._units()] == coprime_residues_by_gcd(ctx.fq, n)


@pytest.mark.parametrize("p,k,n", UNIT_FIELDS)
@pytest.mark.parametrize("tables", [True, False], ids=["tables", "poly"])
def test_normal_image_matches_the_action_loop(p, k, n, tables):
    # as a set, in frozenset iteration order, and in op_count charge, with
    # and without the exp/log tables, for the first two normal η
    ctx, oracle = build_field(p, k, n), build_field(p, k, n)
    if tables:
        ctx.ensure_tables()
        oracle.ensure_tables()
    etas = [a for a in range(ctx.order) if ctx.is_normal(a)][:2]
    for eta in etas:
        before, oracle_before = ctx.op_count, oracle.op_count
        got = ctx.normal_image(eta)
        want = normal_image_by_action(oracle, eta)
        assert oracle.is_normal(eta)  # normal_image charges its own is_normal test
        assert got == want and list(got) == list(want)
        assert ctx.op_count - before == oracle.op_count - oracle_before
        assert got == {a for a in range(ctx.order) if ctx.is_normal(a)}


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


# fresh contexts, so that no table built by another test takes over: the
# product and the Frobenius images for p = 2 and odd p, k = 1 and k > 1;
# 5^2:6 and 7^2:11 have the largest slot sums of the fold
POLY_PATH_FIELDS = [
    build_field(2, 1, 24), build_field(2, 1, 40), build_field(2, 4, 8), build_field(3, 1, 14),
    build_field(5, 1, 10), build_field(7, 1, 8), build_field(13, 1, 4), build_field(3, 2, 5),
    build_field(5, 2, 6), build_field(7, 2, 11),
    # x^5 - x - 1, Artin–Schreier irreducible over F_5
    build_field(5, 1, 5, ext_modulus=(4, 4, 0, 0, 0, 1)),
]


def test_user_modulus_field_is_not_default():
    assert POLY_PATH_FIELDS[-1].ext_modulus != get_field(5, 1, 5).ext_modulus


@pytest.mark.parametrize("ctx", POLY_PATH_FIELDS, ids=repr)
def test_frobenius_matches_powering(ctx):
    assert ctx._log is None  # no tables: Frobenius runs on the images
    rng = random.Random(5)
    for a in [1, ctx.q, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(3)]:
        cur = a
        for i in range(ctx.n + 1):
            assert ctx.frobenius(a, i) == cur, (a, i)
            cur = frobenius_by_powering(ctx, cur, 1)


@pytest.mark.parametrize("ctx", POLY_PATH_FIELDS, ids=repr)
def test_rank_test_matches_the_divisor_test_and_the_oracle(ctx):
    # the rank test keeps the orbit in the product layout; it must agree with
    # the divisor test and with elimination over F_q on the orbit by
    # powering, and charge the n frobenius calls it stands for.  r∘β is
    # never normal for a factor r of x^n - 1.
    assert ctx._log is None
    rng = random.Random(25)
    elements = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(3)]
    elements += [ctx.apply_linearized(r, rng.randrange(1, ctx.order)) for r, _ in ctx.add_factorization.entries[:2]]
    for a in elements:
        before = ctx.op_count
        rank = ctx.is_normal(a, method="rank")
        assert ctx.op_count - before == (ctx.n if a else 0), a
        assert rank == ctx.is_normal(a) == normal_by_fq_rank(ctx, a), a


@pytest.mark.parametrize("ctx", POLY_PATH_FIELDS, ids=repr)
def test_mul_poly_matches_schoolbook(ctx):
    rng = random.Random(6)
    top = ctx.order - 1
    pairs = [(top, top), (top, 1), (ctx.q, ctx.q ** (ctx.n - 1))]
    pairs += [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(400)]
    for a, b in pairs:
        assert ctx._mul_poly(a, b) == schoolbook_mul(ctx, a, b), (a, b)
    if ctx.k > 1:
        return
    # prime coefficient fields: also against sympy's dense (high first) lists
    gt = pytest.importorskip("sympy.polys.galoistools")
    zz = pytest.importorskip("sympy.polys.domains").ZZ
    p, n = ctx.p, ctx.n
    f = list(reversed(ctx.ext_modulus))
    for a, b in pairs:
        fa, fb = ctx.decode(a)[::-1], ctx.decode(b)[::-1]
        rem = gt.gf_rem(gt.gf_mul(fa, fb, p, zz), f, p, zz)
        coords = [int(c) for c in reversed(rem)] + [0] * n
        assert ctx._mul_poly(a, b) == ctx.encode(coords[:n]), (a, b)


def _assert_map(ctx, m):
    """A map from _map: for p = 2 XOR tables of a byte of slots, arrays('Q')
    if every entry of the map fits in 64 bits (always for k = 1 under the
    2^63 cap), and for odd p its packed columns, so no table has p entries."""
    if ctx.p == 2:
        assert all(len(table) <= 256 for table in m)
        wide = any(max(table) >> 64 for table in m)
        assert all(isinstance(table, array) is not wide for table in m)
    else:
        assert all(isinstance(col, int) for col in m)


@pytest.mark.parametrize("ctx", POLY_PATH_FIELDS, ids=repr)
def test_maps_match_the_column_oracle(ctx):
    # each F_p-linear map of the one kernel (_map, applied by _fold), with
    # columns from the schoolbook oracles: Frob^1 and Frob^w (as the module
    # maps of x and x^w) and "times g"; Frob^1 and Frob^w as maps of the
    # product layout, whose column for slot j(2k - 1) + t is Frob(x^j·y^t)
    # for t < k and 0 otherwise; and the fold of a raw product in the product
    # layout, whose column for slot s(2k - 1) + u is x^s·y^u mod (f, m).  An
    # input with every digit p - 1 makes the largest slot sums, and the
    # oracle packs its columns in slots wide enough for any sum, so a map
    # whose slots overflow does not match.
    p, k, n, W = ctx.p, ctx.k, ctx.n, ctx._W
    rng = random.Random(11)
    elements = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(30)]
    g = rng.randrange(2, ctx.order)
    units = [p**d for d in range(k * n)]
    times_g = [schoolbook_mul(ctx, g, u) for u in units]
    ctx._ensure_red()
    fold = []
    for slot in range(ctx._low, (2 * n - 1) * (2 * k - 1)):
        s, u = divmod(slot, 2 * k - 1)
        s1, u1 = min(s, n - 1), min(u, k - 1)
        fold.append(schoolbook_mul(ctx, p ** (s1 * k + u1), p ** ((s - s1) * k + u - u1)))
    fold_inputs = [0, 1, p ** len(fold) - 1] + [rng.randrange(p ** len(fold)) for _ in range(30)]
    _assert_map(ctx, ctx._red)
    wide = (len(fold) * (p - 1) ** 2).bit_length()
    cols = [_pack(v, p, wide) for v in fold]
    for a in fold_inputs:
        want = _unpack(linear_map_by_columns(cols, a, p), p, wide)
        assert ctx._from_layout(ctx._fold(ctx._red, _pack(a, p, ctx._W))) == want, a
    w = ctx._frob_w
    frob = {i: [frobenius_by_powering(ctx, u, i) for u in units] for i in (1, w)}
    for i, images in frob.items():
        it = iter(images)
        want = [ctx._to_layout(next(it)) if t < k else 0 for _ in range(n) for t in range(2 * k - 1)]
        _assert_map(ctx, ctx._frob_layout(i))
        assert ctx._columns(ctx._frob_layout(i)) == want, i
    # the worst case of the maps' slot sums: kn columns, each with every
    # digit p - 1
    worst = [ctx.order - 1] * (k * n)
    maps = [
        (ctx._module_map((0, 1)), frob[1], elements),
        (ctx._module_map((0,) * w + (1,)), frob[w], elements),
        (ctx._map([_pack(v, p, W) for v in times_g]), times_g, elements),
        (ctx._map([_pack(v, p, W) for v in worst]), worst, [p ** len(worst) - 1]),
    ]
    for m, images, inputs in maps:
        _assert_map(ctx, m)
        assert ctx._columns(m) == [_pack(v, p, W) for v in images]
        wide = (len(images) * (p - 1) ** 2).bit_length()
        cols = [_pack(v, p, wide) for v in images]
        for a in inputs:
            want = _unpack(linear_map_by_columns(cols, a, p), p, wide)
            assert ctx._apply_map(m, a) == want, a


def test_is_primitive_normal_op_count_pinned():
    # pnfield op counts are part of the search output: a polynomial-path
    # Frobenius counts as the one power it replaces, and the precomputed
    # images and packed rows count nothing
    for spec, ops, hits in (((3, 1, 14), 702, 6), ((2, 1, 40), 1040, 5)):
        ctx = build_field(*spec)
        elements = random.Random(20261018).sample(range(1, ctx.order), 25)
        before = ctx.op_count
        assert sum(ctx.is_primitive_normal(a) for a in elements) == hits
        assert ctx.op_count - before == ops, spec


# fields for the base-Q exponentiation: Q = q^w with w capped by n (2^1:2,
# 2^1:3), Q = 16, 9 and q; and q > 16, where only the digits met are built
BASE_Q_FIELDS = [(2, 1, 2), (2, 1, 3), (2, 1, 24), (2, 1, 40), (2, 4, 8), (3, 1, 14),
                 (5, 1, 10), (7, 1, 8), (13, 1, 4), (3, 2, 5)]
LARGE_Q_FIELDS = [(17, 1, 7), (257, 1, 4), (65537, 1, 2)]


def _count_products(ctx, fn, *args):
    """fn(*args) and the number of products (ctx._product calls, which
    ctx._mul_poly makes one of) it made."""
    calls = 0
    inner = ctx._product

    def counted(a, b):
        nonlocal calls
        calls += 1
        return inner(a, b)

    ctx._product = counted
    try:
        return fn(*args), calls
    finally:
        del ctx._product


@pytest.mark.parametrize("spec", BASE_Q_FIELDS + LARGE_Q_FIELDS, ids=str)
def test_pow_and_is_primitive_match_the_ladder(spec):
    ctx = build_field(*spec)
    assert ctx._log is None
    m = ctx.order - 1
    rng = random.Random(8)
    elements = rng.sample(range(2, ctx.order), min(m - 1, 6)) + [1, m]
    # one is_primitive call makes no more products than the ladder oracle:
    # the first call on the fresh context also builds the Frobenius images
    for a in elements:
        got, products = _count_products(ctx, ctx.is_primitive, a)
        want, ladder_products = _count_products(ctx, primitive_by_ladder, ctx, a)
        assert got == want, a
        assert products <= ladder_products, (a, products, ladder_products)
    exponents = [0, 1, ctx.q - 1, ctx.q, m - 1]
    exponents += [m // r for r in ctx.mult_factorization.primes()]
    exponents += [rng.randrange(m) for _ in range(4)]

    def schoolbook(x, y):
        return schoolbook_mul(ctx, x, y)

    for i, a in enumerate(elements):
        for e in exponents:
            got = ctx.pow(a, e)
            assert got == power_by_ladder(ctx, a, e), (a, e)
            if i < 3:
                assert got == power_by_ladder(ctx, a, e, schoolbook), (a, e)
    # every map built on the way is small; for q > 16 a q-entry table would
    # not fit at all
    for m in list(ctx._frob_layouts.values()) + [ctx._red, ctx._step]:
        _assert_map(ctx, m)


def test_field_with_p_near_2_to_31():
    # in a child process capped at 1 GiB of address space and 120 s, since a
    # p-entry table here would have 2^31 entries
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import test_field; test_field.check_field_with_p_near_2_to_31()"
    subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=cap, timeout=120, check=True)


def check_field_with_p_near_2_to_31():
    # p = 2^31 - 1, n = 2: Frobenius is x -> -c1 - x for the modulus
    # x^2 + c1·x + c0, and a product reduces x^2 to -c1·x - c0
    p = 2**31 - 1
    ctx = build_field(p, 1, 2)
    c0, c1, _ = ctx.ext_modulus
    rng = random.Random(31)
    for _ in range(5):
        a0, a1, b0, b1 = (rng.randrange(p) for _ in range(4))
        assert ctx.frobenius(a0 + a1 * p) == (a0 - a1 * c1) % p + (-a1 % p) * p
        top = a1 * b1
        want = [(a0 * b0 - top * c0) % p, (a0 * b1 + a1 * b0 - top * c1) % p]
        assert ctx._mul_poly(a0 + a1 * p, b0 + b1 * p) == ctx.encode(want)
    a = 5 + 7 * p
    assert ctx._mul_poly(ctx.pow(a, ctx.order - 2), a) == 1
    assert ctx.is_primitive(a) == primitive_by_ladder(ctx, a)
    for m in list(ctx._frob_layouts.values()) + [ctx._red]:
        _assert_map(ctx, m)


def _assert_exp_log_tables(ctx, oracle):
    """exp[i] = τ^i and log[τ^i] = i, against products on a fresh context."""
    ctx.ensure_tables()
    tau, cur = ctx.reference_tau, 1
    for i in range(ctx.order - 1):
        assert ctx._exp[i] == cur and ctx._log[cur] == i, (ctx, i)
        cur = oracle._mul_poly(cur, tau)
    assert cur == 1


def test_whole_field_pass_matches_per_element_tests():
    # the pass runs on one fresh context, the per-element oracle on another
    for p, k, n in enumerate_field_specs(4, 4096):
        ctx = build_field(p, k, n)
        oracle = build_field(p, k, n)
        tau = ctx.reference_tau
        prim, norm = ctx.class_masks()
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
        _assert_exp_log_tables(ctx, oracle)


@pytest.mark.parametrize("spec", [(3, 3, 3), (2, 2, 7)], ids=str)
def test_whole_field_pass_tables_on_census_fields(spec):
    # the powers of g come from the whole-field table of "times g" (_span),
    # one index per power
    _assert_exp_log_tables(build_field(*spec), build_field(*spec))


SPAN_FIELDS = [(2, 1, 10), (3, 1, 7), (3, 3, 2), (5, 1, 5), (7, 1, 4), (13, 1, 4), (13, 2, 2),
               (17, 1, 3), (61, 1, 2), (257, 1, 2)]


@pytest.mark.parametrize("spec", SPAN_FIELDS, ids=str)
def test_span_matches_the_map_kernel_at_every_element(spec):
    # _span tabulates at every element what _apply_map computes at one: for
    # "times g" of a seeded g, and for kn columns with every digit p - 1,
    # whose sums are the largest
    ctx = build_field(*spec)
    p, kn = ctx.p, ctx.k * ctx.n
    g = random.Random(18).randrange(2, ctx.order)
    for cols in ([ctx._mul_poly(g, p**d) for d in range(kn)], [ctx.order - 1] * kn):
        table = ctx._span(cols)
        m = ctx._map([_pack(c, p, ctx._W) for c in cols])
        assert len(table) == ctx.order
        assert all(table[a] == ctx._apply_map(m, a) for a in range(ctx.order)), (ctx, cols)


CENSUS_FIELDS = [(13, 1, 4), (2, 1, 14), (3, 3, 3), (2, 2, 7), (5, 1, 6), (7, 1, 5)]


@pytest.mark.parametrize("spec", CENSUS_FIELDS, ids=str)
def test_powers_of_g_match_an_independent_context(spec):
    # exp_g[i] = g^i: every power by products on a fresh context, and a
    # seeded sample of exponents by its pow
    ctx, oracle = build_field(*spec), build_field(*spec)
    ctx.find_reference_primitive_normal()
    exp_g, m = ctx._exp_g, ctx.order - 1
    g = exp_g[1]
    assert len(exp_g) == m and oracle.is_primitive(g)
    assert g == next(a for a in range(1, ctx.order) if oracle.is_primitive(a))
    cur = 1
    for i in range(m):
        assert exp_g[i] == cur, (ctx, i)
        cur = oracle._mul_poly(cur, g)
    assert cur == 1
    for i in random.Random(18).sample(range(m), 50):
        assert exp_g[i] == oracle.pow(g, i), (ctx, i)


def test_whole_field_pass_rejects_a_non_primitive_g(monkeypatch):
    # g^m = 1 for every g != 0, so only the powers g^(m/r) show that the g
    # the pass starts from is not primitive
    ctx, oracle = build_field(3, 1, 4), build_field(3, 1, 4)
    bad = next(a for a in range(2, ctx.order) if not oracle.is_primitive(a))
    monkeypatch.setattr(ctx, "is_primitive", lambda a: a == bad)
    with pytest.raises(ConsistencyError, match="order below"):
        ctx.find_reference_primitive_normal()


def test_whole_field_pass_rejects_a_wrong_map(monkeypatch):
    # a "times g" table whose last column is lost never brings 1 back
    ctx = build_field(3, 1, 4)
    span, kn = ctx._span, ctx.k * ctx.n
    monkeypatch.setattr(ctx, "_span", lambda cols: span(cols[:-1] + [0] if len(cols) == kn else cols))
    with pytest.raises(ConsistencyError, match="do not return to 1"):
        ctx.find_reference_primitive_normal()


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


@pytest.mark.parametrize("spec,position", [("2^1:3::1,1,0,1:9", 15), ("2^1:3:0,1:1,1,0,1:", 18),
                                           ("2^1:3:banana:1,1,0,1:9:9", 21)])
def test_too_many_sections_point_at_the_fifth(spec, position):
    # a character offset like every other position, found before any
    # modulus is parsed
    from pnfield.errors import FieldSpecError

    with pytest.raises(FieldSpecError, match="too many ':' sections") as err:
        parse_field_spec(spec)
    assert err.value.position == position
    assert spec[position - 1] == ":"


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
    from pnfield.characters import discrete_log

    for p, k, n in [(2, 1, 2), (2, 1, 4), (3, 1, 2), (5, 1, 2)]:
        ctx = get_field(p, k, n)
        for a in range(1, ctx.order):
            expected = dlog_by_scan(ctx, a)
            assert discrete_log(ctx, a) == expected
