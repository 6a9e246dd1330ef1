"""Characters, Gauss sums, the four characteristic functions, and the
character-sum bound suite."""

import cmath
import math
import random

import pytest

from pnfield import characters as ch
from pnfield.claims import enumerate_field_specs
from pnfield.counting import exact_counts
from pnfield.field import build_field, get_field
from pnfield.numtheory import euler_phi

import bruteforce as bf


def test_discrete_log_examples():
    f4 = get_field(2, 1, 2)
    assert ch.discrete_log(f4, f4.reference_tau) == 1
    assert ch.discrete_log(f4, 1) == 0
    assert ch.discrete_log(f4, 3) == 2  # α² = α + 1
    with pytest.raises(ValueError):
        ch.discrete_log(f4, 0)


def test_additive_char_group_counts():
    from pnfield.polyfq import poly_deg, poly_divmod

    for p, k, n in [(2, 1, 3), (3, 1, 2), (2, 1, 4), (5, 1, 2), (2, 2, 2)]:
        ctx = get_field(p, k, n)
        orders = {}
        for c in range(ctx.order):
            d = ctx.additive_order(c)
            orders[d] = orders.get(d, 0) + 1
        assert sum(orders.values()) == ctx.order
        for d in bf.monic_divisors(ctx.add_factorization):
            covered = sum(
                cnt for dd, cnt in orders.items() if not poly_divmod(ctx.fq, d, dd)[1]
            )
            assert covered == ctx.q ** poly_deg(d)


def test_gauss_sum_exact_triple():
    for p, k, n in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2)]:
        ctx = get_field(p, k, n)
        m = ctx.order - 1
        assert ch.gauss_sum(ctx, 0, 0) == complex(m)
        assert ch.gauss_sum(ctx, 1, 0) == 0
        assert ch.gauss_sum(ctx, 0, 1) == complex(-1)


def test_gauss_sum_trivial_cases_match_float_oracle():
    # independent float oracle: literal summation with cmath only
    for p, k, n in [(2, 1, 3), (3, 1, 2)]:
        ctx = get_field(p, k, n)
        ctx.ensure_tables()
        m = ctx.order - 1
        for b, c in [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]:
            direct = 0j
            for a in range(1, ctx.order):
                ang_m = b * ch.discrete_log(ctx, a) / m
                ang_p = ctx.trace(ctx.mul(c, a)) / ctx.p
                direct += cmath.exp(2j * cmath.pi * (ang_m + ang_p))
            assert abs(ch.gauss_sum(ctx, b, c) - direct) < 1e-9


def test_gauss_sum_modulus():
    for p, k, n in [(2, 1, 3), (3, 1, 2), (2, 1, 4), (5, 1, 2)]:
        ctx = get_field(p, k, n)
        m = ctx.order - 1
        for b in range(1, m):
            for c in range(1, ctx.order):
                assert abs(abs(ch.gauss_sum(ctx, b, c)) - ctx.order**0.5) < 1e-6


def test_indicator_primitive_examples():
    f4 = get_field(2, 1, 2)
    assert ch.indicator_primitive_dd(f4, 2) == 1
    assert ch.indicator_primitive_dd(f4, 1) == 0
    f8 = get_field(2, 1, 3)
    for g in range(2, 8):
        assert ch.indicator_primitive_dd(f8, g) == 1
    assert ch.indicator_primitive_df(f4, 3) == 1  # log = 2, gcd(2, 3) = 1
    assert ch.indicator_primitive_df(f4, 1) == 0
    f9 = get_field(3, 1, 2)
    tau_sq = f9.mul(f9.reference_tau, f9.reference_tau)
    assert ch.indicator_primitive_df(f9, tau_sq) == 0  # even log vs q^n-1 = 8
    with pytest.raises(ValueError):
        ch.indicator_primitive_dd(f4, 0)
    with pytest.raises(ValueError):
        ch.indicator_primitive_df(f4, 0)


def test_indicator_normal_dd_examples():
    f4 = get_field(2, 1, 2)
    assert ch.indicator_normal_dd(f4, 2) is None  # p | n: not applicable
    f9 = get_field(3, 1, 2)
    assert ch.indicator_normal_dd(f9, 4) == 1  # 1+i has maximal additive order
    assert ch.indicator_normal_dd(f9, 1) == 0
    assert ch.indicator_normal_dd(f9, 0) == 0


def test_indicator_normal_df_examples():
    f4 = get_field(2, 1, 2)
    eta = f4.reference_tau
    assert ch.indicator_normal_df(f4, 2, eta) == 1
    assert ch.indicator_normal_df(f4, 1, eta) == 0
    # constructed witness: α = s∘η with gcd(s, x^n-1) = 1
    f9 = get_field(3, 1, 2)
    eta9 = f9.reference_tau
    for s in bf.coprime_residues_by_gcd(f9.fq, 2):
        alpha = f9.apply_linearized(s, eta9)
        assert ch.indicator_normal_df(f9, alpha, eta9) == 1
    with pytest.raises(ValueError):
        ch.indicator_normal_df(f4, 2, 1)  # η = 1 is not normal
    with pytest.raises(ValueError):
        ch.indicator_normal_df(f4, 0, eta)


def test_indicator_equivalence_small_fields():
    for p, k, n in [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 2, 2)]:
        ctx = get_field(p, k, n)
        tau = ctx.reference_tau
        dd_applicable = ctx.n % ctx.p != 0
        for a in range(1, ctx.order):
            prim = ctx.is_primitive(a)
            norm = ctx.is_normal(a)
            assert ch.indicator_primitive_dd(ctx, a) == prim
            assert ch.indicator_primitive_df(ctx, a) == prim
            assert ch.indicator_normal_df(ctx, a, tau) == norm
            if dd_applicable:
                assert ch.indicator_normal_dd(ctx, a) == norm


@pytest.mark.parametrize("spec", [(2, 1, 7), (2, 1, 9), (2, 2, 3), (3, 1, 5), (3, 2, 2),
                                  (5, 1, 3), (7, 1, 2), (13, 1, 2), (5, 1, 1), (2, 2, 1)], ids=str)
def test_normal_dd_on_tr_exp_equals_per_term_form(spec):
    ctx = build_field(*spec)
    oracle = build_field(*spec)
    values = [ch.indicator_normal_dd(ctx, a) for a in range(ctx.order)]
    assert values == [bf.indicator_normal_dd_per_term(oracle, a) for a in range(ctx.order)]
    assert values[0] == 0


def test_primitive_dd_by_class_equals_the_per_alpha_sum():
    # every α of every verify field up to q^n = 1024, on fresh contexts; the
    # classes gcd(log α, rad m) number at most 2^ω(m)
    for p, k, n in enumerate_field_specs(4, 1024):
        ctx = build_field(p, k, n)
        elements = range(1, ctx.order)
        got = [ch.indicator_primitive_dd(ctx, a) for a in elements]
        assert got == [bf.indicator_primitive_dd_per_alpha(ctx, a) for a in elements], (p, k, n)
        assert sum(got) == euler_phi(ctx.order - 1)
        assert len(ctx.char_cache["prim_dd"][1]) <= 2 ** len(ctx.mult_factorization.entries)


def test_indicator_literal_float_crosschecks():
    for p, k, n in [(2, 1, 2), (3, 1, 2), (2, 1, 3)]:
        ctx = get_field(p, k, n)
        tau = ctx.reference_tau
        for a in range(1, ctx.order):
            assert bf.indicator_primitive_dd_literal(ctx, a) == ch.indicator_primitive_dd(ctx, a)
            assert ch.indicator_primitive_df_literal(ctx, a) == ch.indicator_primitive_df(ctx, a)
            assert bf.indicator_normal_df_literal(ctx, a, tau) == ch.indicator_normal_df(ctx, a, tau)
            lit = bf.indicator_normal_dd_literal(ctx, a)
            assert lit == ch.indicator_normal_dd(ctx, a)


def test_df_rotation_invariance():
    ctx = get_field(3, 1, 2)
    for a in range(1, 9):
        base = ch.indicator_primitive_df_literal(ctx, a, rotation=0)
        for rot in (1, 2, 3, 5):
            assert ch.indicator_primitive_df_literal(ctx, a, rotation=rot) == base


def test_char_sum_bound_helpers():
    f8 = get_field(2, 1, 3)
    # singleton: ratio = |ψ(1)| / q^(n/2)
    ratio = ch.double_product_sum_ratio(f8, 1, [1], [1])
    assert ratio == pytest.approx(8**-0.5)
    with pytest.raises(ValueError):
        ch.double_product_sum_ratio(f8, 0, [1], [1])
    with pytest.raises(ValueError):
        ch.shifted_sum_ratio(f8, 0, [1], [1])


def test_char_sum_bound_suite():
    f8 = get_field(2, 1, 3)
    suite = ch.char_sum_bound_suite(f8, trials=100, seed=99)
    ent = {e["lemma-id"]: e for e in suite["entries"]}
    assert ent["product-double-sum"]["pass"]
    assert ent["shifted-double-sum"]["pass"]
    assert ent["product-double-sum"]["maxRatio"] <= 1 + 1e-9
    with pytest.raises(ValueError):
        ch.char_sum_bound_suite(f8, trials=0, seed=1)


def test_char_sum_bound_suite_size_cap():
    from pnfield.errors import ResourceLimitError
    from pnfield.field import build_field

    big = build_field(2, 1, 15)  # 2^15 > 2^14 cap for direct double sums
    with pytest.raises(ResourceLimitError):
        ch.char_sum_bound_suite(big, trials=1, seed=1)


def test_units_sum_can_exceed_bound():
    # F_8: the all-ones trace functional pushes the normal-element sum to 3 > 8^(1/2)
    f8 = get_field(2, 1, 3)
    worst = max(ch.units_sum_ratio(f8, c) for c in range(1, 8))
    assert worst > 1.0


def test_primitive_exp_sum_examples():
    f4 = get_field(2, 1, 2)
    rec = f4 and ch.primitive_exp_sum(f4, 1)
    assert rec.exact_value == -euler_phi(3) == -2
    f9 = get_field(3, 1, 2)
    tau_sq = f9.mul(f9.reference_tau, f9.reference_tau)
    rec9 = ch.primitive_exp_sum(f9, tau_sq)
    assert rec9.exact_value == -euler_phi(8) == -4
    with pytest.raises(ValueError):
        ch.primitive_exp_sum(f4, f4.reference_tau)  # primitive input rejected
    with pytest.raises(ValueError):
        ch.primitive_exp_sum(f4, 0)


def test_primitive_exp_sum_direct_oracle():
    for p, k, n in [(2, 1, 2), (3, 1, 2), (2, 1, 4), (2, 1, 3)]:
        ctx = get_field(p, k, n)
        for a in range(1, ctx.order):
            if ctx.is_primitive(a):
                continue
            rec = ch.primitive_exp_sum(ctx, a)
            assert rec.exact_value == -rec.phi_value
            assert ch.primitive_exp_sum_direct(ctx, a) == rec.exact_value


def test_fully_literal_exp_sum_tiny():
    # the completely unfactored double sum on F_4 and F_9
    for p, k, n in [(2, 1, 2), (3, 1, 2)]:
        ctx = get_field(p, k, n)
        qn = ctx.order
        m = qn - 1
        for a in range(1, qn):
            if ctx.is_primitive(a):
                continue
            la = ch.discrete_log(ctx, a)
            total = 0j
            for t in range(1, qn):
                for s in range(1, qn):
                    if math.gcd(s, m) == 1:
                        total += cmath.exp(-2j * cmath.pi * (s - la) * t / qn)
            assert abs(total - ch.primitive_exp_sum(ctx, a).exact_value) < 1e-6


def test_fourier_identities():
    for p, k, n in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4)]:
        ctx = get_field(p, k, n)
        res_add, res_mult = ch.fourier_identity_max_residuals(ctx, 1, 1)
        assert res_add < 1e-8
        assert res_mult < 1e-8


def test_subsum_partition_matches_literal_quadruple_sum():
    """The closed-form N00..N11 split equals the literal (t1, t2) partition."""
    for p, k, n in [(2, 1, 2), (3, 1, 2)]:
        ctx = get_field(p, k, n)
        qn = ctx.order
        m = qn - 1
        eta = ctx.reference_tau
        log = ctx.log_table
        s_ints = [s for s in range(1, qn) if math.gcd(s, m) == 1]
        s_polys = bf.coprime_residues_by_gcd(ctx.fq, n)
        parts = [0j, 0j, 0j, 0j]  # N00, N01, N10, N11
        for a in range(1, qn):
            la = log[a]
            for t1 in range(qn):
                inner1 = sum(
                    cmath.exp(2j * cmath.pi * (s - la) * t1 / qn) for s in s_ints
                ) / qn
                for t2 in range(qn):
                    inner2 = sum(
                        cmath.exp(2j * cmath.pi * (log[ctx.apply_linearized(sp, eta)] - la) * t2 / qn)
                        for sp in s_polys
                    ) / qn
                    if t1 == 0 and t2 == 0:
                        parts[0] += inner1 * inner2
                    elif t1 != 0 and t2 == 0:
                        parts[1] += inner1 * inner2
                    elif t1 == 0 and t2 != 0:
                        parts[2] += inner1 * inner2
                    else:
                        parts[3] += inner1 * inner2
        phi = euler_phi(m)
        from pnfield.polyfq import poly_phi

        phi_poly = poly_phi(ctx.add_factorization)
        pn = sum(1 for a in range(1, qn) if ctx.is_primitive_normal(a))
        a_size = qn - 1
        expected = [
            phi * phi_poly * a_size / qn**2,
            phi_poly / qn * (phi - phi * a_size / qn),
            phi / qn * (phi_poly - phi_poly * a_size / qn),
            pn - phi_poly * phi / qn - phi * phi_poly / qn + phi * phi_poly * a_size / qn**2,
        ]
        for got, want in zip(parts, expected):
            assert abs(got.imag) < 1e-6
            assert got.real == pytest.approx(want, abs=1e-6)
        assert sum(p.real for p in parts) == pytest.approx(pn, abs=1e-6)


def test_character_caches_stay_in_the_context_cache():
    ctx = build_field(3, 1, 2)
    before = set(vars(ctx))
    tau = ctx.reference_tau
    for a in range(1, ctx.order):
        ch.indicator_primitive_dd(ctx, a)
        ch.indicator_primitive_df(ctx, a)
        ch.indicator_primitive_df_literal(ctx, a)
        ch.indicator_normal_dd(ctx, a)
        ch.indicator_normal_df(ctx, a, tau)
        if not ctx.is_primitive(a):
            ch.primitive_exp_sum_direct(ctx, a)
    ch.gauss_sum(ctx, 1, 1)
    ch.char_sum_bound_suite(ctx, trials=3, seed=1)
    ch.fourier_identity_max_residuals(ctx, 1, 1)
    assert set(vars(ctx)) == before
    # the tables that depend on q^n alone are cached by q^n, outside the field
    assert set(ctx.char_cache) == {"tr_exp", "zech", "norm_dd", "prim_dd"}


# -- the exponent-indexed tables against the per-term sums ---------------------

TABLE_FIELDS = [(2, 1, 8), (2, 2, 4), (3, 1, 5), (3, 2, 2), (5, 1, 3), (7, 1, 2), (13, 1, 2)]


def _powers_of_tau(ctx):
    """τ^i for i < q^n - 1 by repeated polynomial-path products."""
    out, cur = [], 1
    for _ in range(ctx.order - 1):
        out.append(cur)
        cur = ctx._mul_poly(cur, ctx.reference_tau)
    return out


@pytest.mark.parametrize("p,k,n", TABLE_FIELDS)
def test_trace_and_zech_tables_match_their_definitions(p, k, n):
    ctx = build_field(p, k, n)
    powers = _powers_of_tau(ctx)
    tr_exp, zech = ch._tr_exp(ctx), ch._zech(ctx)
    minus_one = ctx.neg(1)
    # each table holds its entries twice, at i and at i + m, then zeros
    # where the double sums read log 0: tr_exp from 2m on, zech from 2m to 3m
    m = len(powers)
    assert len(tr_exp) == 3 * m and len(zech) == 3 * m + 1
    assert tr_exp[m:2 * m] == tr_exp[:m] and zech[m:2 * m] == zech[:m]
    assert tr_exp[2 * m:] == [0] * m and zech[2 * m:] == [0] * (m + 1)
    for i, a in enumerate(powers):
        assert tr_exp[i] == ctx._trace_slow(a)
        assert (zech[i] is None) == (a == minus_one)
        if zech[i] is not None:
            assert powers[zech[i]] == ctx.add(1, a)


@pytest.mark.parametrize("p,k,n", TABLE_FIELDS)
def test_shifted_and_product_sums_at_zero_and_opposite_terms(p, k, n):
    # u = 0, v = 0 and u + v = 0 (v = -u != 0) all occur, in every position
    ctx = build_field(p, k, n)
    rng = random.Random(f"zero terms {p}^{k}:{n}")
    for _ in range(10):
        u_set = rng.sample(range(1, ctx.order), 6)
        v_set = [ctx.neg(u) for u in u_set[:3]] + rng.sample(range(ctx.order), 4)
        u_set.insert(rng.randrange(len(u_set) + 1), 0)
        v_set.insert(rng.randrange(len(v_set) + 1), 0)
        rng.shuffle(v_set)
        assert any(u and ctx.add(u, v) == 0 for u in u_set for v in v_set)
        b, c = rng.randrange(1, ctx.order - 1), rng.randrange(1, ctx.order)
        assert (ch.shifted_sum_ratio(ctx, b, u_set, v_set)
                == bf.shifted_sum_ratio_per_term(ctx, b, u_set, v_set))
        assert (ch.double_product_sum_ratio(ctx, c, u_set, v_set)
                == bf.double_product_sum_ratio_per_term(ctx, c, u_set, v_set))


@pytest.mark.parametrize("p,k,n", TABLE_FIELDS)
def test_table_sums_equal_per_term_sums_exactly(p, k, n):
    ctx = build_field(p, k, n)
    qn, m = ctx.order, ctx.order - 1
    rng = random.Random(f"table-sums {p}^{k}:{n}")
    pairs = [(0, 0), (0, 1), (1, 0), (m - 1, 0), (0, qn - 1)]
    pairs += [(rng.randrange(1, m), rng.randrange(1, qn)) for _ in range(40)]
    for b, c in pairs:
        assert ch.gauss_sum(ctx, b, c) == bf.gauss_sum_per_term(ctx, b, c)
    for _ in range(20):
        c = rng.randrange(1, qn)
        b = rng.randrange(1, m)
        # the zero element in both sets exercises the u = 0 and v = 0 terms
        u_set = rng.sample(range(qn), rng.randrange(1, 40)) + [0]
        v_set = [0] + rng.sample(range(qn), rng.randrange(1, 40))
        assert (ch.double_product_sum_ratio(ctx, c, u_set, v_set)
                == bf.double_product_sum_ratio_per_term(ctx, c, u_set, v_set))
        assert (ch.shifted_sum_ratio(ctx, b, u_set, v_set)
                == bf.shifted_sum_ratio_per_term(ctx, b, u_set, v_set))
        assert ch.units_sum_ratio(ctx, c) == bf.units_sum_ratio_per_term(ctx, c, ctx.reference_tau)
    b, c = rng.randrange(1, m), rng.randrange(1, qn)
    assert (ch.fourier_identity_max_residuals(ctx, b, c)
            == bf.fourier_identity_max_residuals_per_term(ctx, b, c))
    ch._df_inner.cache_clear()  # fields of one size share the inner sums
    for a in range(1, min(qn, 12)):
        for rot in (0, 1, 3, 7):
            assert (ch.indicator_primitive_df_literal(ctx, a, rotation=rot)
                    == bf.indicator_primitive_df_literal_per_term(ctx, a, rotation=rot))
    # the literal asks for the inner sum of each s - log α and of nothing
    # else (every wanted sum is a cache hit, and no other sum is cached), and
    # the cached inner sums are the per-term sums
    coprime = [s for s in range(1, qn) if math.gcd(s, m) == 1]
    wanted = {(s - ctx.log_table[a]) % qn for a in range(1, min(qn, 12)) for s in coprime}
    assert ch._df_inner.cache_info().currsize == len(wanted)
    hits = ch._df_inner.cache_info().hits
    for d in wanted:
        assert ch._df_inner(qn, d) == bf.df_inner_per_term(ctx, d) == bf.df_inner_per_term(ctx, d - qn)
    assert ch._df_inner.cache_info().hits == hits + len(wanted)


def test_character_tables_need_the_log_table():
    from pnfield.errors import ResourceLimitError

    big = build_field(2, 1, 21)  # above the exp/log table cap
    with pytest.raises(ResourceLimitError):
        ch.gauss_sum(big, 1, 1)
    # the cap bounds all data about the whole field: τ, logs and counts
    with pytest.raises(ResourceLimitError):
        big.reference_tau
    with pytest.raises(ResourceLimitError):
        ch.discrete_log(big, 2)
    with pytest.raises(ResourceLimitError):
        exact_counts(big)


@pytest.mark.parametrize("spec", [(3, 1, 2), (5, 1, 2), (3, 1, 5), (7, 1, 3), (3, 2, 2)])
def test_euler_criterion_matches_even_discrete_log(spec):
    # powers on a context without tables, as above the cap; logs on another
    ctx, logs = build_field(*spec), build_field(*spec)
    half = (ctx.order - 1) // 2
    for a in range(1, ctx.order):
        assert (ctx.pow(a, half) == 1) == (ch.discrete_log(logs, a) % 2 == 0), (ctx, a)
    assert ctx._log is None
