"""Polynomial arithmetic over F_q and the polynomial-side totients."""

import itertools
from fractions import Fraction

import pytest

from pnfield import polyfq as pf
from pnfield.numtheory import divisors, euler_phi, mobius
from pnfield.smallfield import SmallField, canonical_field


def test_poly_gcd_examples():
    f3 = canonical_field(3)
    # gcd(x^2 - 1, x - 1) over F_3 is monic x + 2
    assert pf.poly_gcd(f3, (2, 0, 1), (2, 1)) == (2, 1)
    f2 = canonical_field(2)
    assert pf.poly_gcd(f2, (1, 1), (1, 1)) == (1, 1)
    # gcd(f, 0) = monic(f)
    assert pf.poly_gcd(f3, (2, 2), ()) == (1, 1)
    with pytest.raises(ValueError):
        pf.poly_gcd(f3, (), ())


def test_poly_divmod_roundtrip():
    f5 = canonical_field(5)
    import random

    rng = random.Random(3)
    for _ in range(300):
        f = pf.poly_trim(rng.randrange(5) for _ in range(rng.randrange(1, 8)))
        g = pf.poly_trim(rng.randrange(5) for _ in range(rng.randrange(1, 5)))
        if not g:
            continue
        q, r = pf.poly_divmod(f5, f, g)
        assert pf.poly_add(f5, pf.poly_mul(f5, q, g), r) == f
        assert pf.poly_deg(r) < pf.poly_deg(g)


def test_factor_x_n_minus_1_examples():
    fact = pf.factor_x_n_minus_1(2, 3)
    assert [(f, e) for f, e in fact.entries] == [((1, 1), 1), ((1, 1, 1), 1)]
    fact = pf.factor_x_n_minus_1(2, 2)
    assert fact.entries == (((1, 1), 2),)
    fact = pf.factor_x_n_minus_1(3, 2)
    assert fact.entries == (((1, 1), 1), ((2, 1), 1))


def test_factorization_product_and_certification():
    for q, n in [(2, 6), (2, 12), (3, 6), (4, 5), (5, 4), (7, 3), (9, 4), (8, 7)]:
        fact = pf.factor_x_n_minus_1(q, n)
        # __post_init__ already re-multiplies and re-certifies; spot-check degrees
        total_deg = sum(pf.poly_deg(f) * e for f, e in fact.entries)
        assert total_deg == n
        assert fact.value == pf.x_pow_n_minus_1(fact.fq, n)


def test_factorization_deterministic_and_sorted():
    # (3,8) and (4,5) exercise the seeded equal-degree splitting in both
    # characteristics; repeated runs must agree entry-for-entry
    for q, n in [(3, 8), (4, 5), (5, 8), (2, 9), (17, 11)]:
        first = pf.factor_x_n_minus_1(q, n)
        second = pf.factor_x_n_minus_1(q, n)
        assert first.entries == second.entries
        keys = [(pf.poly_deg(f), f) for f, _ in first.entries]
        assert keys == sorted(keys)
        prof = pf.cyclotomic_factor_counts(q, n)
        assert len(first.entries) == prof.omega


def test_cyclotomic_profile_examples():
    prof = pf.cyclotomic_factor_counts(2, 3)
    assert prof.rows == ((1, 1, 1), (3, 2, 1))
    assert prof.omega == 2
    assert pf.cyclotomic_factor_counts(7, 1).omega == 1
    prof = pf.cyclotomic_factor_counts(2, 5)
    assert prof.rows == ((1, 1, 1), (5, 4, 1))
    assert prof.omega == 2


def test_omega_matches_factorization():
    for q, n in [(2, 3), (2, 4), (2, 6), (2, 12), (3, 4), (3, 6), (5, 4), (4, 6), (13, 3)]:
        fact = pf.factor_x_n_minus_1(q, n)
        prof = pf.cyclotomic_factor_counts(q, n)
        assert len(fact.entries) == prof.omega
        # per-degree histogram: Σ over d with ord_d q = e of φ(d)/ord_d q
        by_degree = {}
        for f, _ in fact.entries:
            by_degree[pf.poly_deg(f)] = by_degree.get(pf.poly_deg(f), 0) + 1
        expected = {}
        for _, order, count in prof.rows:
            expected[order] = expected.get(order, 0) + count
        assert by_degree == expected


def test_omega_prime_case():
    # n prime with ord_n q = n - 1 forces exactly 2 factors
    for q, n in [(2, 3), (2, 5), (2, 11), (3, 5), (5, 3)]:
        prof = pf.cyclotomic_factor_counts(q, n)
        from pnfield.numtheory import multiplicative_order

        if multiplicative_order(q, n) == n - 1:
            assert prof.omega == 2


def test_omega_phi_bound_counterexample():
    # the claimed Ω_q <= φ(n) fails whenever x^n - 1 splits into linears
    prof = pf.cyclotomic_factor_counts(5, 4)
    assert prof.omega == 4
    assert euler_phi(4) == 2
    assert prof.omega > euler_phi(4)


def test_poly_phi_examples():
    assert pf.poly_phi(pf.factor_x_n_minus_1(3, 2)) == 4  # (q-1)^2
    assert pf.poly_phi(pf.factor_x_n_minus_1(2, 2)) == 2  # char-2: (x+1)^2
    for q in (2, 3, 5, 9):
        fact = pf.factor_x_n_minus_1(q, 1)
        assert pf.poly_phi(fact) == q - 1


def test_poly_mobius():
    f2 = canonical_field(2)
    irred = pf.PolyFactorization(fq=f2, entries=(((1, 1, 1), 1),), value=(1, 1, 1))
    assert pf.poly_mobius(irred) == -1
    square = pf.factor_x_n_minus_1(2, 2)
    assert pf.poly_mobius(square) == 0
    unit = pf.PolyFactorization(fq=f2, entries=(), value=(1,))
    assert pf.poly_mobius(unit) == 1


def test_poly_sigma_examples():
    fact = pf.factor_x_n_minus_1(2, 1)  # x - 1 over F_2
    assert pf.poly_sigma(fact) == 3  # divisors 1 and x-1: 2^0 + 2^1
    unit = pf.PolyFactorization(fq=canonical_field(2), entries=(), value=(1,))
    assert pf.poly_sigma(unit) == 1
    fact = pf.factor_x_n_minus_1(3, 2)  # divisors 1, x+1, x+2, x^2-1
    assert pf.poly_sigma(fact) == 1 + 3 + 3 + 9


def test_monic_divisor_enumeration_matches_sigma():
    for q, n in [(2, 4), (3, 3), (5, 2), (4, 3)]:
        fact = pf.factor_x_n_minus_1(q, n)
        divs = pf.monic_divisors(fact)
        assert len(divs) == len(set(divs))
        assert pf.poly_sigma(fact) == sum(q ** pf.poly_deg(d) for d in divs)


def _divisor_factorization(fact, d):
    """Certified factorization of a monic divisor d, found by trial division."""
    entries = []
    for factor, _ in fact.entries:
        rest, e = d, 0
        quot, rem = pf.poly_divmod(fact.fq, rest, factor)
        while not rem:
            rest, e = quot, e + 1
            quot, rem = pf.poly_divmod(fact.fq, rest, factor)
        if e:
            entries.append((factor, e))
    return pf.PolyFactorization(fq=fact.fq, entries=tuple(entries), value=d)


def test_phi_divisor_sum_is_q_to_n():
    # Σ over monic d | x^n-1 of Φ_q(d) = q^n  (the exercise's Φ(x^n-1) variant fails)
    for q, n in [(2, 4), (2, 6), (3, 4), (5, 3), (4, 4), (2, 12)]:
        fact = pf.factor_x_n_minus_1(q, n)
        total = sum(pf.poly_phi(_divisor_factorization(fact, d)) for d in pf.monic_divisors(fact))
        assert total == q**n
        assert total != pf.poly_phi(fact)  # the conjectured self-sum identity is false
        # the exponent-vector form the claim suite uses gives the same sum
        degrees = [pf.poly_deg(f) for f, _ in fact.entries]
        by_exponents = sum(
            pf.phi_from_degrees(q, zip(degrees, exps))
            for exps in itertools.product(*(range(e + 1) for _, e in fact.entries))
        )
        assert by_exponents == total


def test_poly_phi_integer_formula():
    for q, n in [(2, 4), (2, 6), (2, 12), (3, 6), (5, 4), (7, 3), (8, 7), (9, 3)]:
        fact = pf.factor_x_n_minus_1(q, n)
        prof = pf.cyclotomic_factor_counts(q, n)
        formula = Fraction(q**n)
        for d, order, count in prof.rows:
            formula *= Fraction(q**order - 1, q**order) ** count
        assert formula == pf.poly_phi(fact)


def test_sigma_phi_identity_check_reports():
    check = pf.sigma_phi_identity_check(3, 2)
    assert isinstance(check.lhs, Fraction) and isinstance(check.rhs, Fraction)
    # result recorded either way; the conjectured identity is generically false
    check2 = pf.sigma_phi_identity_check(2, 4)
    assert not check2.holds


def test_poly_text_roundtrip():
    f2 = canonical_field(2)
    assert pf.format_poly(f2, (1, 0, 1)) == "1,0,1"
    assert pf.parse_poly(f2, "1,0,1") == (1, 0, 1)
    assert pf.parse_poly(f2, "0") == ()
    f4 = SmallField(2, 2)
    text = pf.format_poly(f4, (3, 1))
    assert text == "1/1,1/0"
    assert pf.parse_poly(f4, text) == (3, 1)


def test_irreducibility_check():
    f2 = canonical_field(2)
    assert pf.is_irreducible(f2, (1, 1, 1))
    assert not pf.is_irreducible(f2, (1, 0, 1))  # (x+1)^2
    assert pf.is_irreducible(f2, (1, 1, 0, 0, 1))  # x^4+x+1
    assert not pf.is_irreducible(f2, (1,))


@pytest.mark.parametrize("q", [3, 4])
def test_ben_or_counts_degree_six(q):
    # the helper directly, past the exhaustive shortcut for small candidate
    # counts: irreducible monic sextics number (1/6)·Σ_{e|6} μ(6/e)·q^e
    fq = canonical_field(q)
    found = [f for f in pf.monic_polys(fq, 6) if pf._ben_or_irreducible(fq, f)]
    assert len(found) == sum(mobius(6 // e) * q**e for e in divisors(6)) // 6
    if q == 3:
        gt = pytest.importorskip("sympy.polys.galoistools")
        zz = pytest.importorskip("sympy.polys.domains").ZZ
        expected = [f for f in pf.monic_polys(fq, 6)
                    if gt.gf_irreducible_p(list(reversed(f)), 3, zz)]
        assert found == expected


# (p, k, n) -> the extension modulus first_irreducible picked before the
# Ben-Or test replaced Rabin's: the benchmark's big fields, then its census
FIRST_IRREDUCIBLES = {
    (2, 1, 24): (1, 1, 0, 1, 1) + (0,) * 19 + (1,),
    (2, 1, 40): (1, 0, 0, 1, 1, 1) + (0,) * 34 + (1,),
    (3, 1, 14): (2, 1) + (0,) * 12 + (1,),
    (5, 1, 10): (3, 1, 1) + (0,) * 7 + (1,),
    (2, 4, 8): (2, 1, 0, 1, 0, 0, 0, 0, 1),
    (7, 1, 8): (3, 1, 0, 0, 0, 0, 0, 0, 1),
    (13, 1, 4): (2, 0, 0, 0, 1),
    (2, 1, 14): (1, 0, 0, 0, 0, 1) + (0,) * 8 + (1,),
    (3, 3, 3): (9, 2, 0, 1),
    (2, 2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (5, 1, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 1, 5): (3, 1, 0, 0, 0, 1),
}


@pytest.mark.parametrize("spec", list(FIRST_IRREDUCIBLES), ids=lambda s: "%d^%d:%d" % s)
def test_first_irreducible_unchanged(spec):
    p, k, n = spec
    assert pf.first_irreducible(SmallField(p, k), n) == FIRST_IRREDUCIBLES[spec]
