"""Polynomial arithmetic over F_q and the polynomial-side totients."""

import itertools
from fractions import Fraction

import pytest

import bruteforce as bf
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
        assert bf.poly_add_by_calls(f5, pf.poly_mul(f5, q, g), r) == f
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
    # n = 0 has no p-part to strip (0 = 0·p), so both splits refuse it
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be >= 1"):
            pf.cyclotomic_factor_counts(4, n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            pf.factor_x_n_minus_1_over(canonical_field(4), n)


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
        divs = bf.monic_divisors(fact)
        assert len(divs) == len(set(divs))
        assert pf.poly_sigma(fact) == sum(q ** pf.poly_deg(d) for d in divs)


@pytest.mark.parametrize("q,n", [
    (2, 4), (2, 6), (3, 3), (3, 6), (4, 4), (5, 5), (2, 5), (3, 4), (7, 3), (4, 3),
])
def test_divisor_lattice_entries_and_order(q, n):
    # each entry is its product of factor powers, and d | d' exactly when
    # the exponent vectors compare componentwise
    fact = pf.factor_x_n_minus_1(q, n)
    fq = fact.fq
    lattice = {exps: fact.divisor(exps) for exps in fact.exponent_vectors()}
    assert len(set(lattice.values())) == len(lattice) == len(bf.monic_divisors(fact))
    for exps, d in lattice.items():
        prod = pf.ONE
        for (factor, _), j in zip(fact.entries, exps):
            for _ in range(j):
                prod = pf.poly_mul(fq, prod, factor)
        assert d == prod
    assert lattice[fact.exponents()] == fact.value
    for e1, d1 in lattice.items():
        for e2, d2 in lattice.items():
            below = all(x <= y for x, y in zip(e1, e2))
            assert below == (not pf.poly_divmod(fq, d2, d1)[1]), (e1, e2)


def test_factor_x_n_minus_1_matches_sympy():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_from_int_poly

    for p in (2, 3, 5, 7, 13):
        for n in range(1, 25):  # includes every n divisible by p up to 24
            lc, factors = gf_factor(gf_from_int_poly([1] + [0] * (n - 1) + [-1], p), p, ZZ)
            assert lc == 1
            # sympy lists coefficients high to low; polyfq low to high
            expected = sorted((tuple(int(c) for c in reversed(f)), e) for f, e in factors)
            got = sorted(pf.factor_x_n_minus_1(p, n).entries)
            assert got == expected, (p, n)


def test_factor_x_n_minus_1_over_a_large_prime_matches_sympy():
    # F_{2^31 - 1}: slots of 72 bits, normalized digit by digit (no
    # bytes.translate), and no table of multiples; as p - 1 = 2·3^2·7·11·31·151·331,
    # the factors have degree 1 (n = 7, 9), 2 (n = 8, 12), 4 (n = 5, 10) and 20 (n = 25)
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_from_int_poly

    p = 2**31 - 1
    fq = SmallField(p, 1)
    for n in (1, 2, 5, 7, 8, 9, 10, 12, 25):
        lc, factors = gf_factor(gf_from_int_poly([1] + [0] * (n - 1) + [-1], p), p, ZZ)
        assert lc == 1
        expected = sorted((tuple(int(c) for c in reversed(f)), e) for f, e in factors)
        assert sorted(pf.factor_x_n_minus_1_over(fq, n).entries) == expected, n


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
        total = sum(pf.poly_phi(_divisor_factorization(fact, d)) for d in bf.monic_divisors(fact))
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
    # irreducible monic polynomials of degree d number (1/d)·Σ_{e|d} μ(d/e)·q^e
    fq = canonical_field(q)
    for d in range(2, 7):
        found = [f for f in pf.monic_polys(fq, d) if pf.is_irreducible(fq, f)]
        assert len(found) == sum(mobius(d // e) * q**e for e in divisors(d)) // d
        if q == 3:
            gt = pytest.importorskip("sympy.polys.galoistools")
            zz = pytest.importorskip("sympy.polys.domains").ZZ
            expected = [f for f in pf.monic_polys(fq, d)
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


def test_sieved_first_irreducible_equals_the_plain_scan():
    # d <= 5 everywhere, then degrees where the affine screen (A) or the
    # parity screen (B) fires: d = 8, 16 over F_2, 8 over F_4 and 9 over F_3
    # (A); 9 over F_3 and every degree over F_9, F_25 and F_27 (B)
    grid = [(q, d) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27) for d in range(1, 6)]
    for q, d in grid + [(2, 8), (2, 16), (4, 8), (3, 9), (9, 6), (25, 4), (27, 5)]:
        fq = canonical_field(q)
        plain = next(f for f in pf.monic_polys(fq, d) if pf.is_irreducible(fq, f))
        assert pf.first_irreducible(fq, d) == plain, (q, d)


def _affine_p_polys(fq, e):
    """Every x^(p^e) + Σ_(i<e) a_i·x^(p^i) + c over fq, from its definition."""
    p, d = fq.p, fq.p**e
    for c, *a in itertools.product(range(fq.q), repeat=e + 1):
        f = [c] + [0] * d
        f[d] = 1
        for i, ai in enumerate(a):
            f[p**i] = ai
        yield tuple(f)


def _sympy_irreducible(p):
    gt = pytest.importorskip("sympy.polys.galoistools")
    zz = pytest.importorskip("sympy.polys.domains").ZZ
    return lambda fq, f: gt.gf_irreducible_p(list(reversed(f)), p, zz)


# (q, e) past the threshold of screen (A): e >= 3 for p = 2, e >= 2 for odd p
AFFINE_REDUCIBLE = [(2, 3), (2, 4), (3, 2), (5, 2), (4, 3), (9, 2)]


@pytest.mark.parametrize("q,e", AFFINE_REDUCIBLE)
def test_affine_p_polynomials_past_the_threshold_are_all_reducible(q, e):
    fq = canonical_field(q)
    irreducible = _sympy_irreducible(q) if fq.k == 1 else bf.is_irreducible_by_ben_or
    polys = list(_affine_p_polys(fq, e))
    assert len(polys) == q ** (e + 1)
    assert not any(irreducible(fq, f) for f in polys)


@pytest.mark.parametrize("q,e", [(2, 2), (4, 2), (3, 1), (5, 1), (9, 1)])
def test_affine_p_polynomials_at_the_threshold_include_irreducibles(q, e):
    # x^4 + x + 1 over F_2 and x^p - x - 1 over F_p are irreducible, so
    # neither threshold of screen (A) can move down, and the screen is off
    fq = canonical_field(q)
    assert any(bf.is_irreducible_by_ben_or(fq, f) for f in _affine_p_polys(fq, e))
    assert pf._affine_mask(pf._packed(fq), fq.p**e) is None


@pytest.mark.parametrize("q,e", [(2, 3), (3, 2), (4, 3)])
def test_affine_mask_marks_exactly_the_affine_p_polynomials(q, e):
    fq = canonical_field(q)
    ring = pf._packed(fq)
    mask = pf._affine_mask(ring, fq.p**e)
    marked = {f for f in pf.monic_polys(fq, fq.p**e) if not ring.pack(f) & mask}
    assert marked == set(_affine_p_polys(fq, e))


@pytest.mark.parametrize("p", [3, 5])
def test_stickelberger_parity_matches_the_factor_count(p):
    # χ(disc f) = (-1)^(d - r) for squarefree f with r irreducible factors,
    # with sympy's discriminant and factor count; the screen keeps f iff f
    # is squarefree with r odd
    gt = pytest.importorskip("sympy.polys.galoistools")
    zz = pytest.importorskip("sympy.polys.domains").ZZ
    sympy = pytest.importorskip("sympy")
    fq, x = canonical_field(p), sympy.Symbol("x")
    ring = pf._packed(fq)
    for d in range(1, 6):
        screen = pf._parity_screen(ring, d)
        for f in pf.monic_polys(fq, d):
            g = list(reversed(f))
            squarefree = gt.gf_sqf_p(g, p, zz)
            r = len(gt.gf_factor_sqf(g, p, zz)[1]) if squarefree else 0
            assert screen(ring.pack(f)) == (squarefree and r % 2 == 1), f
            if squarefree:
                disc = int(sympy.Poly(g, x, modulus=p).discriminant()) % p
                assert pow(disc, (p - 1) // 2, p) == (1 if (d - r) % 2 == 0 else p - 1), f


@pytest.mark.parametrize("q", [9, 25])
def test_every_irreducible_passes_the_parity_screen(q):
    # the irreducibles of degree <= 4: the rootless polynomials of degree
    # <= 3, and the rootless quartics that are no product of two rootless
    # quadratics, counted against Gauss's formula
    fq = canonical_field(q)
    ring = pf._packed(fq)
    quadratics = list(pf._rootless_monic_polys(ring, 2))
    products = {ring.mul(a, b) for a, b in itertools.combinations_with_replacement(quadratics, 2)}
    for d in range(1, 5):
        irreducibles = [f for f in (pf._rootless_monic_polys(ring, d) if d > 1 else pf._monic_candidates(ring, 1))
                        if d < 4 or f not in products]
        assert len(irreducibles) == sum(mobius(d // e) * q**e for e in divisors(d)) // d
        screen = pf._parity_screen(ring, d)
        assert all(map(screen, irreducibles)), d


@pytest.mark.parametrize("q,d", [(2, 4), (3, 3), (4, 3), (9, 2), (5, 3)])
def test_root_sieve_drops_exactly_the_polynomials_with_a_root(q, d):
    fq = canonical_field(q)
    expected = [f for f in pf.monic_polys(fq, d)
                if all(bf.poly_eval_by_calls(fq, f, c) for c in range(q))]
    ring = pf._packed(fq)
    assert [ring.unpack(f) for f in pf._rootless_monic_polys(ring, d)] == expected


def test_ben_or_matches_sympy_on_every_small_monic_over_f5():
    gt = pytest.importorskip("sympy.polys.galoistools")
    zz = pytest.importorskip("sympy.polys.domains").ZZ
    fq = canonical_field(5)
    for d in range(2, 7):
        for f in pf.monic_polys(fq, d):
            assert pf.is_irreducible(fq, f) == gt.gf_irreducible_p(list(reversed(f)), 5, zz), f
