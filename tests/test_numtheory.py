"""Integer-side arithmetic against literal oracles and frozen values."""

import math
import random
from fractions import Fraction

import pytest

from pnfield import numtheory as nt
from pnfield.errors import ResourceLimitError

from bruteforce import divisors_by_scan, factor_by_trial, mobius_by_trial, phi_by_gcd_count


def test_factorize_examples():
    assert nt.factorize(15).entries == ((3, 1), (5, 1))
    assert nt.factorize(4).entries == ((2, 2),)
    # 2^4 - 1, the order of F_16^x
    assert nt.factorize(2**4 - 1).entries == ((3, 1), (5, 1))


def test_factorize_matches_trial_division():
    for n in range(2, 3000):
        assert list(nt.factorize(n).entries) == factor_by_trial(n)


def test_factorize_large_semiprime():
    n = 1000003 * 1000033  # both factors above the trial-division limit
    assert nt.factorize(n).entries == ((1000003, 1), (1000033, 1))


def test_factorize_domain():
    with pytest.raises(ValueError):
        nt.factorize(1)
    with pytest.raises(ValueError):
        nt.factorize(0)


def test_mobius_examples():
    assert nt.mobius(1) == 1
    assert nt.mobius(4) == 0
    assert nt.mobius(6) == 1
    for n in range(1, 500):
        assert nt.mobius(n) == mobius_by_trial(n)


def test_euler_phi_examples():
    assert nt.euler_phi(1) == 1
    assert nt.euler_phi(8) == 4
    assert nt.euler_phi(15) == 8
    for n in range(1, 400):
        assert nt.euler_phi(n) == phi_by_gcd_count(n)


def test_divisors_examples():
    assert nt.divisors(1) == [1]
    assert nt.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert nt.divisors(7) == [1, 7]
    for n in range(1, 300):
        assert nt.divisors(n) == divisors_by_scan(n)


def test_multiplicative_order():
    assert nt.multiplicative_order(2, 3) == 2
    assert nt.multiplicative_order(1, 17) == 1
    assert nt.multiplicative_order(2, 7) == 3
    with pytest.raises(ValueError):
        nt.multiplicative_order(6, 9)
    for m in range(2, 60):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            e = 1
            cur = a % m
            while cur != 1:
                cur = cur * a % m
                e += 1
            assert nt.multiplicative_order(a, m) == e


def test_mertens_report_examples():
    assert nt.mertens_report(1).mertens == 1
    assert nt.mertens_report(10).mertens == -1
    rep = nt.mertens_report(10**4)
    # exact identity: fractional = x·reciprocal - 1
    assert rep.identity_residual == 0
    assert abs(rep.fractional_sum - (10**4 * rep.reciprocal_sum - 1)) < Fraction(1, 10**9)
    with pytest.raises(ResourceLimitError):
        nt.mertens_report(10**7 + 1)


@pytest.mark.parametrize("x", [1, 2, 30, 10**4])
def test_mertens_report_matches_the_fraction_loop(x):
    from bruteforce import mertens_by_fractions

    rep = nt.mertens_report(x)
    assert (rep.mertens, rep.reciprocal_sum, rep.fractional_sum) == mertens_by_fractions(x)
    assert rep.identity_residual == 0


def test_mobius_floor_identity():
    mus = nt.mobius_sieve(10**4)
    for x in range(1, 2001):
        assert sum(mus[n] * (x // n) for n in range(1, x + 1)) == 1
    for x in (5000, 10**4):  # spot checks at the top of the stated range
        assert sum(mus[n] * (x // n) for n in range(1, x + 1)) == 1


def test_phi_bounds_report():
    rep = nt.phi_bounds_report(211)
    assert rep.ratio == pytest.approx(210 / 211)
    assert rep.rs_upper_ok and rep.lower_ok
    rep = nt.phi_bounds_report(30030)
    assert rep.rs_upper_ok and rep.lower_ok
    with pytest.raises(ValueError):
        nt.phi_bounds_report(4)


def test_phi_sieve_agrees():
    phis = nt.phi_sieve(2000)
    for n in range(1, 2001):
        assert phis[n] == nt.euler_phi(n)


def test_mobius_pair_divisor_sum():
    for n in range(1, 2000):
        assert sum(nt.euler_phi(d) for d in nt.divisors(n)) == n


def test_phi_gcd_correction_identity():
    import random

    rng = random.Random(7)
    for _ in range(10**4):
        m = rng.randrange(1, 1000)
        n = rng.randrange(1, 1000)
        d = math.gcd(m, n)
        assert nt.euler_phi(m * n) * nt.euler_phi(d) == d * nt.euler_phi(m) * nt.euler_phi(n)


def test_inverse_totient_identity():
    for n in range(1, 1000):
        total = Fraction(0)
        for d in nt.divisors(n):
            mu = nt.mobius(d)
            total += Fraction(mu * mu, nt.euler_phi(d))
        assert Fraction(1, nt.euler_phi(n)) == total / n


def test_is_prime_matches_sympy_below_ten_to_the_five():
    from sympy import isprime

    for n in range(10**5):
        assert nt.is_prime(n) == isprime(n), n


def test_is_prime_matches_sympy_on_seeded_62_bit_integers():
    import random

    from sympy import isprime

    rng = random.Random(20261018)
    for _ in range(10**5):
        n = rng.getrandbits(62)
        assert nt.is_prime(n) == isprime(n), n


def test_is_prime_rejects_each_strong_pseudoprime_bound():
    # ψ_j is a strong pseudoprime to the first j prime bases, so the test
    # must reach base j + 1 at n = ψ_j
    for psi, _ in nt._MR_PSI:
        assert not nt.is_prime(psi), psi
    assert [j for _, j in nt._MR_PSI] == [1, 2, 3, 4, 5, 6, 7, 9]


def _seeded_towers(count: int) -> list:
    """(p, k, n) with p^(kn) <= 2^63, p mostly small, from a fixed seed."""
    import random

    from sympy import primerange

    small, large = list(primerange(2, 200)), list(primerange(200, 70000))
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        p = rng.choice(small) if rng.random() < 0.7 else rng.choice(large)
        kn = rng.randint(1, max(1, int(63 / math.log2(p))))
        if kn * math.log2(p) <= 63:
            k = rng.choice([d for d in range(1, kn + 1) if kn % d == 0])
            out.append((p, k, kn // k))
    return out


def test_factorize_matches_sympy_on_field_orders():
    # is_primitive is sound only if these are all the primes of q^n - 1
    from sympy import factorint

    bigfield = [(2, 1, 24), (2, 1, 40), (3, 1, 14), (5, 1, 10), (2, 4, 8), (7, 1, 8)]
    census = [(13, 1, 4), (2, 1, 14), (3, 3, 3), (2, 2, 7), (5, 1, 6), (7, 1, 5)]
    per_element = [(2, 1, 63), (3, 1, 39), (5, 1, 27), (2, 4, 15), (3, 2, 19), (7, 1, 22)]
    for p, k, n in bigfield + census + per_element + _seeded_towers(60):
        m = p ** (k * n) - 1
        if m > 1:
            assert dict(nt.factorize(m).entries) == factorint(m), (p, k, n)


def test_multiplicative_order_matches_sympy():
    from sympy.ntheory import n_order

    for m in range(2, 400):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert nt.multiplicative_order(a, m) == n_order(a, m), (a, m)
    rng = random.Random(9)
    for _ in range(200):
        m = rng.randrange(2, 10**9)
        a = rng.randrange(1, m)
        if math.gcd(a, m) == 1:
            assert nt.multiplicative_order(a, m) == n_order(a, m), (a, m)
