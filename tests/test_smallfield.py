"""Coefficient-field arithmetic and the canonical modulus choice."""

import random

import pytest

import bruteforce as bf
from pnfield.smallfield import SmallField, _add_digits, canonical_field


def test_prime_field_arithmetic():
    f7 = canonical_field(7)
    for a in range(7):
        for b in range(7):
            assert f7.add(a, b) == (a + b) % 7
            assert f7.mul(a, b) == a * b % 7
        if a:
            assert f7.mul(a, f7.inv(a)) == 1
        assert f7.add(a, f7.neg(a)) == 0


def test_canonical_modulus_f4():
    f4 = SmallField(2, 2)
    assert f4.modulus == (1, 1, 1)  # y² + y + 1


def test_extension_field_axioms():
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)]:
        fq = SmallField(p, k)
        q = fq.q
        for a in range(q):
            assert fq.add(a, 0) == a
            assert fq.mul(a, 1) == a
            assert fq.mul(a, 0) == 0
            assert fq.add(a, fq.neg(a)) == 0
            if a:
                assert fq.mul(a, fq.inv(a)) == 1
        # spot associativity/distributivity
        rng = random.Random(1)
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert fq.mul(fq.mul(a, b), c) == fq.mul(a, fq.mul(b, c))
            assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))


def test_frobenius_fixed_points_count():
    # x^p = x has exactly p solutions: the prime subfield
    for p, k in [(2, 2), (3, 2), (2, 3)]:
        fq = SmallField(p, k)
        fixed = [a for a in range(fq.q) if fq.pow(a, p) == a]
        assert fixed == list(range(p))


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        SmallField(2, 2, modulus=(1, 0, 1))  # (y+1)^2
    with pytest.raises(ValueError):
        SmallField(4, 1)  # 4 not prime


def test_digit_roundtrip():
    f9 = SmallField(3, 2)
    for a in range(9):
        assert f9.from_digits(f9.digits(a)) == a


def _small_extensions():
    """Every (p, k) with k >= 2 and p^k within the 512 table cap."""
    return [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19) for k in range(2, 10) if p**k <= 512]


@pytest.mark.parametrize("p,k", _small_extensions())
def test_tables_match_sympy(p, k):
    gt = pytest.importorskip("sympy.polys.galoistools")
    zz = pytest.importorskip("sympy.polys.domains").ZZ

    fq = SmallField(p, k)
    q = fq.q
    mod = list(reversed(fq.modulus))  # sympy lists run high to low

    def to_gf(a):
        return gt.gf_strip(list(reversed(fq.digits(a))))

    assert gt.gf_irreducible_p(mod, p, zz)
    if q <= 64:
        # every monic degree-k polynomial, in enumeration order: supplied
        # moduli are accepted exactly when irreducible, and the canonical
        # modulus is the first irreducible one
        first = fq.from_digits(fq.modulus[:-1])
        for enc in range(q):
            coeffs = tuple(fq.digits(enc)) + (1,)
            irreducible = gt.gf_irreducible_p(list(reversed(coeffs)), p, zz)
            if enc < first:
                assert not irreducible
            if irreducible:
                assert SmallField(p, k, modulus=coeffs).modulus == coeffs
            else:
                with pytest.raises(ValueError):
                    SmallField(p, k, modulus=coeffs)
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(p * 1000 + k)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        expected = gt.gf_rem(gt.gf_mul(to_gf(a), to_gf(b), p, zz), mod, p, zz)
        assert to_gf(fq.mul(a, b)) == expected
        if a:
            assert gt.gf_rem(gt.gf_mul(to_gf(a), to_gf(fq.inv(a)), p, zz), mod, p, zz) == [1]


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (3, 5), (5, 3), (7, 3)])
def test_table_rows_match_the_digit_sums_and_products(p, k):
    # products against schoolbook products of the digit vectors mod the modulus
    fq = SmallField(p, k)
    products, sums = fq.table_rows()
    assert (sums is None) == (p == 2)
    for a in range(fq.q):
        assert sums is None or sums[a] == [_add_digits(p, a, b) for b in range(fq.q)]
        assert products[a] == [fq.from_digits(bf._mulmod(
            fq.digits(a), fq.digits(b), fq.modulus, lambda x, y: (x + y) % p,
            lambda x, y: x * y % p, lambda x: -x % p, 0)) for b in range(fq.q)]


ODD_TABLE_FIELDS = [(p, k) for p in (3, 5, 7, 11, 13, 17, 19) for k in range(2, 6) if p**k <= 512]


@pytest.mark.parametrize("p,k", ODD_TABLE_FIELDS)
def test_sum_rows_match_the_digit_sums(p, k):
    # every odd-p table field: rows built from earlier rows by map equal the
    # digit-wise sums
    fq = SmallField(p, k)
    _, sums = fq.table_rows()
    assert sums == [[_add_digits(p, a, b) for b in range(fq.q)] for a in range(fq.q)]
