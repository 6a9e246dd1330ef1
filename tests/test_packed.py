"""The packed polynomial core of polyfq (_Packed, _ben_or) against the tuple
Ben-Or oracle of tests/bruteforce.py and against sympy."""

import itertools
import random

import pytest

import bruteforce as bf
from pnfield import polyfq as pf
from pnfield.smallfield import SmallField, canonical_field

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

BEN_OR_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49)


@st.composite
def _monic(draw, max_degree=14):
    fq = canonical_field(draw(st.sampled_from(BEN_OR_QS)))
    d = draw(st.integers(0, max_degree))
    return fq, tuple(draw(st.lists(st.integers(0, fq.q - 1), min_size=d, max_size=d))) + (1,)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_monic())
def test_packed_ben_or_matches_the_tuple_oracle(case):
    fq, f = case
    assert pf.is_irreducible(fq, f) == bf.is_irreducible_by_ben_or(fq, f), f


def _sympy_irreducible(p):
    gt = pytest.importorskip("sympy.polys.galoistools")
    zz = pytest.importorskip("sympy.polys.domains").ZZ
    return lambda f: gt.gf_irreducible_p(list(reversed(f)), p, zz)


@pytest.mark.parametrize("p,top", [(2, 10), (7, 4)])
def test_packed_ben_or_matches_sympy_exhaustively(p, top):
    fq, irreducible = canonical_field(p), _sympy_irreducible(p)
    for d in range(1, top + 1):
        for f in pf.monic_polys(fq, d):
            assert pf.is_irreducible(fq, f) == irreducible(f), f


# one field per kind of slot: bits (p = 2), 8-bit slots with k = 1 and
# k > 1, 16-bit slots (F_{19^2}) and the wide slots of a large prime
SLOT_FIELDS = [SmallField(2, 1), SmallField(2, 4), SmallField(3, 1), SmallField(7, 2),
               SmallField(19, 2), SmallField(2**31 - 1, 1)]


@pytest.mark.parametrize("fq", SLOT_FIELDS, ids=repr)
def test_pack_unpack_round_trip_at_the_widest_slot(fq):
    ring, rng = pf._packed(fq), random.Random(fq.q)
    for _ in range(50):
        f = pf.poly_trim(rng.randrange(fq.q) for _ in range(rng.randrange(12)))
        a = ring.pack(f)
        assert ring.unpack(a) == f
        assert ring.degree(a) == pf.poly_deg(f)
        if fq.p == 2:
            continue
        # every slot raised by a multiple of p up to the largest value a slot
        # may hold between two normalizations, (p - 1) + budget·(p - 1)^2
        top = (fq.p - 1) ** 2 * ring.budget // fq.p
        slots = fq.k * len(f)
        wide = a + sum(rng.randrange(top + 1) * fq.p << s * ring.W for s in range(slots))
        assert fq.p - 1 + top * fq.p < 1 << ring.W  # no slot carries into the next
        assert ring.unpack(wide) == f
        assert ring.normalize(wide) == a
        assert all(ring.coeff(wide, i) == c for i, c in enumerate(f))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16])
def test_is_irreducible_rejects_a_linear_factor_with_nothing_between(q):
    # (x - c)·g with g irreducible of degree d - 1: for d = 2, 3 the loop
    # runs j = 1 only, so its gcd alone rejects f, and the public test must
    # not skip it as first_irreducible does for its sieved candidates (for
    # d >= 4 the linear factor divides x^(q^2) - x as well)
    fq = canonical_field(q)
    for d in range(2, 7):
        g = pf.first_irreducible(fq, d - 1)
        for c in {0, 1, q - 1}:
            f = pf.poly_mul(fq, (fq.neg(c), 1), g)
            assert not pf.is_irreducible(fq, f), f
            assert not bf.is_irreducible_by_ben_or(fq, f), f


@pytest.mark.parametrize("q,d", [(2, 9), (3, 7), (4, 8), (5, 6), (9, 5), (16, 8)])
def test_sieved_ben_or_agrees_on_the_first_candidates(q, d):
    # the gcd at j = 1 is skipped only for rootless candidates, where it is 1
    fq = canonical_field(q)
    ring = pf._packed(fq)
    for f in itertools.islice(pf._rootless_monic_polys(ring, d), 300):
        assert pf._ben_or(ring, f, 2) == pf.is_irreducible(fq, ring.unpack(f)), f


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25])
def test_packed_gcd_matches_poly_gcd(q):
    fq, rng = canonical_field(q), random.Random(q)
    ring = pf._packed(fq)
    for _ in range(200):
        f, g = (pf.poly_trim(rng.randrange(q) for _ in range(rng.randrange(10))) for _ in range(2))
        if not f and not g:
            continue
        got = ring.unpack(ring.monic(ring.gcd(ring.pack(f), ring.pack(g))))
        want = pf.poly_gcd(fq, f, g)
        # the packed gcd stops at the first nonzero constant
        assert got == want or pf.poly_deg(got) == pf.poly_deg(want) == 0, (f, g)


# _pack reads a chunk of c digits per divmod, c the most with p^c <= 256;
# _unpack reads 8-bit slots by translate
CHUNK_DIGITS = {3: 5, 5: 3, 7: 2, 11: 2, 13: 2, 17: 1, 257: 1}
PACK_PRIMES = tuple(CHUNK_DIGITS)
PACK_WIDTHS = (8, 16, 24)
# the widths that hold a digit of p (not 8 bits for p = 257)
PACK_SLOTS = [(p, bits) for p in PACK_PRIMES for bits in PACK_WIDTHS if p - 1 < 1 << bits]


def _pack_cases(p):
    """0, and around the first three chunk boundaries each digit count with
    all digits p - 1 and with a single top digit 1."""
    c = CHUNK_DIGITS[p]
    counts = sorted({d for j in (1, 2, 3) for d in (j * c - 1, j * c, j * c + 1) if d > 0})
    return [0] + [p**d - 1 for d in counts] + [p ** (d - 1) for d in counts]


@pytest.mark.parametrize("p,bits", PACK_SLOTS)
def test_pack_matches_the_per_digit_definition(p, bits):
    base, packed, step = pf._chunks(p, bits)
    assert (base, step) == (p ** CHUNK_DIGITS[p], CHUNK_DIGITS[p] * bits)
    # a table of at most 256 entries, or for one digit per chunk no table
    assert packed == range(p) if step == bits else len(packed) == base <= 256
    for a in _pack_cases(p):
        assert pf._pack(a, p, bits) == bf.pack_by_digits(a, p, bits), a
        assert pf._unpack(pf._pack(a, p, bits), p, bits) == a, a


@pytest.mark.parametrize("bits", PACK_WIDTHS)
@pytest.mark.parametrize("p", PACK_PRIMES)
def test_unpack_matches_the_per_slot_definition(p, bits):
    top = (1 << bits) - 1
    # int() takes any 640 digits, and by default refuses more than 4300
    for slots in (1, 2, 5, 6, 41, 640, 641, 4301):
        for t in (0, int.from_bytes(bytes([255]) * (slots * bits // 8), "little"),
                  sum((top - s % p) << s * bits for s in range(slots))):
            assert pf._unpack(t, p, bits) == bf.unpack_by_slots(t, p, bits), (slots, t)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(PACK_PRIMES), st.sampled_from(PACK_WIDTHS), st.integers(0, 60), st.data())
def test_pack_and_unpack_on_drawn_inputs(p, bits, digits, data):
    a = data.draw(st.integers(0, p**digits - 1))
    if p - 1 < 1 << bits:
        assert pf._pack(a, p, bits) == bf.pack_by_digits(a, p, bits), a
    t = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=digits))
    t = sum(v << i * bits for i, v in enumerate(t))
    assert pf._unpack(t, p, bits) == bf.unpack_by_slots(t, p, bits), t
