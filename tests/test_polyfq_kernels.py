"""polyfq's coefficient kernels and its packed map h -> h^q mod f against the
oracles that make one SmallField call per coefficient (tests/bruteforce.py),
by property tests."""

import pytest

import bruteforce as bf
from pnfield import polyfq as pf
from pnfield.smallfield import SmallField

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# F_2, F_7, F_{2^4}, F_{3^3}, F_{7^2} and F_{2^31-1}: both characteristics,
# the three kernels (integers mod p, XOR with product rows, sum rows) and a
# prime too large for any table
KERNEL_FIELDS = [SmallField(2, 1), SmallField(7, 1), SmallField(2, 4), SmallField(3, 3),
                 SmallField(7, 2), SmallField(2**31 - 1, 1)]


@st.composite
def _field_and_polys(draw, count, max_len=9):
    fq = draw(st.sampled_from(KERNEL_FIELDS))
    coeff = st.integers(0, fq.q - 1)
    polys = [pf.poly_trim(draw(st.lists(coeff, max_size=max_len))) for _ in range(count)]
    return (fq, *polys)


_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def _ring_op(fq, name, *polys):
    """The packed core's operation name on polys, as tuples."""
    ring = pf._packed(fq)
    return ring.unpack(getattr(ring, name)(*map(ring.pack, polys)))


def _pow_mod(fq, base, e, mod):
    """base^e mod mod by the packed core's power and reducer."""
    ring = pf._packed(fq)
    reduce = ring.reducer(ring.pack(mod))
    return ring.unpack(ring.power(reduce(ring.pack(base)), e, reduce))


@_PROPERTY
@given(_field_and_polys(2))
def test_kernels_match_the_per_coefficient_oracles(case):
    fq, f, g = case
    assert pf.poly_mul(fq, f, g) == bf.poly_mul_by_calls(fq, f, g)
    assert _ring_op(fq, "add", f, g) == bf.poly_add_by_calls(fq, f, g)
    assert _ring_op(fq, "sub", f, g) == bf.poly_add_by_calls(fq, f, g, sub=True)
    for c in (0, 1, fq.q - 1, len(f) % fq.q):
        assert pf.poly_eval(fq, f, c) == bf.poly_eval_by_calls(fq, f, c)
    if g:
        assert pf.poly_divmod(fq, f, g) == bf.poly_divmod_by_calls(fq, f, g)
        assert pf.poly_mod(fq, f, g) == bf.poly_divmod_by_calls(fq, f, g)[1]
    if f or g:
        assert pf.poly_gcd(fq, f, g) == bf.poly_gcd_by_calls(fq, f, g)
    if f:
        assert _ring_op(fq, "monic", f) == bf.poly_mul_by_calls(fq, (fq.inv(f[-1]),), f)


@_PROPERTY
@given(_field_and_polys(2, max_len=6), st.integers(0, 2**20), st.integers(0, 5))
def test_powers_match_the_per_coefficient_oracles(case, e, small):
    fq, base, mod = case
    if mod:  # constant moduli too, where every power is zero
        assert _pow_mod(fq, base, e, mod) == bf.poly_pow_mod_by_calls(fq, base, e, mod)
    want = (1,)
    for _ in range(small):
        want = bf.poly_mul_by_calls(fq, want, base)
    ring = pf._packed(fq)
    assert ring.unpack(ring.power(ring.pack(base), small)) == want


def _packed_q_power(fq, mod, h):
    """h^q mod mod through the packed core's map for the monic mod."""
    ring = pf._packed(fq)
    _, q_power = ring.q_power(ring.monic(ring.pack(mod)))
    return ring.unpack(q_power(ring.pack(h)))


@_PROPERTY
@given(_field_and_polys(2, max_len=7), st.integers(0, 2**40))
def test_pow_mod_and_q_power_map_match_the_oracles(case, e):
    fq, base, mod = case
    if pf.poly_deg(mod) < 1:
        return
    assert _pow_mod(fq, base, e, mod) == bf.poly_pow_mod_by_calls(fq, base, e, mod)
    # the packed map h -> h^q mod mod: squarings for p = 2; for odd p both
    # ways of building its Q-matrix rows occur here (q <= 4·deg mod, and q
    # above it for F_7, F_27, F_49, F_{2^31-1})
    h = pf.poly_mod(fq, base, mod)
    want = bf.poly_pow_mod_by_calls(fq, h, fq.q, mod)
    assert _packed_q_power(fq, mod, h) == want
    assert bf.q_power_map_by_rows(fq, _ring_op(fq, "monic", mod))(h) == want


@pytest.mark.parametrize("fq", KERNEL_FIELDS, ids=repr)
def test_q_power_map_modulo_powers_of_x(fq):
    # modulo x^j, x^q mod f is the zero polynomial whenever q >= j
    for mod in ((0, 1), (0, 0, 1), (0, 0, 0, 1)):
        for h in ((), (1,), (0, 1), (fq.q - 1, 1, fq.q - 1)):
            h = pf.poly_mod(fq, h, mod)
            assert _packed_q_power(fq, mod, h) == bf.poly_pow_mod_by_calls(fq, h, fq.q, mod), (mod, h)
