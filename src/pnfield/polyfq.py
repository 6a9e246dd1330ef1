"""Dense polynomial arithmetic over F_q and the polynomial-side totients.

At the public boundary a polynomial is a tuple of integer-encoded F_q
coefficients, ascending degree, with no trailing zeros; the zero polynomial
is the empty tuple and its degree is the sentinel -1 (a plain Python int).
Every public function packs its tuples, computes on packed polynomials
(_Packed) and unpacks the result: one integer per polynomial, the base-p
digit of x^i·y^t (F_q = F_p[y]/(m)) in slot i·k + t, the layout field.py
packs elements in with the same _pack and _unpack.  For p = 2 a slot is a bit,
a sum an XOR and a product over F_2 carry-less (_clmul, shared with field.py);
for odd p a slot is wide enough for the integer sums between two reductions
of every slot mod p.  Other products, and Euclid's multiples of a divisor b,
are sums of its digit planes y^t·b; h -> h^q mod f is k squarings for p = 2
and for odd p the F_p-linear map of the Q-matrix (von zur Gathen and Shoup).
Every such map (a product's, the Q-matrix, the root sieve's, and for odd p
every map of field.py) runs through one applier, _Packed._apply.

Ben-Or's irreducibility test (1981) and the factorization of x^n - 1 (by
degree, then within each degree by Cantor and Zassenhaus 1981) run packed
from start to end.  first_irreducible drops candidates with a root in F_q
first (the root sieve), so their Ben-Or test starts at j = 2; the public
is_irreducible runs every j from 1.  Φ_q, μ_q, σ_q and the Ω_q factor counts
operate on certified factorizations of x^n - 1.  tests/bruteforce.py keeps
the tuple arithmetic, Q-matrix and Ben-Or test as oracles.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from . import smallfield
from .errors import ConsistencyError, FieldSpecError
from .numtheory import divisors, euler_phi, is_prime_power, multiplicative_order
from .seeds import rng_for

if TYPE_CHECKING:
    from .smallfield import SmallField

Poly = tuple

ZERO: Poly = ()
ONE: Poly = (1,)

_EDF_SEED = 271828182845  # fixed internal seed: splitting is reproducible
_INT_DIGITS = 640  # int(s, p) takes this many digits under any digit limit


def poly_trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_deg(f: Poly) -> int:
    """Degree; -1 is the zero-polynomial sentinel."""
    return len(f) - 1


def poly_mul(fq: SmallField, f: Poly, g: Poly) -> Poly:
    ring = _packed(fq)
    return ring.unpack(ring.mul(ring.pack(f), ring.pack(g)))


def poly_divmod(fq: SmallField, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    ring = _packed(fq)
    quot, rem = ring.divmod(ring.pack(f), ring.pack(g))
    return ring.unpack(quot), ring.unpack(rem)


def poly_mod(fq: SmallField, f: Poly, g: Poly) -> Poly:
    return poly_divmod(fq, f, g)[1]


def poly_gcd(fq: SmallField, f: Poly, g: Poly) -> Poly:
    """Monic gcd via Euclid; gcd(0, 0) is a domain error."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    ring = _packed(fq)
    return ring.unpack(ring.monic(ring.gcd(ring.pack(f), ring.pack(g))))


def poly_eval(fq, f: Poly, c: int) -> int:
    """f(c) by Horner's rule with the add and mul of fq, which may be any
    field holding the coefficients of f and c (a FieldCtx too)."""
    acc = 0
    for a in reversed(f):
        acc = fq.add(fq.mul(c, acc), a)
    return acc


def x_pow_n_minus_1(fq: SmallField, n: int) -> Poly:
    coeffs = [0] * (n + 1)
    coeffs[0] = fq.neg(1)
    coeffs[n] = 1
    return tuple(coeffs)


def monic_polys(fq: SmallField, d: int):
    """Monic degree-d polynomials, low coefficients cycling fastest."""
    ring = _packed(fq)
    return map(ring.unpack, _monic_candidates(ring, d))


@functools.lru_cache(maxsize=None)
def _chunks(p: int, bits: int) -> tuple:
    """(p^c, packed, c·bits), c the most digits with p^c <= 256 (p <= 13) or
    else 1: packed[v] is v < p^c packed in bits-wide slots (range(p) if c = 1)."""
    c = 1
    while p ** (c + 1) <= 256:
        c += 1
    if c == 1:
        return p, range(p), bits
    packed = [0]
    for i in range(c):
        packed = [t | d << i * bits for d in range(p) for t in packed]
    return p**c, packed, c * bits


@functools.lru_cache(maxsize=None)
def _digit_chars(p: int) -> bytes:
    """The translate table from a byte v to the base-p digit character of v mod p."""
    return bytes(b"0123456789abcdefghijklmnopqrstuvwxyz"[v % p] for v in range(256))


def _pack(a: int, p: int, bits: int) -> int:
    """The base-p digits of a, one per bits-wide slot, low digit lowest, read
    a chunk of digits per divmod (see _chunks); for p = 2, where sums are
    XORs, a itself."""
    if p == 2:
        return a
    base, packed, step = _chunks(p, bits)
    out = shift = 0
    while a:
        a, c = divmod(a, base)
        out |= packed[c] << shift
        shift += step
    return out


def _unpack(t: int, p: int, bits: int) -> int:
    """Inverse of _pack for slots holding any nonnegative value below
    2^bits: each slot is reduced mod p once and becomes a base-p digit.
    8-bit slots (p <= 36, and few enough that int() takes their string) are
    read by one translate to the digits int(..., p) reads."""
    if p == 2:
        return t
    if bits == 8 and p <= 36 and t.bit_length() <= 8 * _INT_DIGITS:
        return int(t.to_bytes((t.bit_length() + 7) // 8 or 1, "big").translate(_digit_chars(p)), p)
    mask = (1 << bits) - 1
    val, mult = 0, 1
    while t:
        val += (t & mask) % p * mult
        t >>= bits
        mult *= p
    return val


def _clmul(a: int, b: int) -> int:
    """The carry-less product of a and b (F_2[x], x^i at bit i), by chunks of
    four bits of b: the table of the products a·j for j < 16, then one lookup
    and shift per chunk."""
    a2, a4, a8 = a << 1, a << 2, a << 3
    a3, a12 = a ^ a2, a4 ^ a8
    table = [0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
             a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3]
    prod = shift = 0
    while b:
        prod ^= table[b & 15] << shift
        b >>= 4
        shift += 4
    return prod


class _Packed:
    """Packed polynomials over one F_q (see _packed): sums, products,
    division, Euclid, powers and the map h -> h^q mod f.

    For p = 2 a slot is one bit and a sum is an XOR, so every integer is
    normalized.  For odd p a sum is an integer sum, and a normalized integer
    has every slot below p.  Adding a digit times a normalized polynomial adds
    at most (p - 1)^2 to a slot, and `budget` such additions fit in a slot of
    W bits before the slots must be reduced mod p again.  W is 8 whenever the
    k additions of one F_q multiple fit, so that the reduction is one
    bytes.translate.  Methods take and return normalized integers unless they
    say otherwise.
    """

    def __init__(self, fq: SmallField):
        p, k = fq.p, fq.k
        self.fq, self.p, self.k, self.q = fq, p, k, fq.q
        if p == 2:
            self.W = 1
        else:
            # (p - 1) + budget·(p - 1)^2 < 2^W: a normalized slot plus budget
            # additions, with room for one F_q multiple (k additions) at
            # W = 8 and for 16 of them above it
            unit = (p - 1) ** 2
            self.W = 8 if p - 1 + k * unit < 256 else -(-(p - 1 + 16 * k * unit).bit_length() // 8) * 8
            self.budget = ((1 << self.W) - p) // unit
        self.cw = k * self.W  # bits per coefficient
        self.cmask = (1 << self.cw) - 1
        self.x = 1 << self.cw
        self._mod8 = bytes(v % p for v in range(256)) if self.W == 8 else None
        # the packed constant of each element of F_q, if not the element itself
        self._slots = [_pack(c, p, self.W) for c in range(self.q)] if k > 1 and p > 2 else None
        if k > 1:
            # y·c moves each digit of c up one slot; the top digit t comes
            # back as t·y^k, where y^k = -(m_0 + ... + m_(k-1)·y^(k-1))
            self._wrap = _pack(fq.from_digits(-c for c in fq.modulus[:-1]), p, self.W)
            self._masks = (0, 0, 0)
            self._digits = [tuple(fq.digits(c)) for c in range(self.q)]
        if p == 2:
            # h^2 = Σ c_i^2·x^(2i): the squares of a chunk of c coefficients
            # (c·k <= 8 bits, or one coefficient), spread to every other slot
            c = max(1, 8 // k)
            self._sq_bits = c * k
            squares = [fq.mul(v, v) for v in range(self.q)]
            table = [0]
            for j in range(c):
                table = [s << 2 * j * k | t for s in squares for t in table]
            self._sq = table

    def pack(self, f) -> int:
        """The packed polynomial of a sequence of F_q coefficients, low first."""
        if self.k == 1 and self._mod8 is not None:
            return int.from_bytes(bytes(f), "little")
        a, cw, slots = 0, self.cw, self._slots
        for c in reversed(f):
            a = a << cw | (c if slots is None else slots[c])
        return a

    def unpack(self, a: int) -> Poly:
        """The coefficient tuple of a packed polynomial, any slots below 2^W."""
        coeffs = self.coefficients(a, -(-a.bit_length() // self.cw))
        return tuple(coeffs.rstrip(b"\0")) if isinstance(coeffs, bytes) else poly_trim(coeffs)

    def coefficients(self, a: int, n: int):
        """Coefficients 0..n-1 of a with slots below 2^W, as elements of F_q:
        bytes for k = 1 and 8-bit slots."""
        if self.k == 1 and self._mod8 is not None:
            return a.to_bytes(n, "little").translate(self._mod8)
        a, q, out = _unpack(a, self.p, self.W), self.q, []
        for _ in range(n):
            a, c = divmod(a, q)
            out.append(c)
        return out

    def normalize(self, a: int) -> int:
        """Every slot reduced mod p."""
        if self.p == 2:
            return a
        if self._mod8 is not None:
            return int.from_bytes(a.to_bytes((a.bit_length() + 7) // 8, "little").translate(self._mod8),
                                  "little")
        return _pack(_unpack(a, self.p, self.W), self.p, self.W)

    def degree(self, a: int) -> int:
        """Degree of a normalized polynomial; -1 for zero."""
        return (a.bit_length() - 1) // self.cw

    def coeff(self, a: int, i: int) -> int:
        """Coefficient i, as an element of F_q, of a with slots below 2^W."""
        c = (a >> i * self.cw) & self.cmask
        if self.p == 2:
            return c
        return c % self.p if self.k == 1 else _unpack(c, self.p, self.W)

    def _planes(self, b: int) -> list:
        """[b, y·b, ..., y^(k-1)·b], normalized; y·b moves every coefficient
        at once, and none past the top one."""
        k, W, cw = self.k, self.W, self.cw
        if k == 1:
            return [b]
        n = b.bit_length() // cw + 1
        if n > self._masks[0]:
            n *= 2
            ones = ((1 << n * cw) - 1) // self.cmask  # bit 0 of every coefficient
            self._masks = (n, ((1 << W) - 1) * ones, ((1 << (k - 1) * W) - 1) * ones)
        _, digit0, low = self._masks
        planes, top_shift, wrap = [b], (k - 1) * W, self._wrap
        for _ in range(k - 1):
            top = (b >> top_shift) & digit0
            b = (b & low) << 1 ^ top * wrap if W == 1 else self.normalize(((b & low) << W) + top * wrap)
            planes.append(b)
        return planes

    def _sum_planes(self, digits, planes) -> int:
        """Σ digits[t]·planes[t], unnormalized: at most k additions to a slot."""
        if self.p == 2:
            return functools.reduce(operator.xor, itertools.compress(planes, digits), 0)
        return sum(map(operator.mul, digits, planes))

    def add(self, a: int, b: int) -> int:
        return a ^ b if self.p == 2 else self.normalize(a + b)

    def sub(self, a: int, b: int) -> int:
        return a ^ b if self.p == 2 else self.normalize(a + (self.p - 1) * b)

    def monic(self, a: int) -> int:
        """a divided by its leading coefficient c, for a != 0: a times 1/c."""
        c = self.fq.inv(self.coeff(a, self.degree(a)))
        if self.k == 1:
            return self.normalize(c * a)
        return self.normalize(self._sum_planes(self._digits[c], self._planes(a)))

    def mul(self, a: int, b: int) -> int:
        """a·b: carry-less for F_2, otherwise Σ a_s·(y^t·b)·x^i over the slots
        s = i·k + t of a, the F_p-linear map with those columns."""
        if self.p == 2 and self.k == 1:
            return _clmul(a, b)
        planes, cw = self._planes(b), self.cw
        return self._apply(a, [plane << i * cw for i in range(self.degree(a) + 1) for plane in planes])

    def square(self, h: int) -> int:
        """h^2; for p = 2 each chunk of coefficients through the squares table."""
        if self.p != 2:
            return self.mul(h, h)
        sq, bits = self._sq, self._sq_bits
        mask = (1 << bits) - 1
        out = shift = 0
        while h:
            out |= sq[h & mask] << shift
            h >>= bits
            shift += 2 * bits
        return out

    def _canceller(self, b: int, db: int, tabulate: bool = False):
        """c -> -(c/lead)·b, the multiple of b (degree db) that clears a
        coefficient c when added at it.  For k > 1 it sums the digit planes
        y^t·b, or with tabulate reads a table of all q multiples built by
        subset sums of the planes (method of four Russians), for a divisor
        that clears many coefficients."""
        fq, p = self.fq, self.p
        e = fq.neg(fq.inv(self.coeff(b, db)))
        if self.k == 1:
            if p == 2:
                return [0, b].__getitem__
            if tabulate and p <= 512:
                return [c * e % p * b for c in range(p)].__getitem__
            return lambda c: c * e % p * b
        planes, row = self._planes(b), fq.table_rows()[0][e]
        if tabulate:
            table = [0]
            for plane in planes:
                table = (table + [v ^ plane for v in table] if p == 2 else
                         [v + j * plane for j in range(p) for v in table])
            return [table[v] for v in row].__getitem__
        digits, combine = self._digits, self._sum_planes
        return lambda c: combine(digits[row[c]], planes)

    def _rem(self, a: int, db: int, cancel) -> int:
        """a mod b for cancel = _canceller(b, db)."""
        if self.p == 2:
            k, lim, n = self.k, db * self.k, a.bit_length()
            while n > lim:
                s = (n - 1) // k
                a ^= cancel(a >> s * k) << (s - db) * k
                n = a.bit_length()
            return a
        cw, coeff, k, room = self.cw, self.coeff, self.k, self.budget - self.k
        count = 0
        for s in range(self.degree(a), db - 1, -1):
            c = coeff(a, s)
            if c:
                a += cancel(c) << (s - db) * cw
                count += k
                if count > room:
                    a, count = self.normalize(a), 0
        return self.normalize(a & ((1 << db * cw) - 1))

    def reducer(self, f: int):
        """a -> a mod f, for f != 0 that is the divisor of many reductions."""
        d = self.degree(f)
        cancel, rem = self._canceller(f, d, tabulate=True), self._rem
        return lambda a: rem(a, d, cancel)

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """(a div b, a mod b) for b != 0: each step adds the multiple of b
        that clears the top coefficient c, and c/lead joins the quotient."""
        db, cw, fq = self.degree(b), self.cw, self.fq
        inv, cancel, slots = fq.inv(self.coeff(b, db)), self._canceller(b, db), self._slots
        quot = 0
        for s in range(self.degree(a), db - 1, -1):
            c = self.coeff(a, s)
            if c:
                c_quot = fq.mul(c, inv)
                quot |= (c_quot if slots is None else slots[c_quot]) << (s - db) * cw
                a = self.add(a, cancel(c) << (s - db) * cw)
        return quot, a

    def gcd(self, a: int, b: int) -> int:
        """A gcd of a and b, not made monic; it stops at a nonzero constant,
        so the degree is all a coprimality test reads."""
        while b:
            db = self.degree(b)
            if db == 0:
                return b
            a, b = b, self._rem(a, db, self._canceller(b, db))
        return a

    def power(self, a: int, e: int, reduce=None) -> int:
        """a^e by square and multiply from the top bit of e; with reduce from
        reducer(f), and a reduced already, a^e mod f."""
        reduce = reduce or (lambda v: v)
        out = reduce(1)
        for bit in bin(e)[2:]:
            out = reduce(self.square(out))
            if bit == "1":
                out = reduce(self.mul(out, a))
        return out

    def _apply(self, h: int, cols: list, total: int = 0) -> int:
        """total + Σ h_s·cols[s] over the slots s of h, normalized: the F_p-linear
        map with normalized columns cols (at least as many as h has slots), for
        field.py too.  For odd p the columns weighted by the digits are summed at
        once if the digits sum to at most budget·(p - 1), else budget at a time."""
        if self.p == 2:
            return total ^ self._sum_planes(map(int, bin(h)[:1:-1]), cols)
        n, W, room = len(cols), self.W, self.budget
        digits = h.to_bytes(n, "little") if W == 8 else [(h >> s * W) & ((1 << W) - 1) for s in range(n)]
        if sum(digits) <= room * (self.p - 1):
            return self.normalize(sum(map(operator.mul, digits, cols), total))
        for start in range(0, n, room):
            total = self.normalize(sum(map(operator.mul, digits[start:start + room], cols[start:start + room]),
                                       total))
        return total

    def q_power(self, f: int):
        """(reduce, power) for monic f of degree d >= 1: a -> a mod f, and
        h -> h^q mod f for deg h < d.  For p = 2 the power is k squarings,
        each reduced at once.  For odd p it is the F_p-linear map whose column
        for the digit of y^t·x^i is y^t·x^(iq) mod f (the Q-matrix, von zur
        Gathen and Shoup 1992), as (c·x^i)^q = c·x^(iq) on F_q; the rows x^(iq)
        are built by q steps of "times x" each, or for q > 4d by products with
        x^q mod f, itself by square and multiply."""
        d, reduce = self.degree(f), self.reducer(f)
        if self.p == 2:
            def power(h):
                for _ in range(self.k):
                    h = reduce(self.square(h))
                return h
            return reduce, power
        rows, q = [1], self.q
        if q > 4 * d:
            big_x = self.power(reduce(self.x), q, reduce)
            while len(rows) < d:
                rows.append(reduce(self.mul(rows[-1], big_x)))
        else:
            # times x: one shift, and the coefficient of x^d cleared and cut off
            cancel = self._canceller(f, d, tabulate=True)
            cw, coeff, low, room = self.cw, self.coeff, (1 << d * self.cw) - 1, self.budget - self.k
            row = 1
            count = 0
            while len(rows) < d:
                for _ in range(q):
                    row <<= cw
                    c = coeff(row, d)
                    if c:
                        row = (row + cancel(c)) & low
                        count += self.k
                        if count > room:
                            row, count = self.normalize(row), 0
                row, count = self.normalize(row), 0
                rows.append(row)
        cols = [col for row in rows for col in self._planes(row)]
        return reduce, lambda h: self._apply(h, cols)


@functools.lru_cache(maxsize=16)
def _packed(fq: SmallField) -> _Packed:
    return _Packed(fq)


def _ben_or(ring: _Packed, f: int, first: int = 1) -> bool:
    """Ben-Or's distinct-degree test of a packed monic f: f is irreducible
    iff gcd(x^(q^j) - x, f) = 1 for every j <= deg(f)/2.  The gcds start at
    j = first; first = 2 is sound only for an f known to have no root in F_q,
    whose gcd at j = 1 is 1."""
    d = ring.degree(f)
    if d <= 1 or not f & ring.cmask:  # a constant, linear, or divisible by x
        return d == 1
    _, q_power = ring.q_power(f)
    h = ring.x
    for j in range(1, d // 2 + 1):
        h = q_power(h)
        if j >= first and ring.degree(ring.gcd(f, ring.sub(h, ring.x))) != 0:
            return False
    return True


def is_irreducible(fq: SmallField, f: Poly) -> bool:
    """Deterministic irreducibility certification by the Ben-Or
    distinct-degree test, every gcd from j = 1 on: a reducible f is rejected
    at the smallest degree of its irreducible factors; never probabilistic."""
    ring = _packed(fq)
    return bool(f) and _ben_or(ring, ring.monic(ring.pack(f)))


def _monic_candidates(ring: _Packed, d: int):
    """The packed monic polynomials of degree d in monic_polys order: the
    base-q encodings q^d .. 2q^d - 1, their digits spread to slots."""
    p, bits = ring.p, ring.W
    return (_pack(enc, p, bits) for enc in range(ring.q**d, 2 * ring.q**d))


def _rootless_monic_polys(ring: _Packed, d: int):
    """_monic_candidates(ring, d) without those with a root in F_q: a block of
    q candidates h + c0 shares h = x·high, and has a root iff -c0 is a value
    of h.  The values, packed with h(c) as coefficient c, are Σ over the slots
    of high of its digits times the digit planes y^t·(c^i)_c."""
    fq, q, cw, points = ring.fq, ring.q, ring.cw, range(ring.q)
    cols, powers = [], list(points)  # powers: c^i at every point c, i = 1..d
    for _ in range(d):
        cols += ring._planes(ring.pack(powers))
        powers = list(map(fq.mul, powers, points))
    # the packed constant c0 of each block, and -c0
    consts = list(zip(ring._slots or points, map(fq.neg, points)))
    for high in _monic_candidates(ring, d - 1):
        values = set(ring.coefficients(ring._apply(high, cols), q))
        yield from (high << cw | c0 for c0, neg in consts if neg not in values)


def first_irreducible(fq: SmallField, d: int) -> Poly:
    """First monic irreducible of degree d in monic_polys order: the
    lexicographically smallest, coefficients compared low-to-high.  For
    q <= 512 a root sieve drops candidates first (a block costs q·d steps, and
    larger q find one early); Ben-Or's test certifies every one left, from
    j = 2 on, as the sieve has settled j = 1."""
    ring = _packed(fq)
    sieved = d >= 2 and fq.q <= 512
    for f in (_rootless_monic_polys if sieved else _monic_candidates)(ring, d):
        if _ben_or(ring, f, 2 if sieved else 1):
            return ring.unpack(f)
    raise ConsistencyError(f"no irreducible of degree {d} over F_{fq.q}")


@dataclass(frozen=True)
class PolyFactorization:
    """Factorization of `value` into monic irreducibles with exponents, and the
    lattice of its monic divisors Π r_i^(j_i), each keyed by its exponent
    vector (j_1, ..., j_t) over `entries`: d | d' is j <= j' componentwise.

    Every factor is re-certified irreducible on construction by the
    Ben-Or test (is_irreducible), and the product is verified to equal `value`.
    """

    fq: SmallField
    entries: tuple[tuple[Poly, int], ...]
    value: Poly
    _lattice: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        ring, prod = _packed(self.fq), 1
        for factor, exp in self.entries:
            if exp < 1:
                raise ConsistencyError("factor exponents must be positive")
            if not factor or factor[-1] != 1:
                raise ConsistencyError(f"factor {factor} is not monic")
            if factor in seen:
                raise ConsistencyError(f"repeated factor {factor}")
            seen.add(factor)
            if not is_irreducible(self.fq, factor):
                raise ConsistencyError(f"factor {factor} is reducible")
            prod = ring.mul(prod, ring.power(ring.pack(factor), exp))
        if ring.unpack(prod) != self.value:
            raise ConsistencyError("factor product does not equal value")
        self._lattice[(0,) * len(self.entries)] = ONE

    def distinct_factors(self) -> list[Poly]:
        return [f for f, _ in self.entries]

    def exponents(self) -> tuple[int, ...]:
        """The exponent vector of `value` itself, the top of the lattice."""
        return tuple(e for _, e in self.entries)

    def degree(self, exps: tuple[int, ...]) -> int:
        """The degree of the divisor with exponent vector exps."""
        return sum(poly_deg(f) * j for (f, _), j in zip(self.entries, exps))

    def divisor(self, exps: tuple[int, ...]) -> Poly:
        """The monic divisor Π r_i^(j_i) with exponent vector exps.

        Built on first use as the divisor one factor below it (the last
        nonzero j_i lowered by one) times r_i, so only the entries on that
        chain are ever built.
        """
        d = self._lattice.get(exps)
        if d is None:
            i = max(i for i, j in enumerate(exps) if j)
            below = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            d = poly_mul(self.fq, self.divisor(below), self.entries[i][0])
            self._lattice[exps] = d
        return d

    def exponent_vectors(self):
        """Every exponent vector of the lattice, the last component fastest."""
        return itertools.product(*(range(e + 1) for e in self.exponents()))


def _distinct_degree(ring: _Packed, f: int):
    """The distinct-degree split of a squarefree monic f by gcds with
    x^(q^d) - x: pairs (d, g), g the monic product of the irreducible factors
    of degree d; once 2d exceeds the degree of the rest, the rest is one."""
    h, d, reduce = ring.x, 0, None
    while ring.degree(f) > 0:
        d += 1
        if 2 * d > ring.degree(f):
            yield ring.degree(f), f
            return
        if reduce is None:  # the maps of this f
            reduce, q_power = ring.q_power(f)
            h = reduce(h)
        h = q_power(h)
        g = ring.gcd(f, ring.sub(h, ring.x))
        if ring.degree(g) > 0:
            g = ring.monic(g)
            yield d, g
            f, reduce = ring.divmod(f, g)[0], None


def _split_equal_degree(ring: _Packed, g: int, d: int, rng) -> list[int]:
    """Split the monic g, a product of distinct irreducibles all of degree d,
    completely (Cantor and Zassenhaus 1981), every random polynomial drawn
    from rng."""
    q, work, done = ring.q, [g], []
    while work:
        h = work.pop()
        dh = ring.degree(h)
        if dh == d:
            done.append(h)
            continue
        reduce = ring.reducer(h)
        while True:
            u = ring.pack([rng.randrange(q) for _ in range(dh)])
            if ring.degree(u) < 1:
                continue
            if ring.p == 2:
                # char 2: additive trace map T(u) = sum u^(2^i) splits kernels
                w = t = u
                for _ in range(ring.k * d - 1):
                    t = reduce(ring.square(t))
                    w ^= t
            else:
                w = ring.sub(ring.power(u, (q**d - 1) // 2, reduce), 1)
            if not w:
                continue
            cand = ring.monic(ring.gcd(w, h))
            if 0 < ring.degree(cand) < dh:
                work.append(cand)
                work.append(ring.divmod(h, cand)[0])
                break
    return done


def _split_p_part(n: int, p: int) -> tuple[int, int]:
    """(m, v) with n = m·p^v and p not dividing m, for n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return n, v


def factor_x_n_minus_1_over(fq: SmallField, n: int) -> PolyFactorization:
    """Factor x^n - 1 over the given coefficient field.

    With n = m·p^v and p not dividing m, x^n - 1 = (x^m - 1)^(p^v) and
    x^m - 1 is squarefree; every irreducible factor therefore carries the
    exponent p^v.  The split of each degree draws from a stream seeded by
    the degree and the coefficients of the product it splits.
    """
    m, v = _split_p_part(n, fq.p)
    ring, factors = _packed(fq), []
    for d, g in _distinct_degree(ring, ring.pack(x_pow_n_minus_1(fq, m))):
        rng = rng_for(_EDF_SEED, "edf", fq.q, ring.unpack(g), d) if ring.degree(g) > d else None
        factors.extend(map(ring.unpack, _split_equal_degree(ring, g, d, rng)))
    factors.sort(key=lambda f: (poly_deg(f), f))
    entries = tuple((f, fq.p**v) for f in factors)
    return PolyFactorization(fq=fq, entries=entries, value=x_pow_n_minus_1(fq, n))


@functools.lru_cache(maxsize=None)
def factor_x_n_minus_1(q: int, n: int) -> PolyFactorization:
    """Factor x^n - 1 over the canonical F_q, once per (q, n): a factorization
    only ever adds divisors to its lattice, so callers can share it."""
    return factor_x_n_minus_1_over(smallfield.canonical_field(q), n)


@dataclass(frozen=True)
class CyclotomicProfile:
    """Per-divisor irreducible-factor counts for x^n - 1 over F_q.

    Each row (d, ord_d q, φ(d)/ord_d q) describes how the d-th cyclotomic
    polynomial splits; p_exponent is v in n = m·p^v.
    """

    q: int
    n: int
    m: int
    p_exponent: int
    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        total = 0
        for d, order, count in self.rows:
            if euler_phi(d) != order * count:
                raise ConsistencyError(f"φ({d}) != ord·count")
            total += order * count
        if total != self.m:
            raise ConsistencyError("profile degrees do not sum to m")

    @property
    def omega(self) -> int:
        """Ω_q(x^n - 1): number of distinct irreducible factors."""
        return sum(count for _, _, count in self.rows)


def cyclotomic_factor_counts(q: int, n: int) -> CyclotomicProfile:
    """Ω_q(x^n - 1) via Σ_{d|m} φ(d)/ord_d(q), with the p-part stripped."""
    m, pv = _split_p_part(n, is_prime_power(q)[0])
    rows = []
    for d in divisors(m):
        order = 1 if d == 1 else multiplicative_order(q, d)
        rows.append((d, order, euler_phi(d) // order))
    return CyclotomicProfile(q=q, n=n, m=m, p_exponent=pv, rows=tuple(rows))


def phi_from_degrees(q: int, degree_exponents) -> int:
    """Φ_q of the polynomial Π r_i^(e_i) with deg r_i given as (deg, e) pairs.

    Exact integers throughout: multiplicatively, Φ_q(r^e) counts
    N(r)^e - N(r)^(e-1) residues coprime to r^e; pairs with e = 0 add nothing.
    """
    result = 1
    for deg, exp in degree_exponents:
        if exp:
            nr = q**deg
            result *= nr ** (exp - 1) * (nr - 1)
    return result


def poly_phi(fact: PolyFactorization) -> int:
    """Φ_q(f) = N(f)·Π(1 - N(r)^-1) over distinct irreducible factors r."""
    return phi_from_degrees(fact.fq.q, ((poly_deg(f), e) for f, e in fact.entries))


def poly_mobius(fact: PolyFactorization) -> int:
    """Signed μ_q: 0 unless squarefree, else (-1)^(number of factors)."""
    if any(exp >= 2 for _, exp in fact.entries):
        return 0
    return -1 if len(fact.entries) % 2 else 1


def poly_sigma(fact: PolyFactorization) -> int:
    """σ_q(f) = Σ q^deg(d) over the monic divisors d of f."""
    return sum(fact.fq.q ** fact.degree(exps) for exps in fact.exponent_vectors())


@dataclass(frozen=True)
class SigmaPhiCheck:
    q: int
    n: int
    lhs: Fraction
    rhs: Fraction
    holds: bool


def sigma_phi_identity_check(q: int, n: int) -> SigmaPhiCheck:
    """Both sides of the conjectured sigma-phi identity for x^n - 1.

    Tests σ_q(x^n-1)/(q^n-1) · Φ_q(x^n-1)/(q^n-1) against the product of
    (1 - q^-deg(r)) over distinct irreducible factors r, exactly as stated;
    equality generally fails and the result records the counterexample.
    """
    fact = factor_x_n_minus_1(q, n)
    sigma = poly_sigma(fact)
    phi = poly_phi(fact)
    qn = q**n
    lhs = Fraction(sigma, qn - 1) * Fraction(phi, qn - 1)
    rhs = Fraction(1)
    for factor, _ in fact.entries:
        rhs *= 1 - Fraction(1, q ** poly_deg(factor))
    return SigmaPhiCheck(q=q, n=n, lhs=lhs, rhs=rhs, holds=lhs == rhs)


def format_poly(fq: SmallField, f: Poly) -> str:
    """Comma-separated ascending coefficients; slashed F_p digits when k > 1."""
    if not f:
        return "0"
    if fq.k == 1:
        return ",".join(str(c) for c in f)
    return ",".join("/".join(str(d) for d in fq.digits(c)) for c in f)


def parse_coeff(fq: SmallField, part: str) -> int:
    """One F_q coefficient: slashed F_p digits, or a plain integer encoding
    (reduced mod p when k = 1); raises ValueError on malformed text."""
    if "/" in part:
        digits = [int(x) for x in part.split("/")]
        if len(digits) > fq.k:
            raise ValueError("too many F_p coordinates")
        return fq.from_digits(digits)
    val = int(part)
    if fq.k == 1:
        return val % fq.p
    if not 0 <= val < fq.q:
        raise ValueError("coordinate encoding out of range")
    return val


def parse_poly(fq: SmallField, text: str) -> Poly:
    """Inverse of format_poly; accepts plain integer encodings for any k."""
    text = text.strip()
    if text in ("", "0"):
        return ZERO
    coeffs = []
    for pos, part in enumerate(text.split(",")):
        part = part.strip()
        try:
            coeffs.append(parse_coeff(fq, part))
        except ValueError as exc:
            raise FieldSpecError(
                f"bad coefficient {part!r}: {exc}", text=text, position=pos
            ) from None
    return poly_trim(coeffs)
