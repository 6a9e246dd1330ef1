"""Dense polynomial arithmetic over F_q and the polynomial-side totients.

Polynomials are tuples of integer-encoded F_q coefficients, ascending degree,
with no trailing zeros; the zero polynomial is the empty tuple and its degree
is the sentinel -1 (a plain Python int, never an unsigned cast).

The kernels bind the coefficient arithmetic once per call (see _kernel).
The totient Φ_q, Möbius μ_q, σ_q and the Ω_q factor counts all operate on
certified factorizations of x^n - 1.

Ben-Or's irreducibility test (1981) and the distinct-degree split of x^n - 1
run on packed polynomials instead (_Packed, _ben_or): one integer per
polynomial, the base-p digit of x^i·y^t (F_q = F_p[y]/(m)) in slot i·k + t,
the layout field.py packs elements in with the same _pack and _unpack.  For
p = 2 a slot is a bit and a sum an XOR; for odd p a slot is wide enough for
the integer sums between two reductions of every slot mod p.  Euclid's steps
add a multiple c·b of the divisor, summed from its k digit planes y^t·b;
h -> h^q mod f is k squarings for p = 2, and for odd p the F_p-linear map of
the Q-matrix (von zur Gathen and Shoup 1992).  Tuples are converted only at
the boundary of those functions.

first_irreducible drops candidates with a root in F_q first (the root sieve).
A candidate left has no linear factor, so gcd(x^q - x, f) = 1 and its Ben-Or
test starts at j = 2; the public is_irreducible, which certifies user moduli
and every factor of a PolyFactorization, runs every j from 1.  The tuple
Q-matrix and Ben-Or test are kept as oracles in tests/bruteforce.py.
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


def _kernel(fq):
    """(add, scale, norm) map coefficient vectors to xs + ys and c·ys, and norm
    (unless None) reduces one coefficient: integers mod p for k = 1; for k > 1
    rows of F_q's product and (odd p) sum tables; a FieldCtx's own methods."""
    if isinstance(fq, smallfield.SmallField):
        return _table_kernel(fq)
    return functools.partial(map, fq.add), lambda c, ys: map(fq.mul, itertools.repeat(c), ys), None


@functools.lru_cache(maxsize=16)
def _table_kernel(fq: SmallField):
    if fq.k == 1:
        return (functools.partial(map, operator.add),
                lambda c, ys: map(operator.mul, itertools.repeat(c), ys), fq.p.__rmod__)
    products, sums = fq.table_rows()
    rows = [row.__getitem__ for row in products]
    add = (functools.partial(map, operator.xor) if sums is None
           else lambda xs, ys: map(operator.getitem, map(sums.__getitem__, xs), ys))
    return add, lambda c, ys: map(rows[c], ys), None


def _combine(kernel, coeffs, vectors, size: int) -> list:
    """Σ coeffs[i]·vectors[i], reduced: one vector-matrix product."""
    add, scale, norm = kernel
    acc = [0] * size
    for c, vector in zip(coeffs, vectors):
        if c:
            acc = list(add(acc, scale(c, vector)))
    return acc if norm is None else [norm(a) for a in acc]


def _reduced(coeffs, norm) -> Poly:
    return poly_trim(coeffs if norm is None else map(norm, coeffs))


def poly_trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_deg(f: Poly) -> int:
    """Degree; -1 is the zero-polynomial sentinel."""
    return len(f) - 1


def poly_add(fq: SmallField, f: Poly, g: Poly) -> Poly:
    add, _, norm = _kernel(fq)
    if len(f) < len(g):
        f, g = g, f
    return _reduced([*add(f, g), *f[len(g):]], norm)


def poly_sub(fq: SmallField, f: Poly, g: Poly) -> Poly:
    return poly_add(fq, f, list(_kernel(fq)[1](fq.neg(1), g)))


def poly_mul(fq: SmallField, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    add, scale, norm = _kernel(fq)
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            out[i:i + len(g)] = add(out[i:i + len(g)], scale(a, g))
    return _reduced(out, norm)


def poly_divmod(fq: SmallField, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    add, scale, norm = _kernel(fq)
    dg, inv_lead = len(g) - 1, fq.inv(g[-1])
    h = list(scale(fq.neg(inv_lead), g[:-1]))  # adding c·h clears a top coefficient c
    rem, quot = list(f), [0] * max(0, len(f) - dg)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top] if norm is None else norm(rem[top])
        if c:
            quot[top - dg] = c
            rem[top - dg:top] = add(rem[top - dg:top], scale(c, h))
    return _reduced(scale(inv_lead, quot), norm), _reduced(rem[:dg], norm)


def poly_mod(fq: SmallField, f: Poly, g: Poly) -> Poly:
    return poly_divmod(fq, f, g)[1]


def poly_monic(fq: SmallField, f: Poly) -> Poly:
    if not f or f[-1] == 1:
        return f
    _, scale, norm = _kernel(fq)
    return _reduced(scale(fq.inv(f[-1]), f), norm)


def poly_gcd(fq: SmallField, f: Poly, g: Poly) -> Poly:
    """Monic gcd via Euclid; gcd(0, 0) is a domain error."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    while g:
        f, g = g, poly_mod(fq, f, g)
    return poly_monic(fq, f)


def poly_pow_mod(fq: SmallField, base: Poly, e: int, mod: Poly) -> Poly:
    result = poly_mod(fq, ONE, mod)
    base = poly_mod(fq, base, mod)
    while e:
        if e & 1:
            result = poly_mod(fq, poly_mul(fq, result, base), mod)
        base = poly_mod(fq, poly_mul(fq, base, base), mod)
        e >>= 1
    return result


def poly_pow(fq: SmallField, base: Poly, e: int) -> Poly:
    result = ONE
    while e:
        if e & 1:
            result = poly_mul(fq, result, base)
        base = poly_mul(fq, base, base)
        e >>= 1
    return result


def poly_eval(fq: SmallField, f: Poly, c: int) -> int:
    add, scale, norm = _kernel(fq)
    acc = 0
    for a in reversed(f):
        acc, = add(scale(c, (acc,)), (a,))
        acc = acc if norm is None else norm(acc)
    return acc


def x_pow_n_minus_1(fq: SmallField, n: int) -> Poly:
    coeffs = [0] * (n + 1)
    coeffs[0] = fq.neg(1)
    coeffs[n] = 1
    return tuple(coeffs)


def monic_polys(fq: SmallField, d: int):
    """Monic degree-d polynomials, low coefficients cycling fastest."""
    places = [fq.q**i for i in range(d)]
    for enc in range(fq.q**d):
        yield tuple(enc // b % fq.q for b in places) + (1,)


# -- packed polynomials ---------------------------------------------------------
# A polynomial over F_q = F_p[y]/(m) is one integer: the base-p digit of x^i·y^t
# sits in slot i·k + t, a slot being W bits (see _Packed).  This is the layout
# field.py packs elements of F_{q^n} in, so _pack and _unpack serve both.


def _pack(a: int, p: int, bits: int) -> int:
    """The base-p digits of a, one per bits-wide slot, low digit lowest.

    For p = 2 nothing is summed in integers (sums are XORs), so a stays as
    it is.
    """
    if p == 2:
        return a
    out = shift = 0
    while a:
        a, c = divmod(a, p)
        out |= c << shift
        shift += bits
    return out


def _unpack(t: int, p: int, bits: int) -> int:
    """Inverse of _pack for slots holding any nonnegative value below
    2^bits: each slot is reduced mod p once and becomes a base-p digit."""
    if p == 2:
        return t
    mask = (1 << bits) - 1
    val, mult = 0, 1
    while t:
        val += (t & mask) % p * mult
        t >>= bits
        mult *= p
    return val


class _Packed:
    """Packed polynomials over one F_q (see _packed), with Euclid and the map
    h -> h^q mod f on them.

    For p = 2 a slot is one bit and a sum is an XOR, so every integer is
    normalized.  For odd p a sum is an integer sum, and a normalized integer
    has every slot below p.  Adding a digit times a normalized polynomial adds
    at most (p - 1)^2 to a slot, and `budget` such additions fit in a slot of
    W bits before the slots must be reduced mod p again.  W is 8 whenever the
    k additions of one F_q multiple fit, so that the reduction is one
    bytes.translate.
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

    def pack(self, f: Poly) -> int:
        a = 0
        for c in reversed(f):
            a = a * self.q + c
        return _pack(a, self.p, self.W)

    def unpack(self, a: int) -> Poly:
        """The coefficient tuple of a packed polynomial, any slots below 2^W."""
        a, q = _unpack(a, self.p, self.W), self.q
        out = []
        while a:
            a, c = divmod(a, q)
            out.append(c)
        return tuple(out)

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

    def sub_x(self, h: int) -> int:
        """h - x, normalized."""
        if self.p == 2:
            return h ^ self.x
        return self.normalize(h + (self.p - 1) * self.x)

    def _planes(self, b: int) -> list:
        """[b, y·b, ..., y^(k-1)·b] for normalized b, normalized; y·b moves
        every coefficient at once, and none past the top one."""
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

    def _canceller(self, b: int, db: int, tabulate: bool = False):
        """c -> -(c/lead)·b, the multiple of b (normalized, degree db) that
        clears a coefficient c when added at it.  For k > 1 it sums the digit
        planes y^t·b, or with tabulate reads a table of all q multiples built
        by subset sums of the planes (method of four Russians), for a divisor
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
        digits = self._digits
        if p == 2:
            return lambda c: functools.reduce(operator.xor, itertools.compress(planes, digits[row[c]]), 0)
        return lambda c: sum(map(operator.mul, digits[row[c]], planes))

    def _rem(self, a: int, db: int, cancel) -> int:
        """a mod b, normalized, for normalized a and cancel = _canceller(b, db)."""
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

    def gcd(self, a: int, b: int) -> int:
        """A gcd of normalized a and b, not made monic; it stops at a nonzero
        constant, so the degree is all a coprimality test reads."""
        while b:
            db = self.degree(b)
            if db == 0:
                return b
            a, b = b, self._rem(a, db, self._canceller(b, db))
        return a

    def _apply(self, h: int, cols: list) -> int:
        """Σ h_s·cols[s] over the slots s of normalized h (odd p), normalized:
        the F_p-linear map with normalized columns cols."""
        n, W, budget = len(cols), self.W, self.budget
        if self._mod8 is not None:
            digits = h.to_bytes(n, "little")
        else:
            mask = (1 << W) - 1
            digits = [(h >> s * W) & mask for s in range(n)]
        acc = count = 0
        for v, col in zip(digits, cols):
            if v:
                acc += v * col
                count += 1
                if count == budget:
                    acc, count = self.normalize(acc), 0
        return self.normalize(acc)

    def _mul(self, a: int, b: int) -> int:
        """a·b, normalized, for normalized a and b (odd p)."""
        planes, cw = self._planes(b), self.cw
        return self._apply(a, [plane << i * cw for i in range(self.degree(a) + 1) for plane in planes])

    def _square(self, h: int) -> int:
        """h^2 for p = 2: each chunk of coefficients through the squares table."""
        sq, bits = self._sq, self._sq_bits
        mask = (1 << bits) - 1
        out = shift = 0
        while h:
            out |= sq[h & mask] << shift
            h >>= bits
            shift += 2 * bits
        return out

    def q_power(self, f: int):
        """(reduce, power) for normalized monic f of degree d >= 1: a -> a mod f,
        and h -> h^q mod f for deg h < d.  For p = 2 the power is k squarings,
        each reduced at once.  For odd p it is the F_p-linear map whose column
        for the digit of y^t·x^i is y^t·x^(iq) mod f (the Q-matrix, von zur
        Gathen and Shoup 1992), as (c·x^i)^q = c·x^(iq) on F_q; the rows x^(iq)
        are built by q steps of "times x" each, or for q > 4d by products with
        x^q mod f, itself by square and multiply."""
        d = self.degree(f)
        cancel, rem = self._canceller(f, d, tabulate=True), self._rem

        def reduce(a):
            return rem(a, d, cancel)

        if self.p == 2:
            square, k = self._square, self.k

            def power(h):
                for _ in range(k):
                    h = rem(square(h), d, cancel)
                return h
            return reduce, power
        rows, q = [1], self.q
        if q > 4 * d:
            big_x = x = reduce(self.x)
            for bit in bin(q)[3:]:
                big_x = reduce(self._mul(big_x, big_x))
                if bit == "1":
                    big_x = reduce(self._mul(big_x, x))
            while len(rows) < d:
                rows.append(reduce(self._mul(rows[-1], big_x)))
        else:
            # times x: one shift, and the coefficient of x^d cleared and cut off
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


def _ben_or(fq: SmallField, f: Poly, first: int = 1) -> bool:
    """Ben-Or's distinct-degree test on packed polynomials: f is irreducible
    iff gcd(x^(q^j) - x, f) = 1 for every j <= deg(f)/2.  The gcds start at
    j = first; first = 2 is sound only for an f known to have no root in F_q,
    whose gcd at j = 1 is 1."""
    d = poly_deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False
    ring = _packed(fq)
    f = ring.pack(poly_monic(fq, f))
    _, q_power = ring.q_power(f)
    h = ring.x
    for j in range(1, d // 2 + 1):
        h = q_power(h)
        if j >= first and ring.degree(ring.gcd(f, ring.sub_x(h))) != 0:
            return False
    return True


def is_irreducible(fq: SmallField, f: Poly) -> bool:
    """Deterministic irreducibility certification by the Ben-Or
    distinct-degree test, every gcd from j = 1 on: a reducible f is rejected
    at the smallest degree of its irreducible factors; never probabilistic.
    """
    return _ben_or(fq, f)


def _rootless_monic_polys(fq: SmallField, d: int):
    """monic_polys(fq, d) without the polynomials that have a root in F_q: a
    block of q candidates shares h = f - f(0), h + c0 has a root iff -c0 is a
    value of h, and all q values are one combination of the columns (c^i)."""
    kernel, points = _kernel(fq), range(fq.q)
    powers = [[fq.pow(c, i) for c in points] for i in range(1, d + 1)]
    for high in monic_polys(fq, d - 1):
        roots = {fq.neg(v) for v in _combine(kernel, high, powers, fq.q)}  # c0 giving a root
        yield from ((c0,) + high for c0 in points if c0 not in roots)


def first_irreducible(fq: SmallField, d: int) -> Poly:
    """First monic irreducible of degree d in monic_polys order: the
    lexicographically smallest, coefficients compared low-to-high.  For
    q <= 512 a root sieve drops candidates first (a block costs q·d steps, and
    larger q find one early); Ben-Or's test certifies every one left, from
    j = 2 on, as the sieve has settled j = 1."""
    sieved = d >= 2 and fq.q <= 512
    for f in (_rootless_monic_polys if sieved else monic_polys)(fq, d):
        if _ben_or(fq, f, 2 if sieved else 1):
            return f
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
        prod = ONE
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
            prod = poly_mul(self.fq, prod, poly_pow(self.fq, factor, exp))
        if prod != self.value:
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


def _split_equal_degree(fq: SmallField, g: Poly, d: int) -> list[Poly]:
    """Split g (product of distinct irreducibles, all of degree d) completely."""
    if poly_deg(g) == d:
        return [poly_monic(fq, g)]
    q = fq.q
    rng = rng_for(_EDF_SEED, "edf", fq.q, tuple(g), d)
    work = [g]
    done: list[Poly] = []
    while work:
        h = work.pop()
        if poly_deg(h) == d:
            done.append(poly_monic(fq, h))
            continue
        while True:
            u = poly_trim(rng.randrange(q) for _ in range(poly_deg(h)))
            if poly_deg(u) < 1:
                continue
            if fq.p == 2:
                # char 2: additive trace map T(u) = sum u^(2^i) splits kernels
                t = poly_mod(fq, u, h)
                acc = t
                for _ in range(fq.k * d - 1):
                    t = poly_mod(fq, poly_mul(fq, t, t), h)
                    acc = poly_add(fq, acc, t)
                w = acc
            else:
                w = poly_pow_mod(fq, u, (q**d - 1) // 2, h)
                w = poly_sub(fq, w, ONE)
            if not w:
                continue
            cand = poly_gcd(fq, w, h)
            if 0 < poly_deg(cand) < poly_deg(h):
                work.append(cand)
                work.append(poly_divmod(fq, h, cand)[0])
                break
    return done


def _factor_squarefree(fq: SmallField, f: Poly) -> list[Poly]:
    """Distinct-degree then equal-degree splitting of a squarefree monic f:
    the distinct-degree part on packed polynomials, as in _ben_or."""
    factors: list[Poly] = []
    ring = _packed(fq)
    rest = ring.pack(poly_monic(fq, f))
    h, d, reduce = ring.x, 0, None
    while ring.degree(rest) > 0:
        d += 1
        if 2 * d > ring.degree(rest):
            factors.append(ring.unpack(rest))
            break
        if reduce is None:  # the maps of this rest
            reduce, q_power = ring.q_power(rest)
            h = reduce(h)
        h = q_power(h)
        g = ring.gcd(rest, ring.sub_x(h))
        if ring.degree(g) > 0:
            g = poly_monic(fq, ring.unpack(g))
            factors.extend(_split_equal_degree(fq, g, d))
            rest, reduce = ring.pack(poly_divmod(fq, ring.unpack(rest), g)[0]), None
    return factors


def factor_x_n_minus_1_over(fq: SmallField, n: int) -> PolyFactorization:
    """Factor x^n - 1 over the given coefficient field.

    With n = m·p^v and p not dividing m, x^n - 1 = (x^m - 1)^(p^v) and
    x^m - 1 is squarefree; every irreducible factor therefore carries the
    exponent p^v.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = fq.p
    m, pv = n, 1
    while m % p == 0:
        m //= p
        pv *= p
    factors = _factor_squarefree(fq, x_pow_n_minus_1(fq, m))
    factors.sort(key=lambda f: (poly_deg(f), f))
    entries = tuple((f, pv) for f in factors)
    return PolyFactorization(fq=fq, entries=entries, value=x_pow_n_minus_1(fq, n))


def factor_x_n_minus_1(q: int, n: int) -> PolyFactorization:
    """Factor x^n - 1 over the canonical F_q."""
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
    p, _ = is_prime_power(q)
    m, pv = n, 0
    while m % p == 0:
        m //= p
        pv += 1
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


def monic_divisors(fact: PolyFactorization) -> list[Poly]:
    """All monic divisors, sorted by (degree, coefficients): the whole lattice."""
    divs = [fact.divisor(exps) for exps in fact.exponent_vectors()]
    return sorted(divs, key=lambda f: (poly_deg(f), f))


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
