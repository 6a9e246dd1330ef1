"""The tower F_p ⊂ F_q ⊂ F_{q^n}: construction, element arithmetic, Frobenius,
trace/norm, the linearized module action, both orders, and the primitive and
normal element tests.

Elements of F_{q^n} are integers in [0, q^n) encoding the coordinate vector
over F_q in base q (low coordinate in the low digit); each F_q coordinate is
itself a base-p digit vector.  Enumeration order is plain integer order, which
makes every "first witness" deterministic.

Up to the table cap a whole-field pass classifies every element at once: the
powers of the first primitive element g give the primitive mask by a sieve on
exponents (g^e is primitive iff gcd(e, q^n - 1) = 1), and the non-normal
elements are the union of the images r∘F_{q^n} over the irreducible factors
r(x) of x^n - 1.  Every F_p-linear map used here (Frobenius, the trace, r∘,
"times g", and below the fold of a product and the Horner step of a power) is
fixed by its columns, the images of the base-p unit vectors, normalized in
polyfq's slots, and applied by one kernel, _fold: for p = 2 one XOR table per
byte of slots (_map), for odd p polyfq's applier, shared with F_q[x], which
also packs elements into slots (_pack) and reads them back (_unpack).  The
pass tabulates "times g" and each image r∘F at every element at once (_span),
so a power of g costs one index.  The reference primitive normal element τ is
the first element set in both masks, and the exp/log tables of τ are read off
the powers of g.  The cap is the one boundary for data about the whole field:
above it there is no τ, no class count and no table, and asking for them
raises ResourceLimitError.

The module action r∘α = Σ r_i·α^(q^i) is such a map for each fixed r, and
every such map takes one route (_module_map): with n = c·p^e, p ∤ c, the
trace to F_{q^c} is S∘, S = Σ_{j < p^e} x^(cj) = (x^c - 1)^(p^e - 1), so r mod
x^n - 1 is read as r/S, of degree below c, on the Frobenius orbit of the
traces of the p^d where S divides it, as every cofactor (x^n - 1)/r (for
n = p^e, Perlis 1942: α is normal iff Tr(α) != 0), else as itself on the
orbit of the p^d (_orbit_map).  The divisors of x^n - 1 get their maps on
first use, keyed by exponent vector; the absolute trace reads the orbit of 1.

Multiplication runs through the exp/log tables of τ once the context is warmed
up.  Before that, and above the table cap, products run on the polynomial path
by one algorithm for every p and k (Kronecker substitution; von zur Gathen and
Gerhard, Modern Computer Algebra).  With F_q = F_p[y]/(m), an element in the
product layout has the base-p digit of x^i·y^t in slot i(2k - 1) + t, a bit
for p = 2 and otherwise polyfq's slot (8 bits for p <= 13), so one product of
two such integers (polyfq._clmul for p = 2) is their product in F_p[x, y].  Its
slot sums up to n·k·(p - 1)^2; where that could pass the slot's budget, one
factor is cut into planes whose products are added and normalized in turn (a
bytes.translate for 8-bit slots).  The fold adds back every slot that is not
yet a digit of the result in its place, by the map whose columns are the
slots' monomials x^s·y^u reduced mod (f, m).

Powers (pow, and through it inv and norm; the multiplicative order and
is_primitive, which run on this path with or without the tables) stay in the
product layout from α, converted on entry, to the result, converted on exit
or only compared with 1.  The exponent is read in
base Q = q^w, w the largest w < n with q^w <= 16 and at least 1: Horner over
its digits d, result = Frob^w(result)·α^d, Frob^w a map of the layout, costs
one application of it and at most one product per digit instead of about
log2 Q squarings.  Each digit power α^d is built on demand by one product
from α^(d-t) and α^t for the top bit t of d (a squaring when d = 2t), and is
shared across the exponents of one multiplicative-order call, or of one
norm in is_primitive; for q > 16 only the digits that occur are built.
is_primitive takes α^((q^n-1)/r) as N(α)^((q^d-1)/r), N the norm to
F_{q^d}, d = ord_r(q).  The norms of one call form one chain through the
subfields: N to F_{q^d} is taken from the norm to the least F_{q^c}, d | c,
already reached, one prime ℓ of c/d at a time, each step to F_{q^b}, b =
c/ℓ, the product Π_{i < ℓ} Frob^(bi) by about 2·log2(ℓ) products and maps
Frob^(bs) of the layout (von zur Gathen and Shoup 1992).  For a prime ℓ | d
and j = d/ℓ, r does not divide q^j - 1, so N(α)^((q^d-1)/r) = γ^(q^j - 1)
for γ = N(α)^u, u = (q^d-1)/((q^j-1)·r): the power is 1 exactly when Frob^j
fixes γ, one map in place of the Horner steps of the factor q^j - 1, taken
where it costs less than the plain power.  The images of Frob^1 come from
X = x^q by the digit ladder, as Frob(c·x^j) = c·X^j, and each Frob^i has one
map, of the layout, which frobenius applies too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array

from .errors import ConsistencyError, FieldSpecError, ResourceLimitError
from .numtheory import Factorization, factorize, is_prime, multiplicative_order
from .polyfq import (
    Poly,
    PolyFactorization,
    _clmul,
    _pack,
    _packed,
    _split_p_part,
    _unpack,
    factor_x_n_minus_1,
    factor_x_n_minus_1_over,
    first_irreducible,
    format_poly,
    is_irreducible,
    parse_coeff,
    parse_poly,
    poly_deg,
)
from .smallfield import SmallField, _add_digits, canonical_field

_TABLE_CAP = 2**20


def _mask_int(mask: bytearray) -> int:
    """A 0/1 byte mask as one integer: byte a holds bit 8a."""
    return int.from_bytes(mask, "little")


def _horner_work(e: int, base: int, built: set) -> tuple[int, set]:
    """The work of _pow_poly(powers, e) with digits in base Q = base and the
    digit powers in built: one per Horner map and two per product (a raw
    product and a fold; on the fields of scripts/bench_pn.py a product takes
    1.3 to 4.3 times a map), and the digit powers it adds.  For a digit d,
    _digit_power builds the powers of two up to d and d's low parts
    d mod 2^(b+1), b a set bit of d."""
    digits, new = [], set()
    while e:
        e, d = divmod(e, base)
        digits.append(d)
    for d in filter(None, digits):
        bits = range(d.bit_length())
        new |= {1 << b for b in bits} | {d & ((2 << b) - 1) for b in bits if d >> b & 1}
    new -= built
    return len(digits) - 1 + 2 * (sum(map(bool, digits[:-1])) + len(new)), new


class FieldCtx:
    """Immutable description of F_{q^n} with cached factorizations and tables.

    Do not construct directly; use build_field().
    """

    def __init__(
        self,
        fq: SmallField,
        n: int,
        ext_modulus: Poly,
        mult_factorization: Factorization | None,
        add_factorization: PolyFactorization,
    ):
        self.fq = fq
        self.p = fq.p
        self.k = fq.k
        self.q = fq.q
        self.n = n
        self.order = fq.q**n
        self.base_modulus = fq.modulus
        self.ext_modulus = ext_modulus
        self.mult_factorization = mult_factorization
        self.add_factorization = add_factorization
        self.op_count = 0
        # vectors, map columns (see _map) and the product layout (see
        # _to_layout) have the W-bit slots of polyfq's ring, which applies maps
        # and normalizes; a raw product slot sums n·k digits times a normalized
        # vector, so for odd p b is cut into planes of budget/k (see _product)
        ring = self._ring = _packed(fq)
        self._W = ring.W
        per, stride = getattr(ring, "budget", 0) // self.k or n, (2 * self.k - 1) * self._W
        self._cuts = [((1 << per * stride) - 1) << i * stride for i in range(0, n, per)] if self.p > 2 else []
        # the fold of a raw product (see _ensure_red), the number of its low
        # slots that are already digits of the result in their place, and
        # the maps of Frob^i in the product layout by i (see _frob_layout)
        self._red, self._low, self._frob_layouts = None, n if self.k == 1 else self.k, {}
        # the test of each prime r of q^n - 1 in is_primitive (see _primitive_plan)
        self._plan = None
        # exponents are read in base Q = q^w, with w the largest w < n such
        # that q^w <= 16, and at least 1
        w = 1
        while w + 1 < n and self.q ** (w + 1) <= 16:
            w += 1
        self._frob_w = w
        self._digit_base = self.q**w
        self._exp = None
        self._log = None
        self._tau = None
        # left by the whole-field pass: the powers of the first primitive
        # element (until ensure_tables turns them into the tables of τ) and
        # the primitive and normal masks over all elements
        self._exp_g = None
        self._prim_mask = None
        self._norm_mask = None
        # the trace as a map from its values tr(p^d), d < kn (see _map)
        self._trace_map = None
        m = max(self.order - 1, 1)
        self._qpow = [pow(self.q, i, m) for i in range(n)]
        top = add_factorization.exponents()
        self._cofactors = [top[:i] + (e - 1,) + top[i + 1:] for i, e in enumerate(top)]
        # maps and charges of divisors of x^n - 1 by exponent vector; orbits by c
        self._divisor_maps, self._divisor_charges, self._orbits = {}, {}, {}
        self._coprime_s = None
        self._normal_image = {}
        # Data the characters layer derives once per field, by key: "tr_exp"
        # (tr(τ^i) per exponent i), "zech" (Zech logarithms log(1 + τ^i)),
        # "norm_dd" (the kernel data of the divisor-dependent normal
        # indicator) and "prim_dd" (the primitive one's values by class); its
        # tables that depend on q^n alone are cached by q^n.
        self.char_cache: dict = {}

    # -- encoding ---------------------------------------------------------

    def decode(self, a: int) -> list[int]:
        """Coordinate vector over F_q, low coordinate first."""
        out = []
        for _ in range(self.n):
            out.append(a % self.q)
            a //= self.q
        return out

    def encode(self, coords) -> int:
        val = 0
        for c in reversed(list(coords)):
            val = val * self.q + c
        return val

    def elements(self):
        return range(self.order)

    def embed_base(self, c: int) -> int:
        """F_q constant into F_{q^n} (coordinate vector (c, 0, ..., 0))."""
        return c % self.q

    # -- additive arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return _add_digits(self.p, a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return _add_digits(self.p, 0, a, -1)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return _add_digits(self.p, a, b, -1)

    # -- F_p-linear maps --------------------------------------------------------

    def _map(self, cols: list) -> list:
        """The F_p-linear map with columns cols (normalized, in polyfq's slots)
        as _fold applies it: for odd p cols itself; for p = 2 one XOR table per
        byte of slots, entry j of table t summing cols[8t + e] over the bits e
        of j, an array('Q') where every column fits in 64 bits."""
        if self.p > 2:
            return cols
        wide, tables = any(col >> 64 for col in cols), []
        for t in range(0, len(cols), 8):
            table = [0]
            for col in cols[t:t + 8]:
                table += [x ^ col for x in table]
            tables.append(table if wide else array("Q", table))
        return tables

    def _columns(self, m: list) -> list:
        """The columns of a map from _map; a last table of 2^r entries holds r."""
        if self.p > 2:
            return m
        return [table[1 << e] for table in m for e in range(len(table).bit_length() - 1)]

    def _fold(self, m: list, v: int, total: int = 0) -> int:
        """total plus the map m (see _map) applied to the normalized vector v,
        normalized, for every map (the fold and the Horner step too): for p = 2
        a lookup per byte of v, for odd p polyfq's applier _apply."""
        if self.p == 2:
            return functools.reduce(operator.xor, map(operator.getitem, m, v.to_bytes(len(m), "little")), total)
        return self._ring._apply(v, m, total)

    def _apply_map(self, m: list, a: int) -> int:
        """The map m (see _map) applied to the element a, as an element."""
        if self.p == 2:
            return self._fold(m, a)
        return _unpack(self._ring._apply(_pack(a, self.p, self._W), m), self.p, self._W)

    def _span(self, cols: list) -> array:
        """The map with columns cols (elements, unlike _map's) at every element
        at once, entry j being Σ j_d·cols[d] over the base-p digits j_d of j
        ("times g" on the whole field for cols[d] = g·p^d), by a digit
        recursion on big integers of records: for p = 2 elements in 32-bit
        words, summed by XOR; for odd p kn digits in w-byte slots, a slot
        x + c >= p (its top bit set after adding 2^(8w - 1) - p) taking p off.
        The first cut columns make a table of at most max(p, 2^14) records in
        log2(p) sums each (entries v + s are entries v plus s times the
        column); each combination of the rest gives one block of it, read back
        into 32-bit words by Horner over its strided digit planes."""
        p, kn, out = self.p, self.k * self.n, array("I")
        w = 4 if p == 2 else (p.bit_length() + 8) // 8
        top, rec, cut = 8 * w - 1, 4 if p == 2 else kn * w, max(1, int(14 / math.log2(p)))

        def plus(data: bytes, a: int) -> bytes:  # each record of data plus the element a
            v, size = int.from_bytes(data, "little"), len(data)
            col = int.from_bytes(_pack(a, p, top + 1).to_bytes(rec, "little") * (size // rec), "little")
            if p == 2:
                return (v ^ col).to_bytes(size, "little")
            ones = int.from_bytes((b"\1" + bytes(w - 1)) * (size // w), "little")
            u = v + col + (ones << top) - p * ones
            return (u - (ones << top) + (~u >> top & ones) * p).to_bytes(size, "little")

        table = bytes(rec)
        for col in cols[:cut]:
            unit, s = len(table), 1
            while s < p:
                table += plus(table[:unit * min(s, p - s)], _add_digits(p, 0, col, s))
                s *= 2
        for h in self._span(cols[cut:]) if len(cols) > cut else [0]:
            data = plus(table, h)
            if p > 2:
                words, total = bytearray(len(data) // rec * 4), 0
                for e in reversed(range(kn)):
                    for i in range(w):
                        words[i::4] = data[e * w + i::rec]
                    total = total * p + int.from_bytes(words, "little")
                data = total.to_bytes(len(words), "little")
            out.frombytes(data)
        if sys.byteorder == "big":
            out.byteswap()
        return out

    def _compose(self, outer: list, inner: list) -> list:
        """outer∘inner for two maps: outer applied to the columns of inner."""
        return self._map([self._fold(outer, col) for col in self._columns(inner)])

    # -- multiplicative arithmetic ------------------------------------------

    def _regroup(self, v: int, src: int, dst: int) -> int:
        """Packed v with coefficient i (k slots) moved from slot i·src to i·dst."""
        w, mask = self._W, (1 << self.k * self._W) - 1
        return v if src == dst else sum(((v >> i * src * w) & mask) << i * dst * w for i in range(self.n))

    def _to_layout(self, a: int) -> int:
        """α in the product layout: the digit of x^i·y^t in slot i(2k - 1) + t,
        so that a product of two such vectors holds their product in F_p[x, y]."""
        return self._regroup(_pack(a, self.p, self._W), self.k, 2 * self.k - 1)

    def _from_layout(self, v: int) -> int:
        """The element of a vector in the product layout with no digit in the
        slots i(2k - 1) + t, t >= k, as _product and _fold leave it."""
        return _unpack(self._regroup(v, 2 * self.k - 1, self.k), self.p, self._W)

    def _ensure_red(self):
        """The fold: the map whose column for slot s(2k - 1) + u >= _low of a raw
        product is x^s·y^u mod (f, m) in the product layout, y the element p of
        F_q: x^s mod f by shifts and a reducer of polyfq's ring, y^u by planes."""
        ring, cols, cur = self._ring, [], 1
        reduce = ring.reducer(ring.pack(self.ext_modulus))
        for _ in range(2 * self.n - 1):
            planes = ring._planes(cur)
            cols += planes + ring._planes(planes[-1])[1:]
            cur = reduce(cur << ring.cw)
        self._red = self._map([self._regroup(v, self.k, 2 * self.k - 1) for v in cols[self._low:]])

    def _product(self, a: int, b: int) -> int:
        """a·b for normalized a, b in the product layout, in that layout: one
        raw product in F_p[x, y], carry-less for p = 2 and otherwise summed
        and normalized plane by plane of b (one plane unless n·k·(p - 1)^2
        passes the budget), then one fold of its slots from _low on."""
        if self._red is None:
            self._ensure_red()
        prod = _clmul(a, b) if self.p == 2 else 0
        for cut in self._cuts:
            prod = self._ring.normalize(prod + a * (b & cut))
        low = self._low * self._W
        return self._fold(self._red, prod >> low, prod & ((1 << low) - 1))

    def _mul_poly(self, a: int, b: int) -> int:
        """a·b on the polynomial path: _product, converting in and out."""
        return self._from_layout(self._product(self._to_layout(a), self._to_layout(b)))

    def mul(self, a: int, b: int) -> int:
        self.op_count += 1
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_poly(a, b)

    def pow(self, a: int, e: int) -> int:
        self.op_count += 1
        if a == 0:
            return 1 if e == 0 else 0
        m = self.order - 1
        e %= m
        if self._log is not None:
            return self._exp[self._log[a] * e % m]
        return self._from_layout(self._pow_poly({1: self._to_layout(a)}, e))

    def _pow_poly(self, powers: dict, e: int) -> int:
        """α^e on the polynomial path, uncounted, for powers = {1: α, ...},
        all in the product layout, as the result is.

        Horner over the base-Q digits d of e, Q = q^w: each step is
        result = Frob^w(result)·α^d, since x^Q is the precomputed F_p-linear
        map Frob^w.  The digit powers stay in powers, so a caller that
        raises one α to several exponents builds each of them once.
        """
        if e == 0:
            return 1
        digits = []
        while e:
            e, d = divmod(e, self._digit_base)
            digits.append(d)
        result = self._digit_power(powers, digits.pop())
        if digits:
            step = self._step
            for d in reversed(digits):
                result = self._fold(step, result)
                if d:
                    result = self._product(result, self._digit_power(powers, d))
        return result

    def _digit_power(self, powers: dict, d: int) -> int:
        """α^d for d >= 1 from powers = {1: α, ...}, by the binary ladder.

        A missing entry costs one product: α^d = α^(d/2)·α^(d/2) when d is a
        power of two, and α^d = α^(d-t)·α^t for the top bit t of d otherwise.
        Only the digits that occur are built, so a large q never gets a
        table of q entries.
        """
        v = powers.get(d)
        if v is None:
            top = 1 << (d.bit_length() - 1)
            if top == d:
                half = self._digit_power(powers, top >> 1)
                v = self._product(half, half)
            else:
                v = self._product(self._digit_power(powers, d - top), self._digit_power(powers, top))
            powers[d] = v
        return v

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    # -- reference element and tables ----------------------------------------

    def find_reference_primitive_normal(self) -> int:
        """First element in enumeration order passing both tests: the first
        element set in both masks of the whole-field pass, so it exists only
        up to the table cap."""
        if self._tau is None:
            self._whole_field_pass()
            if self._tau is None:
                raise ConsistencyError(
                    f"no primitive normal element found in F_{self.q}^{self.n}"
                )
        return self._tau

    def _whole_field_pass(self):
        """Classify every element at once and set τ; above the table cap
        raise ResourceLimitError.

        α is non-normal iff (x^n - 1)/r kills it for some irreducible r, and
        that kernel is the image r∘F, one table (_span) of its F_p-basis
        (image_basis).  The powers of g are built each from the last by one
        index into the table of the F_p-linear map "times g" on the whole
        field (_span of its columns g·p^d), dropped once they are.
        """
        if self.order > _TABLE_CAP:
            raise ResourceLimitError(
                f"F_{self.q}^{self.n} has {self.order} elements, above the table "
                f"cap 2^{_TABLE_CAP.bit_length() - 1} for whole-field data"
            )
        order, m = self.order, self.order - 1
        p, t = self.p, len(self.add_factorization.entries)
        norm = bytearray([1]) * order
        for i in range(t):
            for a in self._span(self.image_basis(tuple(int(j == i) for j in range(t)))):
                norm[a] = 0
        g = next(a for a in range(1, order) if self.is_primitive(a))
        times_g = self._span([self._mul_poly(g, p**d) for d in range(self.k * self.n)])
        exp_g, cur = array("I", [0]) * m, 1
        for i in range(m):
            exp_g[i] = cur
            cur = times_g[cur]
        del times_g
        if cur != 1:
            raise ConsistencyError(f"{m} steps of the map 'times {g}' do not return to 1")
        if any(exp_g[m // r] == 1 for r in self.mult_factorization.primes()):
            raise ConsistencyError(f"first primitive element {g} has order below {m}")
        sieve = bytearray([1]) * m
        for r in self.mult_factorization.primes():
            sieve[::r] = bytes(len(range(0, m, r)))
        prim = bytearray(order)
        for a in itertools.compress(exp_g, sieve):
            prim[a] = 1
        both = _mask_int(prim) & _mask_int(norm)
        if both:
            self._tau = ((both & -both).bit_length() - 1) // 8
        self._exp_g = exp_g
        self._prim_mask = prim
        self._norm_mask = norm

    @property
    def reference_tau(self) -> int:
        return self.find_reference_primitive_normal()

    def ensure_tables(self):
        """Build the exp/log tables of the reference element τ, up to the cap.

        exp[i] = τ^i and log[τ^i] = i.  With t = log_g τ for the first
        primitive element g of the whole-field pass, τ^i = g^(i·t mod m), so
        the tables are read off the powers of g, which are then dropped.
        """
        if self._log is not None:
            return
        if self.order > _TABLE_CAP:
            return
        tau = self.reference_tau
        exp_g, self._exp_g = self._exp_g, None
        m = self.order - 1
        t = exp_g.index(tau)
        if math.gcd(t, m) != 1:
            raise ConsistencyError("reference element is not primitive")
        exp = [exp_g[i * t % m] for i in range(m)]
        del exp_g
        log = [0] * self.order
        for i, a in enumerate(exp):
            log[a] = i
        self._exp = exp
        self._log = log

    def class_masks(self) -> tuple[bytearray, bytearray]:
        """The primitive and the normal mask of the whole-field pass, byte α 1
        iff α is primitive (normal), so only up to the table cap; read only."""
        self.find_reference_primitive_normal()
        return self._prim_mask, self._norm_mask

    def class_counts(self) -> tuple[int, int, int]:
        """(#primitive, #normal, #primitive normal) over the whole field, read
        off class_masks."""
        prim, norm = self.class_masks()
        both = _mask_int(prim) & _mask_int(norm)
        return prim.count(1), norm.count(1), both.bit_count()

    @property
    def log_table(self) -> list:
        """log[τ^i] = i (see ensure_tables), log[0] = 0; above the table cap
        the whole-field pass raises ResourceLimitError."""
        self.find_reference_primitive_normal()
        self.ensure_tables()
        return self._log

    # -- Frobenius, trace, norm ----------------------------------------------

    def frobenius(self, a: int, i: int = 1) -> int:
        """α^(q^i); the map fixes F_q pointwise and has order n.

        With tables it is one lookup.  On the polynomial path it applies the
        map of Frob^i in the product layout (see _frob_layout), and it counts
        as the one operation that the power it stands for would have counted.
        """
        i %= self.n
        if a == 0 or i == 0:
            return a
        if self._log is not None:
            return self._exp[self._log[a] * self._qpow[i] % (self.order - 1)]
        self.op_count += 1
        return self._from_layout(self._fold(self._frob_layout(i), self._to_layout(a)))

    def _frob_layout(self, i: int) -> list:
        """Frob^i, 1 <= i < n, as a map of the product layout, built on first
        use.  Frobenius fixes F_q, so Frob^1(y^t·x^j) = y^t·X^j with X = x^q,
        found by the digit ladder alone (_pow_poly needs this map and cannot
        make X): slot j(2k - 1) + t has that image for t < k and 0 for t >= k,
        where no vector it is applied to has a digit.  Frob^i for i > 1 is
        Frob^(i - h)∘Frob^h with h = i // 2, so that about log2 i maps precede it."""
        m = self._frob_layouts.get(i)
        if m is None:
            if i > 1:
                m = self._compose(self._frob_layout(i - i // 2), self._frob_layout(i // 2))
            else:
                big_x, cols, k = self._digit_power({1: self._to_layout(self.q)}, self.q), [], self.k
                for j in range(self.n):
                    cur = self._product(cur, big_x) if j else 1
                    cols += [cur] + [self._product(self._to_layout(self.p**t), cur) for t in range(1, k)]
                    cols += [0] * (k - 1)
                m = self._map(cols)
            self._frob_layouts[i] = m
        return m

    @property
    def _step(self) -> list:
        """The Horner step of _pow_poly: Frob^w in the product layout."""
        return self._frob_layout(self._frob_w)

    def _subfield_norm(self, beta: int, d: int, c: int, combine=None) -> int:
        """N(β) = β^((q^c-1)/(q^d-1)) = Π_{j < c/d} Frob^(dj)(β), the norm from
        F_{q^c} to F_{q^d} for d | c | n and β in F_{q^c}, in the product
        layout, by doubling over the bits of c/d below the top one: T_1 = β,
        T_2s = T_s·Frob^(ds)(T_s) and T_(s+1) = β·Frob^d(T_s) (von zur Gathen
        and Shoup 1992); with combine the sum, the trace Σ_{j < c/d} Frob^(dj)(β)."""
        combine, t, s = combine or self._product, beta, 1
        for bit in bin(c // d)[3:]:
            t, s = combine(t, self._fold(self._frob_layout(d * s), t)), 2 * s
            if bit == "1":
                t, s = combine(beta, self._fold(self._frob_layout(d), t)), s + 1
        return t

    def trace(self, a: int) -> int:
        """Absolute trace Σ α^(p^j) over j < kn, landing in F_p, by a map built
        on first use, uncounted: Tr_{F_q/F_p} of each column of _orbit_map(1, 1)."""
        if self._trace_map is None:
            fq, p, cols = self.fq, self.p, []
            for d, v in enumerate(self._columns(self._orbit_map(1, 1))):
                coords = self.decode(_unpack(v, p, self._W))
                cols.append(functools.reduce(fq.add, (fq.pow(coords[0], p**j) for j in range(self.k)), 0))
                if any(coords[1:]) or cols[-1] >= p:
                    raise ConsistencyError(f"trace of {p**d} landed outside F_p")
            self._trace_map = self._map(cols)
        return self._apply_map(self._trace_map, a)

    def norm(self, a: int) -> int:
        """Absolute norm α^((p^(kn)-1)/(p-1)), landing in F_p; N(0) = 0."""
        if a == 0:
            return 0
        e = (self.p ** (self.k * self.n) - 1) // (self.p - 1)
        val = self.pow(a, e)
        coords = self.decode(val)
        if any(coords[1:]) or coords[0] >= self.p:
            raise ConsistencyError(f"norm of {a} landed outside F_p")
        return coords[0]

    # -- linearized action and additive order ---------------------------------

    def apply_linearized(self, r: Poly, a: int) -> int:
        """r∘α = Σ r_i·α^(q^i): the F_q[x]-module action via q-power Frobenius.

        Each nonzero r_i is charged as the product r_i·α^(q^i) it stands for,
        but a coefficient 1 takes the image as it is, and on the polynomial
        path a coefficient scales the image coordinate by coordinate.  The
        divisors of x^n - 1 are applied by their maps (divisor_action).
        """
        total = 0
        for i, coeff in enumerate(r):
            if coeff:
                term = self.frobenius(a, i) if i else a
                if coeff == 1:
                    self.op_count += 1
                elif self._log is None:
                    self.op_count += 1
                    term = self.encode(map(self.fq.mul, itertools.repeat(coeff), self.decode(term)))
                else:
                    term = self.mul(self.embed_base(coeff), term)
                total = self.add(total, term)
        return total

    def _module_map(self, r: Poly) -> list:
        """r∘ as a map (see _map), uncounted: r mod x^n - 1 as r/S on the orbit
        of c where S = Σ_{j < p^e} x^(cj) divides it (n = c·p^e, p ∤ c; S is the
        divisor with exponents e_i - 1, 1 for p ∤ n), else as itself on that of n."""
        ring, c = self._ring, _split_p_part(self.n, self.p)[0]
        r = functools.reduce(ring.add, (ring.pack(r[i:i + self.n]) for i in range(0, len(r), self.n)), 0)
        h, rest = ring.divmod(r, ring.pack([int(i % c == 0) for i in range(self.n - c + 1)]))
        return self._orbit_map(r, self.n) if rest else self._orbit_map(h, c)

    def _orbit_map(self, h: int, c: int) -> list:
        """α -> Σ h_i·Frob^i(T(α)) as a map (see _map), h packed of degree below
        c | n, T the trace Σ_{j < n/c} Frob^(cj) to F_{q^c}: column d is one
        _apply of h to the planes y^t·Frob^i(T(p^d)), t < k, of an orbit kept
        by c and grown as far as h reaches (so never for n = 1)."""
        ring, k, orbit = self._ring, self.k, self._orbits.setdefault(c, [])
        to, back = (lambda v: self._regroup(v, k, 2 * k - 1)), (lambda v: self._regroup(v, 2 * k - 1, k))
        if not orbit:
            orbit += [ring._planes(back(self._subfield_norm(self._to_layout(self.p**d), c, self.n, ring.add)))
                      for d in range(k * self.n)]
        while len(orbit[0]) <= k * ring.degree(h):
            for cols in orbit:
                cols += ring._planes(back(self._fold(self._frob_layout(1), to(cols[-k]))))
        return self._map([ring._apply(h, cols) for cols in orbit])

    def _module_charge(self, r: Poly, a: int) -> int:
        """What apply_linearized(r, α) charges: one per nonzero coefficient,
        and for α != 0 on the polynomial path one per Frobenius image."""
        frob = sum(1 for i, c in enumerate(r) if c and i % self.n) if a and self._log is None else 0
        return sum(map(bool, r)) + frob

    def _divisor_map(self, exps: tuple) -> list:
        """d∘ for the divisor d of x^n - 1 with exponent vector exps, cached."""
        m = self._divisor_maps.get(exps)
        if m is None:
            m = self._divisor_maps[exps] = self._module_map(self.add_factorization.divisor(exps))
        return m

    def image_basis(self, exps: tuple) -> list:
        """An F_p-basis of d∘F_{q^n}, k·(n - deg d) elements, uncounted: the
        columns of d's map (_divisor_map(exps)) independent of those before them."""
        cols = self._columns(self._divisor_map(exps))
        return [_unpack(v, self.p, self._W) for v in itertools.compress(cols, self._independent(cols))]

    def divisor_action(self, exps: tuple, a: int) -> int:
        """d∘α for the divisor d of x^n - 1 with exponent vector exps, by its
        map, charged as apply_linearized(d, α)."""
        return _unpack(self._divisor_image(exps, a, _pack(a, self.p, self._W)), self.p, self._W)

    def _divisor_image(self, exps: tuple, a: int, v: int) -> int:
        """divisor_action(exps, α) as a vector, for α packed as v."""
        key = (exps, bool(a) and self._log is None)
        if key not in self._divisor_charges:
            self._divisor_charges[key] = self._module_charge(self.add_factorization.divisor(exps), a)
        self.op_count += self._divisor_charges[key]
        return self._fold(self._divisor_map(exps), v)

    def additive_order_exponents(self, a: int) -> tuple[int, ...]:
        """Ord(α) as its exponent vector over add_factorization.entries: from
        x^n - 1, each irreducible factor in turn is taken out while the
        divisor left, applied by its map, still kills α; the zero vector
        (the constant 1) for α = 0.
        """
        exps, v = list(self.add_factorization.exponents()), _pack(a, self.p, self._W)
        for i, e in enumerate(self.add_factorization.exponents()):
            for _ in range(e):
                exps[i] -= 1
                if self._divisor_image(tuple(exps), a, v) != 0:
                    exps[i] += 1
                    break
        return tuple(exps)

    def additive_order(self, a: int) -> Poly:
        """Minimal monic divisor d(x) of x^n - 1 with d∘α = 0: the lattice
        entry at additive_order_exponents(α)."""
        return self.add_factorization.divisor(self.additive_order_exponents(a))

    # -- orders and the two element tests -------------------------------------

    def multiplicative_order(self, a: int) -> int:
        """The least d with α^d = 1, by descent over the primes of q^n - 1, one
        charge per power, on the polynomial path with or without the tables:
        by Horner from one table of the digit powers of α."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        d = self.order - 1
        if d == 0:
            raise ConsistencyError("trivial group")
        powers = {1: self._to_layout(a)}
        for r, e in self.mult_factorization.entries:
            for _ in range(e):
                self.op_count += 1
                if self._pow_poly(powers, d // r) != 1:
                    break
                d //= r
        return d

    def _primitive_plan(self) -> list:
        """(r, d, steps, j, e) for each prime r of q^n - 1 in ascending order,
        d = ord_r(q), so that r | q^d - 1 and d | n; built on first use.

        steps are the norms (c, c/ℓ) that r's test takes first (see _is_one):
        from the least multiple c of d among n and the degrees reached for the
        primes before r, one prime ℓ of c/d at a time, the largest first.
        For d > 1 let j = d/ℓ for the least prime ℓ | d; then r ∤ q^j - 1, and
        u = (q^d - 1)/((q^j - 1)·r) is the least such exponent.  The entry
        has j and e = u where the power to u and the one fixed-point map cost
        less than the plain power (_horner_work, with the digit powers of the
        primes before r of the same d); otherwise, and for d = 1, j = 0 and
        e = (q^d - 1)/r."""
        if self._plan is None:
            q, n, plan, reached, built = self.q, self.n, [], {self.n}, {}
            for r in self.mult_factorization.primes():
                d = multiplicative_order(q % r, r)
                if (q**d - 1) % r or n % d:
                    raise ConsistencyError(f"ord_{r}({q}) = {d} does not divide n = {n}")
                c, steps = min(c for c in reached if c % d == 0), []
                while c != d:
                    steps.append((c, c // max(factorize(c // d).primes())))
                    c = steps[-1][1]
                    reached.add(c)
                e, digits = (q**d - 1) // r, built.setdefault(d, {1})
                j = d // min(factorize(d).primes()) if d > 1 else 0
                u = e // (q**j - 1) if j else e
                (plain, new), (fixed, new_u) = (_horner_work(x, self._digit_base, digits) for x in (e, u))
                if j and fixed + 1 < plain:
                    e, new = u, new_u
                else:
                    j = 0
                digits |= new
                plan.append((r, d, tuple(steps), j, e))
            self._plan = plan
        return self._plan

    def _is_one(self, entry: tuple, norms: dict, powers: dict) -> bool:
        """Whether α^((q^n-1)/r) = 1 on the polynomial path, for the plan
        entry (r, d, steps, j, e): norms holds N(α) to F_{q^c} by c, in the
        product layout, from {n: α}, and gains the entry's steps; powers holds
        the digit powers of each norm by degree.

        α^((q^n-1)/r) = N(α)^((q^d-1)/r) for N the norm to F_{q^d}.  For d = 1
        that is a power in F_q.  For j > 0 it is γ^(q^j - 1) with γ = N(α)^e,
        which is 1 exactly when Frob^j fixes γ; for j = 0 it is N(α)^e."""
        _, d, steps, j, e = entry
        for c, b in steps:
            norms[b] = self._subfield_norm(norms[c], b, c)
        if d == 1:
            return self.fq.pow(self._from_layout(norms[1]), e) == 1
        gamma = self._pow_poly(powers.setdefault(d, {1: norms[d]}), e)
        return self._fold(self._frob_layout(j), gamma) == gamma if j else gamma == 1

    def is_primitive(self, a: int) -> bool:
        """α^((q^n-1)/r) != 1 for every prime r dividing q^n - 1, tested in
        ascending r up to the first power that is 1, one charge per r.

        It runs on the polynomial path with or without the tables: each test
        reads a norm of α to F_{q^d}, d = ord_r(q), and raises it to an
        exponent below q^d (_is_one).  The norms of one call form one chain
        through the subfields (_primitive_plan): each comes from a norm
        already taken, as N to F_{q^d} is N from F_{q^c} to F_{q^d} after N to
        F_{q^c} for d | c.  For d > 1 a Frobenius fixed point takes the place
        of most of the power where that costs less.
        """
        if a == 0:
            raise ValueError("0 is never primitive")
        norms, powers = {self.n: self._to_layout(a)}, {}
        for entry in self._primitive_plan():
            self.op_count += 1
            if self._is_one(entry, norms, powers):
                return False
        return True

    def is_normal(self, a: int, method: str = "divisor") -> bool:
        """Normality test; 'divisor' applies the map of each cofactor (x^n-1)/r(x),
        a trace and a polynomial of lower degree, until one kills α; 'rank'
        checks that the Frobenius orbit has full F_q-rank."""
        if method == "divisor":
            v = _pack(a, self.p, self._W)
            return a != 0 and all(self._divisor_image(cof, a, v) != 0 for cof in self._cofactors)
        if method == "rank":
            return self._is_normal_rank(a)
        raise ValueError(f"unknown normality method {method!r}")

    def _is_normal_rank(self, a: int) -> bool:
        """Full F_p-rank kn of the rows y^t·α^(q^i), t < k, i < n, packed as
        polyfq packs F_q[x], where y^t·v is a digit plane of v; it stops at
        the first dependent row.  On the polynomial path the orbit stays in the
        product layout (_orbit_rows), charged as n frobenius calls."""
        if self._log is None:
            self.op_count += self.n if a and self.n > 1 else 0
        return all(self._independent(self._orbit_rows(a)))

    def _orbit_rows(self, a: int):
        """The rows y^t·α^(q^i), t < k, i < n, packed, uncounted: the orbit off
        the tables, else in the product layout by a fold of Frob^1 per image."""
        if self._log is not None:
            orbit = (_pack(self.frobenius(a, i), self.p, self._W) for i in range(self.n))
        else:
            orbit = (self._regroup(v, 2 * self.k - 1, self.k) for v in itertools.accumulate(
                range(1, self.n), lambda v, _: self._fold(self._frob_layout(1), v), initial=self._to_layout(a)))
        return (plane for v in orbit for plane in self._ring._planes(v))

    def independent(self, elems):
        """For each element, whether it is outside the F_p-span of those before it."""
        return self._independent(_pack(a, self.p, self._W) for a in elems)

    def _independent(self, rows):
        """For each normalized packed row, whether it is outside the F_p-span of
        the rows before it: reduced by the basis row of each leading slot (XOR
        for p = 2), what is left joins the basis, made monic."""
        ring, p, basis = self._ring, self.p, {}  # basis: top slot -> monic row
        for v in rows:
            while v:
                top = (v.bit_length() - 1) // ring.W
                lead, b = v >> top * ring.W, basis.get(top)
                if b is None:
                    basis[top] = ring.normalize(v * pow(lead, -1, p))
                    break
                v = v ^ b if p == 2 else ring.normalize(v + (p - lead) * b)
            yield bool(v)

    def is_primitive_normal(self, a: int) -> bool:
        if a == 0:
            return False
        return self.is_primitive(a) and self.is_normal(a)

    # -- coprime residue polynomials and the normal image ----------------------

    def _units(self) -> list[int]:
        """The encodings of the units of F_q[x]/(x^n - 1), ascending: all but
        the ideals (r) of the irreducible factors r of x^n - 1, each marked by
        one _span of its F_p-basis y^t·x^j·r, t < k, j < n - deg r."""
        if self._coprime_s is None:
            unit = bytearray([1]) * self.order
            for r, _ in self.add_factorization.entries:
                for a in self._span([self.encode((0,) * j + tuple(self.fq.mul(self.p**t, c) for c in r))
                                     for j in range(self.n - poly_deg(r)) for t in range(self.k)]):
                    unit[a] = 0
            self._coprime_s = list(itertools.compress(range(self.order), unit))
        return self._coprime_s

    def normal_image(self, eta: int) -> frozenset:
        """{s∘η : gcd(s, x^n-1) = 1} for a normal η, which is tested once
        (ValueError if it is not); equals the set of normal elements.

        s -> s∘η is F_p-linear with columns y^t·η^(q^i): one _span, read at
        the units in encoding order, charged as apply_linearized(s, η): one
        per s_i != 0 and per Frobenius image (i > 0) on the polynomial path;
        x is a unit, so each i has as many units with s_i != 0 as i = 0."""
        if eta not in self._normal_image:
            if not self.is_normal(eta):
                raise ValueError("η must be normal")
            units = self._units()
            images = self._span([_unpack(v, self.p, self._W) for v in self._orbit_rows(eta)])
            nonzero = sum(1 for s in units if s % self.q)
            self.op_count += nonzero * (self.n if self._log is not None else 2 * self.n - 1)
            self._normal_image[eta] = frozenset(images[s] for s in units)
        return self._normal_image[eta]

    # -- text formats ----------------------------------------------------------

    def spec_string(self) -> str:
        return f"{self.p}^{self.k}:{self.n}"

    def format_element(self, a: int) -> str:
        return format_poly(self.fq, self.decode(a))

    def parse_element(self, text: str) -> int:
        parts = [s.strip() for s in text.strip().split(",")]
        if len(parts) > self.n:
            raise FieldSpecError(
                f"expected at most {self.n} coordinates", text=text, position=self.n
            )
        coords = []
        for pos, part in enumerate(parts):
            try:
                coords.append(parse_coeff(self.fq, part))
            except ValueError as exc:
                raise FieldSpecError(
                    f"bad coordinate {part!r}: {exc}", text=text, position=pos
                ) from None
        return self.encode(coords)

    def __repr__(self):
        return f"FieldCtx({self.spec_string()})"


def build_field(
    p: int,
    k: int,
    n: int,
    base_modulus: Poly | None = None,
    ext_modulus: Poly | None = None,
) -> FieldCtx:
    """Construct F_{q^n} over F_q = F_p^k.

    Omitted moduli default to the lexicographically smallest monic
    irreducibles of the right degrees (coefficients compared low-to-high as
    integers), so the construction is deterministic.  polyfq.first_irreducible
    finds them by screens for provably reducible candidates and the Ben-Or
    test on packed polynomials (scripts/bench_pn.py --build times each part
    of a build).  Supplied moduli are certified irreducible.
    The exact integer order arithmetic requires p^(k·n) <= 2^63.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if k * n * math.log2(p) > 63:
        raise ResourceLimitError(f"field F_{p}^{k * n} exceeds the 2^63 cap")
    # a default base modulus takes the cached F_q and factorization of x^n - 1
    fq = canonical_field(p**k) if base_modulus is None else SmallField(p, k, modulus=base_modulus)
    if ext_modulus is None:
        ext_modulus = first_irreducible(fq, n)
    else:
        if fq.k == 1:
            ext_modulus = tuple(c % fq.q for c in ext_modulus)
        elif any(not 0 <= c < fq.q for c in ext_modulus):
            raise ValueError("extension modulus coefficients out of range")
        ext_modulus = tuple(ext_modulus)
        if poly_deg(ext_modulus) != n or ext_modulus[-1] != 1:
            raise ValueError(f"extension modulus must be monic of degree {n}")
        if not is_irreducible(fq, ext_modulus):
            raise ValueError("extension modulus is reducible")
    order = fq.q**n
    mult_fact = factorize(order - 1) if order > 2 else Factorization(entries=(), value=1)
    add_fact = factor_x_n_minus_1(fq.q, n) if base_modulus is None else factor_x_n_minus_1_over(fq, n)
    return FieldCtx(fq, n, ext_modulus, mult_fact, add_fact)


@functools.lru_cache(maxsize=None)
def get_field(p: int, k: int, n: int) -> FieldCtx:
    """Cached canonical field contexts; safe because FieldCtx is append-only."""
    return build_field(p, k, n)


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse "p^k:n[:basePoly][:extPoly]" into a field context."""
    parts = spec.strip().split(":")
    head = parts[0]
    if "^" not in head:
        raise FieldSpecError("expected p^k", text=spec, position=0)
    p_str, _, k_str = head.partition("^")
    try:
        p, k = int(p_str), int(k_str)
    except ValueError:
        raise FieldSpecError("p and k must be integers", text=spec, position=0) from None
    if len(parts) < 2:
        raise FieldSpecError("missing extension degree n", text=spec, position=len(head))
    if len(parts) > 4:
        raise FieldSpecError("too many ':' sections", text=spec, position=len(":".join(parts[:4])) + 1)
    try:
        n = int(parts[1])
    except ValueError:
        raise FieldSpecError("n must be an integer", text=spec, position=len(head) + 1) from None
    base_modulus = None
    ext_modulus = None
    if len(parts) >= 3 and parts[2]:
        fp = SmallField(p, 1)
        base_modulus = parse_poly(fp, parts[2])
    if len(parts) >= 4 and parts[3]:
        fq = SmallField(p, k, modulus=base_modulus)
        ext_modulus = parse_poly(fq, parts[3])
    if base_modulus is None and ext_modulus is None:
        return get_field(p, k, n)
    return build_field(p, k, n, base_modulus=base_modulus, ext_modulus=ext_modulus)


def format_field_moduli(ctx: FieldCtx) -> tuple[str, str]:
    return format_poly(canonical_field(ctx.p), ctx.base_modulus), format_poly(ctx.fq, ctx.ext_modulus)
