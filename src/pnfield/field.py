"""The tower F_p ⊂ F_q ⊂ F_{q^n}: construction, element arithmetic, Frobenius,
trace/norm, the linearized module action, both orders, and the primitive and
normal element tests.

Elements of F_{q^n} are integers in [0, q^n) encoding the coordinate vector
over F_q in base q (low coordinate in the low digit); each F_q coordinate is
itself a base-p digit vector.  Enumeration order is plain integer order, which
makes every "first witness" deterministic.

Up to the table cap a whole-field pass classifies every element at once: the
powers of the first primitive element g give the primitive mask by a sieve on
exponents (g^e is primitive iff gcd(e, q^n - 1) = 1), and the normal mask is
the complement of the union of the kernels of the cofactors (x^n - 1)/r(x),
each found by linear algebra over F_p.  The reference primitive normal element
τ is the first element set in both masks, and the exp/log tables of τ are read
off the powers of g.  Above the cap τ is found by testing one element at a
time.

Multiplication runs through the exp/log tables of τ once the context is warmed
up; before that (and above the table cap) a schoolbook polynomial product with
cached reduction rows is used, with a carry-less fast path for prime binary
fields.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import ConsistencyError, FieldSpecError, ResourceLimitError
from .numtheory import Factorization, factorize, is_prime
from .polyfq import (
    Poly,
    PolyFactorization,
    factor_x_n_minus_1_over,
    first_irreducible,
    format_poly,
    is_irreducible,
    parse_coeff,
    parse_poly,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_trim,
    x_pow_n_minus_1,
)
from .smallfield import SmallField, _add_digits

_TABLE_CAP = 2**20


def _mask_int(mask: bytearray) -> int:
    """A 0/1 byte mask as one integer: byte a holds bit 8a."""
    return int.from_bytes(mask, "little")


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
        # reduction rows: x^(n+j) mod ext_modulus as full coefficient lists
        self._red = None
        self._exp = None
        self._log = None
        self._tau = None
        # left by the whole-field pass: the powers of the first primitive
        # element (until ensure_tables turns them into the tables of τ) and
        # the primitive and normal masks over all elements
        self._exp_g = None
        self._prim_mask = None
        self._norm_mask = None
        self._trace_table = None
        self._trace_basis = None
        m = max(self.order - 1, 1)
        self._qpow = [pow(self.q, i, m) for i in range(n)]
        self._cofactors = None
        self._coprime_s = None
        self._normal_image = {}
        # Data the characters layer derives once per field, by key: "bsgs"
        # (baby-step/giant-step tables), "prim_dd" and "norm_dd" (divisor
        # data of the divisor-dependent indicators), "expsum_inner" (the
        # inner sums of the direct exponential-sum oracle).
        self.char_cache: dict = {}
        self._mod_bits = None
        if self.p == 2 and self.k == 1:
            bits = 0
            for i, c in enumerate(ext_modulus):
                if c:
                    bits |= 1 << i
            self._mod_bits = bits

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

    # -- multiplicative arithmetic ------------------------------------------

    def _ensure_red(self):
        if self._red is not None:
            return
        # rows[j] = x^(n+j) mod ext_modulus, padded to n coefficients
        rows = []
        cur = poly_mod(self.fq, (0,) * self.n + (1,), self.ext_modulus)
        rows.append(list(cur) + [0] * (self.n - len(cur)))
        for _ in range(self.n - 2):
            cur = poly_mod(self.fq, (0,) + cur, self.ext_modulus)
            rows.append(list(cur) + [0] * (self.n - len(cur)))
        self._red = rows

    def _mul_poly(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._mod_bits is not None:
            # carry-less product for q = 2, coordinates are plain bits
            mod = self._mod_bits
            top = 1 << self.n
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return r
        self._ensure_red()
        fq = self.fq
        n = self.n
        da = self.decode(a)
        # zero coordinates of either factor cost nothing in the inner loop,
        # so a sparse b (such as g) is as cheap as a sparse a
        nz_b = [(j, bj) for j, bj in enumerate(self.decode(b)) if bj]
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in nz_b:
                    prod[i + j] = fq.add(prod[i + j], fq.mul(ai, bj))
        for j in range(2 * n - 2, n - 1, -1):
            c = prod[j]
            if c:
                row = self._red[j - n]
                for i, ri in enumerate(row):
                    if ri:
                        prod[i] = fq.add(prod[i], fq.mul(c, ri))
        return self.encode(prod[:n])

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
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_poly(result, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    # -- reference element and tables ----------------------------------------

    def find_reference_primitive_normal(self) -> int:
        """First element in enumeration order passing both tests.

        Up to the table cap it is the first element set in both masks of the
        whole-field pass; above the cap elements are tested one at a time.
        """
        if self._tau is None:
            if self.order <= _TABLE_CAP:
                self._whole_field_pass()
            else:
                self._tau = next(
                    (a for a in range(1, self.order)
                     if self.is_normal(a) and self.is_primitive(a)), None)
            if self._tau is None:
                raise ConsistencyError(
                    f"no primitive normal element found in F_{self.q}^{self.n}"
                )
        return self._tau

    def _whole_field_pass(self):
        """Classify every element at once and set τ (order <= table cap).

        The normal mask comes first so that the kernel lists are freed before
        the powers of g are built.
        """
        order, m = self.order, self.order - 1
        norm = bytearray([1]) * order
        norm[0] = 0
        self._ensure_cofactors()
        for _, cof in self._cofactors:
            for a in self._kernel(cof):
                norm[a] = 0
        g = next(a for a in range(1, order) if self.is_primitive(a))
        exp_g = [0] * m
        cur = 1
        for i in range(m):
            exp_g[i] = cur
            cur = self._mul_poly(cur, g)
        if cur != 1:
            raise ConsistencyError(f"first primitive element {g} has order below {m}")
        sieve = bytearray([1]) * m
        for r in self.mult_factorization.primes():
            sieve[::r] = bytes(len(range(0, m, r)))
        prim = bytearray(order)
        for e in itertools.compress(range(m), sieve):
            prim[exp_g[e]] = 1
        both = _mask_int(prim) & _mask_int(norm)
        if both:
            self._tau = ((both & -both).bit_length() - 1) // 8
        self._exp_g = exp_g
        self._prim_mask = prim
        self._norm_mask = norm

    def _kernel(self, r: Poly) -> list[int]:
        """Every α with r∘α = 0, by Gaussian elimination over F_p on the
        images of the kn base-p unit vectors."""
        p, dim = self.p, self.k * self.n
        images = [self.apply_linearized(r, p**j) for j in range(dim)]
        rows = [[img // p**i % p for img in images] for i in range(dim)]
        pivots = []
        for col in range(dim):
            rank = len(pivots)
            piv = next((i for i in range(rank, dim) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], p - 2, p)
            top = rows[rank] = [v * inv % p for v in rows[rank]]
            for i in range(dim):
                c = rows[i][col]
                if c and i != rank:
                    rows[i] = [(v - c * t) % p for v, t in zip(rows[i], top)]
            pivots.append(col)
        span = [0]
        for free in range(dim):
            if free in pivots:
                continue
            v = p**free
            for i, col in enumerate(pivots):
                v += -rows[i][free] % p * p**col
            if p == 2:
                span += [s ^ v for s in span]
                continue
            multiples = [v]
            for _ in range(p - 2):
                multiples.append(_add_digits(p, multiples[-1], v))
            span += [_add_digits(p, s, w) for w in multiples for s in span]
        return span

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

    def class_counts(self) -> tuple[int, int, int]:
        """(#primitive, #normal, #primitive normal) over the whole field.

        Up to the table cap they are read off the masks of the whole-field
        pass; above it every element is tested.
        """
        if self.order <= _TABLE_CAP:
            self.find_reference_primitive_normal()
            prim, norm = self._prim_mask, self._norm_mask
            both = _mask_int(prim) & _mask_int(norm)
            return prim.count(1), norm.count(1), both.bit_count()
        num_prim = num_norm = num_pn = 0
        for a in range(1, self.order):
            prim = self.is_primitive(a)
            norm = self.is_normal(a)
            num_prim += prim
            num_norm += norm
            num_pn += prim and norm
        return num_prim, num_norm, num_pn

    @property
    def log_table(self):
        self.ensure_tables()
        return self._log

    # -- Frobenius, trace, norm ----------------------------------------------

    def frobenius(self, a: int, i: int = 1) -> int:
        """α^(q^i); the map fixes F_q pointwise and has order n."""
        i %= self.n
        if a == 0 or i == 0:
            return a
        m = self.order - 1
        if self._log is not None:
            return self._exp[self._log[a] * self._qpow[i] % m]
        return self.pow(a, pow(self.q, i))

    def _trace_slow(self, a: int) -> int:
        total = 0
        cur = a
        kn = self.k * self.n
        for _ in range(kn):
            total = self.add(total, cur)
            cur = self.pow(cur, self.p)
        coords = self.decode(total)
        if any(coords[1:]) or coords[0] >= self.p:
            raise ConsistencyError(f"trace of {a} landed outside F_p")
        return coords[0]

    def _ensure_trace_basis(self):
        if self._trace_basis is not None:
            return
        basis = []
        for i in range(self.n):
            row = []
            for j in range(self.k):
                elem = (self.p**j) * (self.q**i)
                row.append(self._trace_slow(elem))
            basis.append(row)
        self._trace_basis = basis

    def trace(self, a: int) -> int:
        """Absolute trace Σ α^(p^j) over j < kn, landing in F_p."""
        if self._trace_table is not None:
            return self._trace_table[a]
        self._ensure_trace_basis()
        p, q = self.p, self.q
        total = 0
        i = 0
        while a:
            c = a % q
            a //= q
            row = self._trace_basis[i]
            j = 0
            while c:
                d = c % p
                if d:
                    total += d * row[j]
                c //= p
                j += 1
            i += 1
        return total % p

    def ensure_trace_table(self):
        if self._trace_table is None and self.order <= _TABLE_CAP:
            self._trace_table = [self.trace(a) for a in range(self.order)]

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
        """r∘α = Σ r_i·α^(q^i): the F_q[x]-module action via q-power Frobenius."""
        total = 0
        for i, coeff in enumerate(r):
            if coeff:
                term = self.mul(self.embed_base(coeff), self.frobenius(a, i) if i else a)
                total = self.add(total, term)
        return total

    def _ensure_cofactors(self):
        if self._cofactors is not None:
            return
        full = x_pow_n_minus_1(self.fq, self.n)
        cofs = []
        for factor, _ in self.add_factorization.entries:
            cof, rem = poly_divmod(self.fq, full, factor)
            if rem:
                raise ConsistencyError("factor does not divide x^n - 1")
            cofs.append((factor, cof))
        self._cofactors = cofs

    def additive_order(self, a: int) -> Poly:
        """Minimal monic divisor d(x) of x^n - 1 with d∘α = 0.

        Found by stripping irreducible factors, mirroring the multiplicative
        order computation; additive_order(0) is the constant 1.
        """
        d = x_pow_n_minus_1(self.fq, self.n)
        for factor, exp in self.add_factorization.entries:
            for _ in range(exp):
                cand, rem = poly_divmod(self.fq, d, factor)
                if rem:
                    raise ConsistencyError("stripping left a remainder")
                if self.apply_linearized(cand, a) == 0:
                    d = cand
                else:
                    break
        return d

    # -- orders and the two element tests -------------------------------------

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        d = self.order - 1
        if d == 0:
            raise ConsistencyError("trivial group")
        for r, e in self.mult_factorization.entries:
            for _ in range(e):
                if self.pow(a, d // r) == 1:
                    d //= r
                else:
                    break
        return d

    def is_primitive(self, a: int) -> bool:
        """α^((q^n-1)/r) != 1 for every prime r dividing q^n - 1."""
        if a == 0:
            raise ValueError("0 is never primitive")
        m = self.order - 1
        return all(self.pow(a, m // r) != 1 for r in self.mult_factorization.primes())

    def is_normal(self, a: int, method: str = "divisor") -> bool:
        """Normality test; 'divisor' checks every cofactor (x^n-1)/r(x),
        'rank' checks that the Frobenius orbit has full F_q-rank."""
        if method == "divisor":
            if a == 0:
                return False
            self._ensure_cofactors()
            return all(self.apply_linearized(cof, a) != 0 for _, cof in self._cofactors)
        if method == "rank":
            return self._is_normal_rank(a)
        raise ValueError(f"unknown normality method {method!r}")

    def _is_normal_rank(self, a: int) -> bool:
        if a == 0:
            return False
        n, fq = self.n, self.fq
        rows = []
        cur = a
        for _ in range(n):
            rows.append(self.decode(cur))
            cur = self.frobenius(cur, 1)
        rank = 0
        for col in range(n):
            pivot = None
            for r in range(rank, n):
                if rows[r][col]:
                    pivot = r
                    break
            if pivot is None:
                return False  # rank deficit is already fatal
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = fq.inv(rows[rank][col])
            row_r = rows[rank]
            for r in range(rank + 1, n):
                c = rows[r][col]
                if c:
                    factor = fq.mul(c, inv)
                    row = rows[r]
                    for j in range(col, n):
                        row[j] = fq.sub(row[j], fq.mul(factor, row_r[j]))
            rank += 1
        return rank == n

    def is_primitive_normal(self, a: int) -> bool:
        if a == 0:
            return False
        return self.is_primitive(a) and self.is_normal(a)

    # -- coprime residue polynomials and the normal image ----------------------

    def coprime_s_polys(self) -> list[Poly]:
        """Units of F_q[x]/(x^n - 1), as polynomials of degree < n."""
        if self._coprime_s is None:
            xn1 = x_pow_n_minus_1(self.fq, self.n)
            out = []
            for enc in range(1, self.order):
                coeffs = poly_trim(self.decode(enc))
                if poly_deg(poly_gcd(self.fq, coeffs, xn1)) == 0:
                    out.append(coeffs)
            self._coprime_s = out
        return self._coprime_s

    def normal_image(self, eta: int) -> frozenset:
        """{s∘η : gcd(s, x^n-1) = 1}; equals the set of normal elements."""
        if eta not in self._normal_image:
            self._normal_image[eta] = frozenset(
                self.apply_linearized(s, eta) for s in self.coprime_s_polys()
            )
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
    integers), so the construction is deterministic.  Supplied moduli are
    certified irreducible.  The exact integer order arithmetic requires
    p^(k·n) <= 2^63.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if k * n * math.log2(p) > 63:
        raise ResourceLimitError(f"field F_{p}^{k * n} exceeds the 2^63 cap")
    fq = SmallField(p, k, modulus=base_modulus)
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
    add_fact = factor_x_n_minus_1_over(fq, n)
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
    if len(parts) > 4:
        raise FieldSpecError("too many ':' sections", text=spec, position=4)
    if base_modulus is None and ext_modulus is None:
        return get_field(p, k, n)
    return build_field(p, k, n, base_modulus=base_modulus, ext_modulus=ext_modulus)


def format_field_moduli(ctx: FieldCtx) -> tuple[str, str]:
    fp = SmallField(ctx.p, 1)
    return (
        format_poly(fp, ctx.base_modulus),
        format_poly(ctx.fq, ctx.ext_modulus),
    )
