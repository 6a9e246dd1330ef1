"""Dense polynomial arithmetic over F_q and the polynomial-side totients.

Polynomials are tuples of integer-encoded F_q coefficients, ascending degree,
with no trailing zeros; the zero polynomial is the empty tuple and its degree
is the sentinel -1 (a plain Python int, never an unsigned cast).

The kernels bind the coefficient arithmetic once per call (see _kernel).
first_irreducible sieves out candidates with a root in F_q, and Ben-Or's
test (1981) certifies the rest, applying h -> h^q mod f as a linear map,
the Q-matrix (von zur Gathen and Shoup 1992).  The totient Φ_q, Möbius μ_q,
σ_q and the Ω_q factor counts all operate on certified factorizations of
x^n - 1.
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


def _q_power_map(fq: SmallField, f: Poly):
    """h -> h^q mod f, deg h < deg f: h^q = Σ h_i·x^(iq) as c^q = c on F_q.
    Row i of the Q-matrix is row i - 1 times x^q mod f: for q <= 4·deg f by
    q steps of times x, each adding a precomputed multiple of x^d mod f."""
    q, d = fq.q, poly_deg(f)
    kernel = add, scale, norm = _kernel(fq)
    x_q = poly_pow_mod(fq, (0, 1), q, f) if q > 4 * d else None  # may be ()
    x_d = list(scale(fq.neg(fq.inv(f[-1])), f[:-1]))
    multiples = [list(scale(c, x_d)) for c in range(q)] if x_q is None else None
    rows = [[1] + [0] * (d - 1)]
    while len(rows) < d:
        if x_q is not None:
            row = list(poly_mod(fq, poly_mul(fq, rows[-1], x_q), f))
        else:
            row = list(rows[-1])
            for _ in range(q):
                top = row.pop() if norm is None else norm(row.pop())
                row.insert(0, 0)
                if top:
                    row = list(add(row, multiples[top]))
        rows.append([a if norm is None else norm(a) for a in row] + [0] * (d - len(row)))
    return lambda h: poly_trim(_combine(kernel, h, rows, d))


def is_irreducible(fq: SmallField, f: Poly) -> bool:
    """Deterministic irreducibility certification by the Ben-Or
    distinct-degree test: f is irreducible iff no x^(q^j) - x with
    j <= deg(f)/2 shares a factor with it.  A reducible f is rejected at the
    smallest degree of its irreducible factors; never probabilistic.
    """
    d = poly_deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False
    cur = x_poly = (0, 1)
    q_power = _q_power_map(fq, f)
    for _ in range(d // 2):
        cur = q_power(cur)
        if poly_deg(poly_gcd(fq, poly_sub(fq, cur, x_poly), f)) != 0:
            return False
    return True


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
    larger q find one early); is_irreducible certifies every one left."""
    for f in (_rootless_monic_polys if d >= 2 and fq.q <= 512 else monic_polys)(fq, d):
        if is_irreducible(fq, f):
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
    """Distinct-degree then equal-degree splitting of a squarefree monic f."""
    factors: list[Poly] = []
    rest = poly_monic(fq, f)
    x_poly: Poly = (0, 1)
    h = poly_mod(fq, x_poly, rest)
    d, q_power = 0, None
    while poly_deg(rest) > 0:
        d += 1
        if 2 * d > poly_deg(rest):
            factors.append(rest)
            break
        q_power = q_power or _q_power_map(fq, rest)  # the map of this rest
        h = q_power(h)
        g = poly_gcd(fq, poly_sub(fq, h, x_poly), rest)
        if poly_deg(g) > 0:
            factors.extend(_split_equal_degree(fq, g, d))
            rest = poly_divmod(fq, rest, g)[0]
            h, q_power = poly_mod(fq, h, rest), None
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
