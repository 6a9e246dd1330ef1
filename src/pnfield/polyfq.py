"""Dense polynomial arithmetic over F_q and the polynomial-side totients.

Polynomials are tuples of integer-encoded F_q coefficients, ascending degree,
with no trailing zeros; the zero polynomial is the empty tuple and its degree
is the sentinel -1 (a plain Python int, never an unsigned cast).

The totient Φ_q, Möbius μ_q, σ_q and the Ω_q factor counts all operate on
certified factorizations of x^n - 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def poly_trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_deg(f: Poly) -> int:
    """Degree; -1 is the zero-polynomial sentinel."""
    return len(f) - 1


def poly_add(fq: SmallField, f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(fq.add(a, b))
    return poly_trim(out)


def poly_neg(fq: SmallField, f: Poly) -> Poly:
    return tuple(fq.neg(c) for c in f)


def poly_sub(fq: SmallField, f: Poly, g: Poly) -> Poly:
    return poly_add(fq, f, poly_neg(fq, g))


def poly_scale(fq: SmallField, c: int, f: Poly) -> Poly:
    if c == 0:
        return ZERO
    return poly_trim(fq.mul(c, a) for a in f)


def poly_mul(fq: SmallField, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = fq.add(out[i + j], fq.mul(a, b))
    return poly_trim(out)


def poly_divmod(fq: SmallField, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = poly_deg(g)
    inv_lead = fq.inv(g[-1])
    quot = [0] * max(0, len(rem) - dg)
    while len(rem) - 1 >= dg and rem:
        shift = len(rem) - 1 - dg
        c = fq.mul(rem[-1], inv_lead)
        quot[shift] = c
        for i, gi in enumerate(g):
            rem[shift + i] = fq.sub(rem[shift + i], fq.mul(c, gi))
        while rem and rem[-1] == 0:
            rem.pop()
    return poly_trim(quot), poly_trim(rem)


def poly_mod(fq: SmallField, f: Poly, g: Poly) -> Poly:
    return poly_divmod(fq, f, g)[1]


def poly_monic(fq: SmallField, f: Poly) -> Poly:
    if not f:
        return ZERO
    if f[-1] == 1:
        return f
    return poly_scale(fq, fq.inv(f[-1]), f)


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
    acc = 0
    for a in reversed(f):
        acc = fq.add(fq.mul(acc, c), a)
    return acc


def x_pow_n_minus_1(fq: SmallField, n: int) -> Poly:
    coeffs = [0] * (n + 1)
    coeffs[0] = fq.neg(1)
    coeffs[n] = 1
    return tuple(coeffs)


def monic_polys(fq: SmallField, d: int):
    """Monic degree-d polynomials, low coefficients cycling fastest."""
    q = fq.q
    for enc in range(q**d):
        coeffs = []
        e = enc
        for _ in range(d):
            coeffs.append(e % q)
            e //= q
        coeffs.append(1)
        yield tuple(coeffs)


def is_irreducible(fq: SmallField, f: Poly) -> bool:
    """Deterministic irreducibility certification.

    Exhaustive divisor scan up to degree deg(f)/2 while the candidate count
    stays desk-sized (this covers every degree <= 3 case); above that, the
    Ben-Or distinct-degree test: gcd(x^(q^j) - x, f) = 1 for every
    j <= deg(f)/2.  Both routes are exact, never probabilistic.
    """
    d = poly_deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False
    candidates = sum(fq.q**dd for dd in range(1, d // 2 + 1))
    if candidates <= 4096:
        for dd in range(1, d // 2 + 1):
            for g in monic_polys(fq, dd):
                if not poly_divmod(fq, f, g)[1]:
                    return False
        return True
    return _ben_or_irreducible(fq, f)


def _ben_or_irreducible(fq: SmallField, f: Poly) -> bool:
    """f (degree >= 1) is irreducible iff no x^(q^j) - x with j <= deg(f)/2
    shares a factor with it; a reducible f is rejected at the smallest degree
    of its irreducible factors."""
    x_poly: Poly = (0, 1)
    cur = poly_mod(fq, x_poly, f)
    for _ in range(poly_deg(f) // 2):
        cur = poly_pow_mod(fq, cur, fq.q, f)
        if poly_deg(poly_gcd(fq, poly_sub(fq, cur, x_poly), f)) != 0:
            return False
    return True


def first_irreducible(fq: SmallField, d: int) -> Poly:
    """First monic irreducible of degree d in monic_polys order: the
    lexicographically smallest, coefficients compared low-to-high."""
    for f in monic_polys(fq, d):
        if is_irreducible(fq, f):
            return f
    raise ConsistencyError(f"no irreducible of degree {d} over F_{fq.q}")


@dataclass(frozen=True)
class PolyFactorization:
    """Factorization of `value` into monic irreducibles with exponents.

    Every factor is re-certified irreducible on construction by the
    exhaustive divisor check, and the product is verified to equal `value`.
    """

    fq: SmallField
    entries: tuple[tuple[Poly, int], ...]
    value: Poly

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

    def distinct_factors(self) -> list[Poly]:
        return [f for f, _ in self.entries]


def _split_equal_degree(fq: SmallField, g: Poly, d: int) -> list[Poly]:
    """Split g (product of distinct irreducibles, all of degree d) completely."""
    if poly_deg(g) == d:
        return [poly_monic(fq, g)]
    q = fq.q
    if d == 1:
        roots = [c for c in range(q) if poly_eval(fq, g, c) == 0]
        if len(roots) != poly_deg(g):
            raise ConsistencyError("root scan lost factors")
        return [(fq.neg(c), 1) for c in roots]
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
    q = fq.q
    factors: list[Poly] = []
    rest = poly_monic(fq, f)
    x_poly: Poly = (0, 1)
    h = poly_mod(fq, x_poly, rest)
    d = 0
    while poly_deg(rest) > 0:
        d += 1
        if 2 * d > poly_deg(rest):
            factors.append(rest)
            break
        h = poly_pow_mod(fq, h, q, rest)
        g = poly_gcd(fq, poly_sub(fq, h, x_poly), rest)
        if poly_deg(g) > 0:
            factors.extend(_split_equal_degree(fq, g, d))
            rest = poly_divmod(fq, rest, g)[0]
            h = poly_mod(fq, h, rest)
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
    """All monic divisors, sorted by (degree, coefficients)."""
    fq = fact.fq
    divs = [ONE]
    for factor, exp in fact.entries:
        powers = [ONE]
        for _ in range(exp):
            powers.append(poly_mul(fq, powers[-1], factor))
        divs = [poly_mul(fq, d, pw) for d in divs for pw in powers]
    divs.sort(key=lambda f: (poly_deg(f), f))
    return divs


def poly_sigma(fact: PolyFactorization) -> int:
    """σ_q(f) = Σ q^deg(d) over the monic divisors d of f."""
    q = fact.fq.q
    degree_choices = [
        [poly_deg(factor) * j for j in range(exp + 1)] for factor, exp in fact.entries
    ]
    total = 0
    for combo in itertools.product(*degree_choices):
        total += q ** sum(combo)
    return total


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
