"""Integer-side arithmetic.

Deterministic factorization, Möbius and totient functions, multiplicative
orders, and empirical verifiers for the summatory and extreme-value bounds
used by the counting machinery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, ResourceLimitError

# Deterministic witness sets: Miller-Rabin with the first j primes as bases
# is exact below ψ_j, the least strong pseudoprime to all of them
# (Pomerance-Selfridge-Wagstaff 1980, Jaeschke 1993, Sorenson-Webster 2015).
# (ψ_j, j) in increasing order; ψ_8 = ψ_7 and ψ_10 = ψ_11 = ψ_9.  All 12
# bases 2..37 are proven below ψ_12 ≈ 3.2·10^23, far above the 2^63-1 input
# cap of factorize; beyond ψ_12 the answer is unproven.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)

_TRIAL_LIMIT = 10**6

EULER_GAMMA = 0.57721566490153286

# 2·3·5·7·11·13·17·19·23, the single integer exceeding the e^γ·loglog upper
# bound with the 5/2 correction term.
RS_EXCEPTIONAL_N = 223092870


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True  # no prime factor <= 37, so none at all
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    count = next((j for psi, j in _MR_PSI if n < psi), len(_MR_BASES))
    for a in _MR_BASES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle rho with a fixed parameter sweep; returns a proper factor.

    The polynomial offset c walks 1, 2, 3, ... so the outcome depends only
    on n, never on external randomness.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ConsistencyError(f"rho parameter sweep exhausted for {n}")


@dataclass(frozen=True)
class Factorization:
    """Multiset of (prime, exponent) pairs whose product is `value`."""

    entries: tuple[tuple[int, int], ...]
    value: int

    def __post_init__(self):
        prod = 1
        prev = 1
        for base, exp in self.entries:
            if base <= prev:
                raise ConsistencyError("factor bases must be strictly increasing")
            if exp < 1:
                raise ConsistencyError("exponents must be positive")
            if not is_prime(base):
                raise ConsistencyError(f"{base} is not prime")
            prev = base
            prod *= base**exp
        if prod != self.value:
            raise ConsistencyError(f"factor product {prod} != value {self.value}")

    def primes(self) -> list[int]:
        return [b for b, _ in self.entries]

    @functools.cached_property
    def totient(self) -> int:
        """φ(value), by the product over the prime factors."""
        result = self.value
        for p, _ in self.entries:
            result -= result // p
        return result


def factorize(n: int) -> Factorization:
    """Deterministic factorization: trial division, then seeded rho.

    Accepts 2 <= n <= 2^63 - 1.
    """
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    if n > 2**63 - 1:
        raise ResourceLimitError(f"{n} exceeds the 2^63-1 factorization cap")
    remaining = n
    found: dict[int, int] = {}
    d = 2
    while d <= _TRIAL_LIMIT and d * d <= remaining:
        while remaining % d == 0:
            found[d] = found.get(d, 0) + 1
            remaining //= d
        d += 1 if d == 2 else 2
    stack = [remaining] if remaining > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        g = _pollard_rho(m)
        stack.append(g)
        stack.append(m // g)
    entries = tuple(sorted(found.items()))
    return Factorization(entries=entries, value=n)


def mobius(n: int) -> int:
    """μ(n): 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    if n == 1:
        return 1
    fact = factorize(n)
    if any(e >= 2 for _, e in fact.entries):
        return 0
    return -1 if len(fact.entries) % 2 else 1


def euler_phi(n: int) -> int:
    """φ(n) by the product over prime divisors; φ(1) = 1 by convention."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    return factorize(n).totient if n > 1 else 1


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    if n == 1:
        return [1]
    divs = [1]
    for p, e in factorize(n).entries:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def multiplicative_order(a: int, m: int) -> int:
    """Least e >= 1 with a^e = 1 (mod m), found among the divisors of φ(m)."""
    if m < 2:
        raise ValueError(f"multiplicative_order requires m >= 2, got {m}")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"gcd({a}, {m}) != 1, order undefined")
    phi = euler_phi(m)
    for d in divisors(phi):
        if pow(a, d, m) == 1:
            return d
    raise ConsistencyError(f"no order found for {a} mod {m}")


def mobius_sieve(limit: int) -> list[int]:
    """μ(0..limit) as a list (μ(0) set to 0)."""
    mu = [1] * (limit + 1)
    mu[0] = 0
    is_comp = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if is_comp[p]:
            continue
        for m in range(p, limit + 1, p):
            if m > p:
                is_comp[m] = 1
            mu[m] = -mu[m]
        pp = p * p
        for m in range(pp, limit + 1, pp):
            mu[m] = 0
    return mu


def least_prime_factor_sieve(limit: int) -> list[int]:
    """The least prime factor of each of 0..limit as a list (0 and 1 map to
    themselves)."""
    lpf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if lpf[p] == p:
            for m in range(p * p, limit + 1, p):
                if lpf[m] == m:
                    lpf[m] = p
    return lpf


def phi_sieve(limit: int) -> list[int]:
    """φ(0..limit) as a list (φ(0) set to 0)."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


@dataclass(frozen=True)
class SummatoryReport:
    """Exact Möbius summatory statistics at x plus ratios against the bounds.

    bound_ratios holds (Mertens, reciprocal, fractional) statistics each
    divided by its published bound with c = 1; the constants are unspecified
    for these bounds, so they are reported and never asserted.
    """

    x: int
    mertens: int
    reciprocal_sum: Fraction
    fractional_sum: Fraction
    bound_ratios: tuple[float, float, float]
    identity_residual: Fraction

    def __post_init__(self):
        if abs(self.identity_residual) > Fraction(1, 10**9):
            raise ConsistencyError(
                f"summatory identity residual {self.identity_residual} too large"
            )


def mertens_report(x: int) -> SummatoryReport:
    """Exact Σμ(n), Σμ(n)/n and Σμ(n){x/n} for n <= x.

    The three statistics satisfy Σμ(n){x/n} = x·Σμ(n)/n - 1 exactly; the
    report computes both sides independently and stores the residual, each
    summed in integers scaled by L = lcm(1..x), a product of prime powers.
    """
    if x < 1:
        raise ValueError(f"mertens_report requires x >= 1, got {x}")
    if x > 10**7:
        raise ResourceLimitError(f"x = {x} exceeds the 10^7 summation cap")
    mu = mobius_sieve(x)
    mertens = sum(mu[1:])
    big_l = 1
    for r, least in enumerate(least_prime_factor_sieve(x)):
        if r > 1 and least == r:
            power = r
            while power * r <= x:
                power *= r
            big_l *= power
    # n | L for every n <= x, so each L // n is exact
    reciprocal = fractional = 0
    for n, m in enumerate(mu):
        if m:
            scaled = m * (big_l // n)
            reciprocal += scaled
            fractional += x % n * scaled
    reciprocal, fractional = Fraction(reciprocal, big_l), Fraction(fractional, big_l)
    residual = fractional - (x * reciprocal - 1)
    envelope = math.exp(-math.sqrt(math.log(x))) if x > 1 else 1.0
    ratios = (mertens / (x * envelope), float(reciprocal) / envelope, float(fractional + 1) / (x * envelope))
    return SummatoryReport(x=x, mertens=mertens, reciprocal_sum=reciprocal, fractional_sum=fractional,
                           bound_ratios=ratios, identity_residual=residual)


@dataclass(frozen=True)
class PhiBoundsReport:
    n: int
    ratio: float
    rs_upper_ok: bool
    lower_ok: bool


def phi_bounds(n: int, phi: int) -> tuple[bool, bool]:
    """(rs_upper_ok, lower_ok): φ(n)/n, with phi = φ(n) and n >= 5, against
    the classical two-sided loglog bounds.

    Upper: n/φ(n) < e^γ·loglog n + 5/(2·loglog n), true for every n >= 5
    except the lone exceptional primorial RS_EXCEPTIONAL_N.
    Lower: φ(n)/n >= (3/(e^γ·π²))/loglog n for n >= 5.
    """
    loglog = math.log(math.log(n))
    upper = math.exp(EULER_GAMMA) * loglog + 5.0 / (2.0 * loglog)
    lower = (3.0 / (math.exp(EULER_GAMMA) * math.pi**2)) / loglog
    return (n / phi < upper) or n == RS_EXCEPTIONAL_N, phi / n >= lower


def phi_bounds_report(n: int) -> PhiBoundsReport:
    """phi_bounds of n, with φ(n) from the factorization of n."""
    if n < 5:
        raise ValueError(f"phi_bounds_report requires n >= 5, got {n}")
    phi = euler_phi(n)
    return PhiBoundsReport(n, phi / n, *phi_bounds(n, phi))


def is_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fact = factorize(q)
    if len(fact.entries) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fact.entries[0]
