"""Coefficient-field arithmetic for F_q = F_p[y]/(m(y)).

Elements are integers in [0, q) encoding the F_p coordinate vector in base p
(low coordinate in the low digit).  Prime fields (k = 1) use direct modular
arithmetic.  For proper extensions the polynomial work (the modulus search,
the irreducibility check of a supplied modulus, and the powers of the first
primitive element g) is done by polyfq over the prime field; the q x q
multiplication and inverse tables are then read off the exp/log tables of g.
The tables cap proper extensions at q <= 512, ample for desk scale.
"""

from __future__ import annotations

import functools

from . import polyfq
from .errors import ConsistencyError, ResourceLimitError
from .numtheory import factorize, is_prime, is_prime_power

_TABLE_CAP = 512


def _add_digits(p: int, a: int, b: int, sign: int = 1) -> int:
    """Digit-wise a + sign·b mod p of two base-p digit vectors (sign is ±1).

    Elements of F_q and of F_{q^n} are both base-p digit vectors, so this one
    loop serves add, sub and neg on every floor of the tower.
    """
    val, mult = 0, 1
    while a or b:
        val += (a + sign * b) % p * mult
        a //= p
        b //= p
        mult *= p
    return val


class SmallField:
    """Arithmetic in F_q with integer-encoded elements.

    The constant elements 0..p-1 are the prime subfield F_p.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.q = p**k
        if modulus is None:
            # lexicographically smallest monic irreducible, coefficients
            # compared low-to-high as integers; for k = 1 the polynomial y
            modulus = (0, 1) if k == 1 else polyfq.first_irreducible(canonical_field(p), k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"base modulus must be monic of degree {k}")
            if not polyfq.is_irreducible(canonical_field(p), modulus):
                raise ValueError(f"base modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self._mul_table = None
        self._inv_table = None
        if k > 1 and self.q > _TABLE_CAP:
            raise ResourceLimitError(
                f"F_{self.q} coefficient field exceeds the table cap {_TABLE_CAP}"
            )

    def __repr__(self):
        return f"SmallField(p={self.p}, k={self.k})"

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_digits(self, ds) -> int:
        val = 0
        for d in reversed(list(ds)):
            val = val * self.p + d % self.p
        return val

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        return _add_digits(self.p, a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.k == 1:
            return (-a) % self.p
        return _add_digits(self.p, 0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _build_tables(self):
        """q x q products and inverses from the powers of the first primitive
        element g: a·b = g^(log a + log b) and a^-1 = g^(-log a).

        Built on the first product or inverse; mul and inv read the tables
        directly afterwards, so a product costs no further call.
        """
        q, m = self.q, self.q - 1
        fp = canonical_field(self.p)
        mod = self.modulus
        primes = factorize(m).primes()
        for g in range(1, q):
            gpoly = polyfq.poly_trim(self.digits(g))
            if all(polyfq.poly_pow_mod(fp, gpoly, m // r, mod) != polyfq.ONE for r in primes):
                break
        else:
            raise ConsistencyError(f"no primitive element in F_{q}")
        exp = [0] * (2 * m)
        log = [0] * q
        cur = polyfq.ONE
        for i in range(m):
            a = self.from_digits(cur)
            exp[i] = exp[i + m] = a
            log[a] = i
            cur = polyfq.poly_mod(fp, polyfq.poly_mul(fp, cur, gpoly), mod)
        logs = log[1:]
        table = [0] * q
        for a in range(1, q):
            la = log[a]
            table += [0] + [exp[la + lb] for lb in logs]
        self._mul_table = table
        self._inv_table = [0] + [exp[m - la] for la in logs]

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        table = self._mul_table
        if table is None:
            self._build_tables()
            table = self._mul_table
        return table[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is None:
            self._build_tables()
        return self._inv_table[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


@functools.lru_cache(maxsize=None)
def canonical_field(q: int) -> SmallField:
    """F_q with the canonical (lexicographically smallest) modulus."""
    p, k = is_prime_power(q)
    return SmallField(p, k)
