"""Coefficient-field arithmetic for F_q = F_p[y]/(m(y)).

Elements are integers in [0, q) encoding the F_p coordinate vector in base p
(low coordinate in the low digit).  Prime fields (k = 1) use direct modular
arithmetic.  For proper extensions the polynomial work (the modulus search
and the irreducibility check of a supplied modulus) is done by polyfq over the
prime field; the q x q multiplication table is then built from the modulus
one base-p digit at a time, and each inverse is read off its row.  The tables
cap proper extensions at q <= 512, ample for desk scale.
"""

from __future__ import annotations

import functools
import operator

from . import polyfq
from .errors import ResourceLimitError
from .numtheory import is_prime, is_prime_power

_TABLE_CAP = 512


def _add_digits(p: int, a: int, b: int, sign: int = 1) -> int:
    """Digit-wise a + sign·b mod p of two base-p digit vectors (sign an integer).

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
        self._mul_rows = None
        self._sum_rows = None
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
        """q x q products and, for odd p, sums from the modulus, one base-p
        digit at a time, and the inverses: the inverse of a is the index of 1
        in row a of the products.

        Row a of the products is row (a mod p) plus "times y" applied to row
        (a div p), as a = (a mod p) + y·(a div p), and row c < p is row c - 1
        plus row 1.  A sum is an XOR for p = 2; for odd p sum row a is built
        from two earlier sum rows (see below).
        """
        p, q = self.p, self.q
        if p == 2:
            def add_rows(u, v):
                return list(map(operator.xor, u, v))
        else:
            # row a is row (a - c) read at the entries of row c, as
            # a + b = (a - c) + (c + b), for c = a mod p (or 1 for 1 < a < p);
            # rows 1 and the multiples of p add the low digits mod p and the
            # rest as a // p + b // p
            sums = [list(range(q))]
            for a in range(1, q):
                c = a % p if a >= p else int(a > 1)
                sums.append(list(map(sums[a - c].__getitem__, sums[c])) if c else
                            [(a + b) % p + p * sums[a // p][b // p] for b in range(q)])
            self._sum_rows = sums

            def add_rows(u, v):
                return list(map(list.__getitem__, map(sums.__getitem__, u), v))

        # y·c: the digits of c move up one place and the top digit t comes
        # back as t·y^k, where y^k = -(m_0 + ... + m_(k-1)·y^(k-1))
        top = q // p
        wrap = [self.from_digits(-t * c for c in self.modulus[:-1]) for t in range(p)]
        times_y = add_rows([c % top * p for c in range(q)], [wrap[c // top] for c in range(q)])
        rows = [[0] * q, list(range(q))]
        for a in range(2, q):
            if a < p:
                rows.append(add_rows(rows[a - 1], rows[1]))
            else:
                high = list(map(times_y.__getitem__, rows[a // p]))
                rows.append(add_rows(rows[a % p], high) if a % p else high)
        self._mul_rows = rows
        self._inv_table = [0] + [row.index(1) for row in rows[1:]]

    def table_rows(self) -> tuple[list, list | None]:
        """Rows of the q x q products a·b and, for odd p, sums a + b (None for
        p = 2, where a sum is an XOR) of a proper extension (k > 1)."""
        if self.k == 1:
            raise ValueError("prime fields have no tables; use integers mod p")
        if self._mul_rows is None:
            self._build_tables()
        return self._mul_rows, self._sum_rows

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        rows = self._mul_rows
        if rows is None:
            self._build_tables()
            rows = self._mul_rows
        return rows[a][b]

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
