"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own code paths for the property they
check: primitivity by naive repeated multiplication, normality by exhaustive
span enumeration, totients by literal gcd counting.
"""

import math
from itertools import product


def phi_by_gcd_count(n: int) -> int:
    """Literal definition: #{k < n : gcd(k, n) = 1}, with φ(1) = 1."""
    if n == 1:
        return 1
    return sum(1 for k in range(1, n) if math.gcd(k, n) == 1)


def divisors_by_scan(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def factor_by_trial(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def mobius_by_trial(n: int) -> int:
    fact = factor_by_trial(n)
    if any(e >= 2 for _, e in fact):
        return 0
    return -1 if len(fact) % 2 else 1


def order_by_powering(ctx, a: int) -> int:
    """Multiplicative order by naive repeated multiplication."""
    cur = a
    order = 1
    while cur != ctx.embed_base(1):
        cur = ctx._mul_poly(cur, a)
        order += 1
        if order > ctx.order:
            raise AssertionError("powering never reached 1")
    return order


def primitive_by_powering(ctx, a: int) -> bool:
    return order_by_powering(ctx, a) == ctx.order - 1


def normal_by_span(ctx, a: int) -> bool:
    """Exhaustive span check: the F_q-combinations of the Frobenius orbit
    must cover the whole field.  Exponential; tiny fields only."""
    orbit = []
    cur = a
    for _ in range(ctx.n):
        orbit.append(cur)
        cur = ctx.pow(cur, ctx.q)
    seen = set()
    for coeffs in product(range(ctx.q), repeat=ctx.n):
        total = 0
        for c, w in zip(coeffs, orbit):
            total = ctx.add(total, ctx.mul(ctx.embed_base(c), w))
        seen.add(total)
    return len(seen) == ctx.order


def normal_by_det_n2(ctx, a: int) -> bool:
    """n = 2 only: α normal iff (α, α^q) are F_q-independent (2x2 determinant)."""
    assert ctx.n == 2
    if a == 0:
        return False
    u = ctx.decode(a)
    v = ctx.decode(ctx.pow(a, ctx.q))
    det = ctx.fq.sub(ctx.fq.mul(u[0], v[1]), ctx.fq.mul(u[1], v[0]))
    return det != 0


def dlog_by_scan(ctx, a: int) -> int:
    """Discrete log by naive enumeration of powers of the reference element."""
    tau = ctx.reference_tau
    cur = ctx.embed_base(1)
    for e in range(ctx.order - 1):
        if cur == a:
            return e
        cur = ctx._mul_poly(cur, tau)
    raise AssertionError("element not in the cyclic group")


def _mulmod(f, g, mod, add, mul, neg, zero):
    """f·g mod the monic mod, schoolbook, for coefficient lists (low first)
    over a ring given by its add, mul and neg."""
    prod = [zero] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            prod[i + j] = add(prod[i + j], mul(fi, gj))
    d = len(mod) - 1
    for top in range(len(prod) - 1, d - 1, -1):
        c = neg(prod[top])
        for i, mi in enumerate(mod):
            prod[top - d + i] = add(prod[top - d + i], mul(c, mi))
    return (prod + [zero] * d)[:d]


def schoolbook_mul(ctx, a: int, b: int) -> int:
    """a·b in F_{q^n} from integer coefficient lists: an F_q element is an
    integer mod p when k = 1 and otherwise a list of k integers mod p reduced
    mod the base modulus m(y); an element of F_{q^n} is a list of n of those
    reduced mod the extension modulus f(x).  Uses nothing of the library but
    the two moduli and the integer encoding."""
    p, k, n, q = ctx.p, ctx.k, ctx.n, ctx.q

    def split(v, base, count):
        out = []
        for _ in range(count):
            v, r = divmod(v, base)
            out.append(r)
        return out

    def fp_add(x, y):
        return (x + y) % p

    def fp_mul(x, y):
        return x * y % p

    def fp_neg(x):
        return -x % p

    if k == 1:
        zero, to_fq, from_fq = 0, int, int
        fq_add, fq_mul, fq_neg = fp_add, fp_mul, fp_neg
    else:
        zero = [0] * k

        def to_fq(c):
            return split(c, p, k)

        def from_fq(x):
            return sum(d * p**t for t, d in enumerate(x))

        def fq_add(x, y):
            return [(s + t) % p for s, t in zip(x, y)]

        def fq_mul(x, y):
            return _mulmod(x, y, ctx.base_modulus, fp_add, fp_mul, fp_neg, 0)

        def fq_neg(x):
            return [-s % p for s in x]

    coords = _mulmod([to_fq(c) for c in split(a, q, n)], [to_fq(c) for c in split(b, q, n)],
                     [to_fq(c) for c in ctx.ext_modulus], fq_add, fq_mul, fq_neg, zero)
    return sum(from_fq(c) * q**j for j, c in enumerate(coords))


def frobenius_by_powering(ctx, a: int, i: int) -> int:
    """α^(q^i) by i rounds of raising to the q-th power, each by q - 1
    schoolbook multiplications."""
    for _ in range(i):
        cur = a
        for _ in range(ctx.q - 1):
            cur = schoolbook_mul(ctx, cur, a)
        a = cur
    return a
