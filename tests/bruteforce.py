"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own code paths for the property they
check: primitivity by naive repeated multiplication, normality by exhaustive
span enumeration, totients by literal gcd counting.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations, product


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


def mertens_by_fractions(x: int) -> tuple:
    """(Σμ(n), Σμ(n)/n, Σμ(n)·(x mod n)/n) over n <= x, one Fraction term at
    a time, with μ by trial division."""
    mertens, reciprocal, fractional = 0, Fraction(0), Fraction(0)
    for n in range(1, x + 1):
        mu = mobius_by_trial(n)
        mertens += mu
        reciprocal += Fraction(mu, n)
        fractional += Fraction(mu * (x % n), n)
    return mertens, reciprocal, fractional


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


def power_by_ladder(ctx, a: int, e: int, mul=None) -> int:
    """a^e by right-to-left square and multiply, with ctx._mul_poly or the
    given product, one squaring per bit of e."""
    mul = mul or ctx._mul_poly
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def primitive_by_ladder(ctx, a: int) -> bool:
    """α^((q^n-1)/r) != 1 for every prime r of q^n - 1, each power by its own
    square-and-multiply ladder on the polynomial path."""
    m = ctx.order - 1
    return all(power_by_ladder(ctx, a, m // r) != 1 for r in ctx.mult_factorization.primes())


def additive_order_by_division(ctx, a: int):
    """Ord(α) by stripping the irreducible factors of x^n - 1 with polynomial
    division: each factor is divided out while the quotient still kills α,
    with one apply_linearized per step."""
    from pnfield.polyfq import poly_divmod, x_pow_n_minus_1

    d = x_pow_n_minus_1(ctx.fq, ctx.n)
    for factor, exp in ctx.add_factorization.entries:
        for _ in range(exp):
            cand, rem = poly_divmod(ctx.fq, d, factor)
            assert not rem, "stripping left a remainder"
            if ctx.apply_linearized(cand, a) == 0:
                d = cand
            else:
                break
    return d


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


def linear_map_by_columns(cols: list, a: int, p: int) -> int:
    """Σ a_d·cols[d] over the base-p digits a_d of a, left packed: the
    F_p-linear map with packed columns cols, one column per digit.  XOR of
    columns for p = 2, an integer sum otherwise."""
    total = 0
    if p == 2:
        for col in cols:
            if a & 1:
                total ^= col
            a >>= 1
        return total
    for col in cols:
        a, c = divmod(a, p)
        total += c * col
    return total


def pack_by_digits(a: int, p: int, bits: int) -> int:
    """The base-p digits of a, one per bits-wide slot, low digit lowest,
    one divmod per digit."""
    out = i = 0
    while a:
        a, c = divmod(a, p)
        out |= c << i * bits
        i += 1
    return out


def unpack_by_slots(t: int, p: int, bits: int) -> int:
    """Σ (slot_i mod p)·p^i over the bits-wide slots of t, one slot at a time."""
    val = i = 0
    while t:
        val += (t & (1 << bits) - 1) % p * p**i
        t >>= bits
        i += 1
    return val


def frobenius_by_powering(ctx, a: int, i: int) -> int:
    """α^(q^i) by i rounds of raising to the q-th power, each by q - 1
    schoolbook multiplications."""
    for _ in range(i):
        cur = a
        for _ in range(ctx.q - 1):
            cur = schoolbook_mul(ctx, cur, a)
        a = cur
    return a


# -- polynomials over F_q, one SmallField call per coefficient --------------------
# polyfq's products and division as they read before the kernels bound the
# coefficient arithmetic once per call; gcd, powers and evaluation are built
# on them.  Coefficient lists are low first; results are trimmed tuples.


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul_by_calls(fq, f, g) -> tuple:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = fq.add(out[i + j], fq.mul(a, b))
    return _trim(out)


def poly_divmod_by_calls(fq, f, g) -> tuple:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = len(g) - 1
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
    return _trim(quot), _trim(rem)


def poly_add_by_calls(fq, f, g, sub=False) -> tuple:
    n = max(len(f), len(g))
    f, g = list(f) + [0] * (n - len(f)), list(g) + [0] * (n - len(g))
    return _trim((fq.sub if sub else fq.add)(a, b) for a, b in zip(f, g))


def poly_gcd_by_calls(fq, f, g) -> tuple:
    """Monic gcd by Euclid on poly_divmod_by_calls."""
    while g:
        f, g = g, poly_divmod_by_calls(fq, f, g)[1]
    inv = fq.inv(f[-1])
    return _trim(fq.mul(inv, a) for a in f)


def poly_pow_mod_by_calls(fq, base, e: int, mod) -> tuple:
    """base^e mod mod by square-and-multiply from the low bit of e."""
    result = poly_divmod_by_calls(fq, (1,), mod)[1]
    base = poly_divmod_by_calls(fq, base, mod)[1]
    while e:
        if e & 1:
            result = poly_divmod_by_calls(fq, poly_mul_by_calls(fq, result, base), mod)[1]
        base = poly_divmod_by_calls(fq, poly_mul_by_calls(fq, base, base), mod)[1]
        e >>= 1
    return result


def poly_eval_by_calls(fq, f, c: int) -> int:
    acc = 0
    for a in reversed(f):
        acc = fq.add(fq.mul(acc, c), a)
    return acc



def q_power_map_by_rows(fq, f):
    """h -> h^q mod f, deg h < deg f, through the Q-matrix: row i is
    x^(iq) mod f, and h^q = Σ h_i·row_i as c^q = c on F_q."""
    rows = [poly_pow_mod_by_calls(fq, (0,) * i + (1,), fq.q, f) for i in range(len(f) - 1)]

    def apply(h):
        out = ()
        for c, row in zip(h, rows):
            out = poly_add_by_calls(fq, out, poly_mul_by_calls(fq, (c,), row))
        return out
    return apply


def is_irreducible_by_ben_or(fq, f) -> bool:
    """Ben-Or's test on coefficient tuples: no gcd(x^(q^j) - x, f) != 1 for
    j <= deg(f)/2, every power by the Q-matrix of f."""
    d = len(f) - 1
    if d <= 0:
        return False
    q_power, h = q_power_map_by_rows(fq, f), (0, 1)
    for _ in range(d // 2):
        h = q_power(h)
        if len(poly_gcd_by_calls(fq, poly_add_by_calls(fq, h, (0, 1), sub=True), f)) != 1:
            return False
    return True


# -- per-term character sums ----------------------------------------------------
# The character sums as they read before the exponent-indexed tables: one
# field mul/trace/add per term, the same terms in the same order, so the
# library's table-driven sums must equal them exactly, float for float.


def roots_of_unity(order: int) -> list:
    return [cmath.exp(2j * cmath.pi * j / order) for j in range(order)]


def gauss_sum_per_term(ctx, b: int, c: int) -> complex:
    m = ctx.order - 1
    b %= m
    if b == 0 and c == 0:
        return complex(sum(1 for _ in range(1, ctx.order)))
    ctx.ensure_tables()
    log = ctx.log_table
    if c == 0:
        counts = {}
        for a in range(1, ctx.order):
            e = b * log[a] % m
            counts[e] = counts.get(e, 0) + 1
        values = set(counts.values())
        if len(values) == 1 and len(counts) > 1:
            return complex(0)
        zm = roots_of_unity(m)
        return sum(cnt * zm[e] for e, cnt in counts.items())
    if b == 0:
        counts = {}
        for a in range(1, ctx.order):
            t = ctx.trace(ctx.mul(c, a))
            counts[t] = counts.get(t, 0) + 1
        nonzero = {counts.get(j, 0) for j in range(1, ctx.p)}
        if len(nonzero) == 1:
            return complex(counts.get(0, 0) - nonzero.pop())
        zp = roots_of_unity(ctx.p)
        return sum(cnt * zp[t] for t, cnt in counts.items())
    zm = roots_of_unity(m)
    zp = roots_of_unity(ctx.p)
    total = 0j
    for a in range(1, ctx.order):
        total += zm[b * log[a] % m] * zp[ctx.trace(ctx.mul(c, a))]
    return total


def double_product_sum_ratio_per_term(ctx, c: int, u_set, v_set) -> float:
    zp = roots_of_unity(ctx.p)
    total = 0j
    for u in u_set:
        cu = ctx.mul(c, u)
        for v in v_set:
            total += zp[ctx.trace(ctx.mul(cu, v))]
    bound = ctx.order**0.5 * math.sqrt(len(u_set) * len(v_set))
    return abs(total) / bound


def shifted_sum_ratio_per_term(ctx, b: int, u_set, v_set) -> float:
    m = ctx.order - 1
    ctx.ensure_tables()
    log = ctx.log_table
    zm = roots_of_unity(m)
    total = 0j
    for u in u_set:
        for v in v_set:
            w = ctx.add(u, v)
            if w:
                total += zm[b * log[w] % m]
    bound = ctx.order**0.5 * math.sqrt(len(u_set) * len(v_set))
    return abs(total) / bound


def units_sum_ratio_per_term(ctx, c: int, eta: int) -> float:
    zp = roots_of_unity(ctx.p)
    total = 0j
    for w in ctx.normal_image(eta):
        total += zp[ctx.trace(ctx.mul(c, w))]
    return abs(total) / ctx.order**0.5


def fourier_identity_max_residuals_per_term(ctx, b: int, c: int) -> tuple:
    qn = ctx.order
    m = qn - 1
    ctx.ensure_tables()
    log = ctx.log_table
    zm = roots_of_unity(m)
    zp = roots_of_unity(ctx.p)
    g_add = [gauss_sum_per_term(ctx, -bb, c) for bb in range(m)]
    g_mult = [gauss_sum_per_term(ctx, b, ctx.neg(cc)) for cc in range(qn)]
    res_add = 0.0
    res_mult = 0.0
    for a in range(1, qn):
        la = log[a]
        psi_val = zp[ctx.trace(ctx.mul(c, a))]
        total = sum(zm[bb * la % m] * g_add[bb] for bb in range(m))
        res_add = max(res_add, abs(psi_val - total / m))
        chi_val = zm[b * la % m]
        total = sum(zp[ctx.trace(ctx.mul(cc, a))] * g_mult[cc] for cc in range(qn))
        res_mult = max(res_mult, abs(chi_val - total / qn))
    return res_add, res_mult


def df_inner_per_term(ctx, d: int) -> complex:
    """Σ_t e(d·t/q^n) over t < q^n, summed in order of t."""
    qn = ctx.order
    zq = roots_of_unity(qn)
    return sum(zq[d * t % qn] for t in range(qn))


def indicator_primitive_df_literal_per_term(ctx, a: int, rotation: int = 0) -> int:
    qn = ctx.order
    m = qn - 1
    big_l = ctx.log_table[a]
    s_list = [s for s in range(1, qn) if math.gcd(s, m) == 1]
    if rotation:
        r = rotation % len(s_list)
        s_list = s_list[r:] + s_list[:r]
    zq = roots_of_unity(qn)
    total = 0j
    for s in s_list:
        inner = sum(zq[(s - big_l) * t % qn] for t in range(qn))
        total += inner / qn
    out = round(total.real)
    assert abs(total.imag) <= 1e-6 and abs(total.real - out) <= 1e-6 and out in (0, 1)
    return out


def indicator_primitive_dd_per_alpha(ctx, a: int) -> int:
    """(φ(m)/m)·Σ_{d|m squarefree} μ(d)/φ(d)·c_d(log α), m = q^n - 1, with the
    Ramanujan sum c_d(L) = Π_{r|d} (r - 1 if r | L else -1), in Fractions and
    for each α on its own, as the divisor-dependent primitive indicator read
    before it kept one value per class."""
    m = ctx.order - 1
    if m == 1:
        return 1
    big_l = ctx.log_table[a]
    primes = [r for r, _ in factor_by_trial(m)]
    total = Fraction(0)
    for size in range(len(primes) + 1):
        for sel in combinations(primes, size):
            ramanujan = math.prod(r - 1 if big_l % r == 0 else -1 for r in sel)
            total += Fraction((-1) ** size * ramanujan, math.prod(r - 1 for r in sel))
    value = math.prod(Fraction(r - 1, r) for r in primes) * total  # φ(m)/m · Σ
    assert value in (0, 1), value
    return int(value)


def indicator_normal_dd_per_term(ctx, a: int):
    """The divisor-dependent normal indicator with one ctx.trace(ctx.mul(c, α))
    per spanning vector c of each kernel K_e, every subset E of the factors
    spanning its own K_e (the image of its cofactor), so that no class key
    is taken on trust."""
    from pnfield.characters import _ensure_norm_dd_data

    if ctx.n % ctx.p == 0:
        return None
    subsets = _ensure_norm_dd_data(ctx)[0]
    t, dim = len(ctx.add_factorization.entries), ctx.k * ctx.n
    full_sums = [0] * (1 << t)
    for entry in subsets:
        cof = tuple(1 - (entry["mask"] >> i & 1) for i in range(t))
        span = {ctx.divisor_action(cof, ctx.p**d) for d in range(dim)}
        ok = all(ctx.trace(ctx.mul(c, a)) == 0 for c in span)
        full_sums[entry["mask"]] = entry["kernel_size"] if ok else 0
    total = Fraction(0)
    for entry in subsets:
        mask = entry["mask"]
        s_d = 0
        sub = mask
        while True:
            bits = bin(mask ^ sub).count("1")
            s_d += (-1 if bits % 2 else 1) * full_sums[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        total += Fraction(entry["mu"] * s_d, entry["phi"])
    phi_full = 1
    for factor, _ in ctx.add_factorization.entries:
        phi_full *= ctx.q ** (len(factor) - 1) - 1
    value = Fraction(phi_full, ctx.order) * total
    assert value in (0, 1), value
    return int(value)


# -- literal float forms of the indicators, and other test-only enumerations ------
# The divisor-dependent indicators summed over every character, and the
# divisor-free normal one over every coprime s, in complex floats; each value
# must round to 0 or 1.


def _rounded_indicator(value: complex, tol: float) -> int:
    out = round(value.real)
    assert abs(value.imag) <= tol and abs(value.real - out) <= tol and out in (0, 1), value
    return out


def indicator_primitive_dd_literal(ctx, a: int) -> int:
    """Σ_{d|m} μ(d)/φ(d)·Σ_{ord χ = d} χ(α), scaled by φ(m)/m (m = q^n - 1),
    with the characters enumerated as χ_b over b < m and grouped by order."""
    m = ctx.order - 1
    big_l = ctx.log_table[a]
    zm = roots_of_unity(m)
    by_order = {}
    for b in range(m):
        d = m // math.gcd(b, m)
        by_order[d] = by_order.get(d, 0) + zm[b * big_l % m]
    total = sum(mobius_by_trial(d) / phi_by_gcd_count(d) * inner for d, inner in by_order.items())
    return _rounded_indicator(total * phi_by_gcd_count(m) / m, 1e-8)


def indicator_normal_dd_literal(ctx, a: int):
    """Σ_{d|x^n-1} μ_q(d)/Φ_q(d)·Σ_{Ord ψ = d} ψ(α), scaled by Φ_q(x^n-1)/q^n,
    with every additive character ψ_c grouped by the additive order of c;
    None when p | n (x^n - 1 not squarefree)."""
    if ctx.n % ctx.p == 0:
        return None
    norms = [ctx.q ** (len(f) - 1) for f, _ in ctx.add_factorization.entries]
    zp = roots_of_unity(ctx.p)
    sums = {}
    for c in range(ctx.order):
        exps = ctx.additive_order_exponents(c)
        sums[exps] = sums.get(exps, 0j) + zp[ctx.trace(ctx.mul(c, a))]
    total = 0j
    for exps, inner in sums.items():
        phi_d = math.prod(nr - 1 for nr, j in zip(norms, exps) if j)
        total += (-1) ** sum(exps) * inner / phi_d
    return _rounded_indicator(total * math.prod(nr - 1 for nr in norms) / ctx.order, 1e-8)


def indicator_normal_df_literal(ctx, a: int, eta: int) -> int:
    """(1/q^n)·Σ_s Σ_t e((log(s∘η) - log α)·t/q^n) over the coprime s, for a
    normal η."""
    qn, log = ctx.order, ctx.log_table
    total = 0j
    for s in coprime_residues_by_gcd(ctx.fq, ctx.n):
        total += df_inner_per_term(ctx, (log[ctx.apply_linearized(s, eta)] - log[a]) % qn) / qn
    return _rounded_indicator(total, 1e-6)


def coprime_residues_by_gcd(fq, n: int) -> list:
    """The units of F_q[x]/(x^n - 1) in the order of their base-q encodings,
    one packed gcd with x^n - 1 per residue: an encoding, its base-p digits
    spread to slots, is the packed residue."""
    from pnfield.polyfq import _pack, _packed, x_pow_n_minus_1

    ring = _packed(fq)
    xn1, p, bits = ring.pack(x_pow_n_minus_1(fq, n)), fq.p, ring.W
    residues = (_pack(enc, p, bits) for enc in range(1, fq.q**n))
    return [ring.unpack(s) for s in residues if ring.degree(ring.gcd(xn1, s)) == 0]


def normal_image_by_action(ctx, eta: int) -> frozenset:
    """{s∘η} over the units s, one apply_linearized per unit, inserted in
    the order of the units' encodings."""
    return frozenset(ctx.apply_linearized(s, eta) for s in coprime_residues_by_gcd(ctx.fq, ctx.n))


def additive_order_census(ctx) -> dict:
    """#{α : additive order d(x)} for every monic divisor d(x) of x^n - 1."""
    census = {}
    for a in range(ctx.order):
        d = additive_order_by_division(ctx, a)
        census[d] = census.get(d, 0) + 1
    return census


def monic_divisors(fact) -> list:
    """All monic divisors of a factorization, sorted by (degree, coefficients):
    the products of every choice of factor powers, multiplied out."""
    from pnfield.polyfq import ONE, poly_mul

    divs = []
    for exps in product(*(range(e + 1) for _, e in fact.entries)):
        d = ONE
        for (factor, _), j in zip(fact.entries, exps):
            for _ in range(j):
                d = poly_mul(fact.fq, d, factor)
        divs.append(d)
    return sorted(divs, key=lambda f: (len(f), f))


def hamming_weight(r) -> int:
    """Number of nonzero coefficients."""
    return sum(1 for c in r if c)


def height(ctx, r) -> int:
    """Max centered-representative magnitude over all F_p coordinates.

    Representatives live in (-p/2, p/2]: coordinate c maps to c when
    c <= p/2 and c - p otherwise.
    """
    half = ctx.p // 2
    best = 0
    for coeff in r:
        for d in ctx.fq.digits(coeff):
            centered = d if d <= half else d - ctx.p
            best = max(best, abs(centered))
    return best


def structured_by_closure(ctx, elems) -> tuple:
    """subsets.is_structured by the definition: the subfield test, then
    whether A ∪ {0} is closed under F_p-scaling and addition, pair by pair."""
    elems = set(elems)
    if not elems:
        raise ValueError("subset must be nonempty")
    for d in range(1, ctx.n + 1):
        if ctx.n % d == 0 and len(elems) == ctx.q**d and all(ctx.pow(a, ctx.q**d) == a for a in elems):
            return True, "subfield"
    if len(elems) == 1 and 0 not in elems:
        return False, None
    padded = elems | {0}
    for a in padded:
        for c in range(ctx.p):
            if ctx.mul(ctx.embed_base(c), a) not in padded:
                return False, None
        for b in padded:
            if ctx.add(a, b) not in padded:
                return False, None
    return True, "subspace"


def normal_by_fq_rank(ctx, a: int) -> bool:
    """α normal iff the coordinate vectors of α, α^q, ..., α^(q^(n-1)), each
    power by a ladder of schoolbook products, have F_q-rank n: Gauss–Jordan
    elimination with one SmallField call per entry."""
    fq, rows, cur = ctx.fq, [], a
    for _ in range(ctx.n):
        rows.append(ctx.decode(cur))
        cur = power_by_ladder(ctx, cur, ctx.q, mul=lambda x, y: schoolbook_mul(ctx, x, y))
    rank = 0
    for col in range(ctx.n):
        pivot = next((r for r in range(rank, ctx.n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = fq.inv(rows[rank][col])
        for r in range(ctx.n):
            if r != rank and rows[r][col]:
                f = fq.mul(rows[r][col], inv)
                rows[r] = [fq.sub(x, fq.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank == ctx.n
