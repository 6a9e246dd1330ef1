"""Discrete logarithms, additive/multiplicative characters, Gauss sums, and
the four characteristic functions for primitive and normal elements.

The normative implementation of every indicator is the exact integer
collapse.  The literal float forms, cross-checks at tiny sizes, live in
tests/bruteforce.py, except the divisor-free primitive one, which stays here
because the df-rotation-invariance claim evaluates it.

Multiplicative characters are indexed through the discrete log with respect
to the reference primitive normal element: χ_b(α) = e(b·log α / (q^n - 1)).
Additive characters ψ_c(α) = e(tr(c·α)/p) are indexed by c, and the order of
ψ_c is the additive order of c, the unique choice that makes the subgroup
counts #{c : Ord ψ_c | d} = q^deg(d) come out right.

The complex sums read their character values from integer tables indexed by
exponents of τ, built once per field from ``FieldCtx.log_table`` (which
raises ResourceLimitError above the table cap), trace and add, and kept in
``FieldCtx.char_cache``; the two indexed by exponents hold each entry at i
and i + m (m = q^n - 1), so a sum or difference of two logs needs no
reduction mod m, and then zeros, read where the double sums take log 0 as 2m
(tr_exp) or 3m (zech):

- ``tr_exp[i] = tr(τ^i)``, so tr(c·α) = tr_exp[log c + log α], and
  tr(c·u·0) = tr_exp[(log c + log u) mod m + 2m] = 0;
- Zech logarithms ``zech[i] = log(1 + τ^i)``, None where 1 + τ^i = 0, so
  log(u + v) = log u + zech[log v - log u + m], and log(u + 0) = log u + 0;
- ``norm_dd``, the kernel data of the divisor-dependent normal indicator and
  its value per kernel class (the set of e with α in K_e^⊥) met so far;
- ``prim_dd``, rad(q^n - 1) and the divisor-dependent primitive indicator's
  value per class gcd(log α, rad(q^n - 1)) met so far.

Tables that depend only on integers are cached once per argument by
``functools.lru_cache``, so fields of one size q^n share them: the roots of
unity e(j/N) per order N, the divisor-free inner sums Σ_t e(d·t/q^n) per
(q^n, d), the inner sums of the direct exponential sum per q^n, and the
squarefree divisors of q^n - 1 per set of primes.

The tables change only how a term is found, never which terms are added or
in what order: each sum adds the same floats in the same sequence as the
per-term definition (tests/bruteforce.py), so every float result, and the
verify report that prints them, is unchanged to the last bit.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, ResourceLimitError
from .field import FieldCtx
from .polyfq import phi_from_degrees, poly_deg, poly_phi
from .seeds import rng_for


@functools.lru_cache(maxsize=None)
def _roots_of_unity(order: int) -> list[complex]:
    """e(j/order) for j < order."""
    return [cmath.exp(2j * cmath.pi * j / order) for j in range(order)]


def _tr_exp(ctx: FieldCtx) -> list[int]:
    """tr_exp[i] = tr(τ^i) for i < 2m, m = q^n - 1, and 0 for 2m <= i < 3m."""
    if "tr_exp" not in ctx.char_cache:
        log = ctx.log_table
        tr_exp = [0] * (ctx.order - 1)
        for a in range(1, ctx.order):
            tr_exp[log[a]] = ctx.trace(a)
        ctx.char_cache["tr_exp"] = tr_exp * 2 + [0] * (ctx.order - 1)
    return ctx.char_cache["tr_exp"]


def _zech(ctx: FieldCtx) -> list[int | None]:
    """Zech logarithms: zech[i] = log(1 + τ^i) for i < 2m, m = q^n - 1, None
    where 1 + τ^i = 0, and 0 for 2m <= i <= 3m."""
    if "zech" not in ctx.char_cache:
        log = ctx.log_table
        zech: list[int | None] = [None] * (ctx.order - 1)
        for a in range(1, ctx.order):
            w = ctx.add(1, a)
            if w:
                zech[log[a]] = log[w]
        ctx.char_cache["zech"] = zech * 2 + [0] * ctx.order
    return ctx.char_cache["zech"]


@functools.lru_cache(maxsize=None)
def _df_inner(qn: int, d: int) -> complex:
    """Σ_{t < q^n} e(d·t/q^n) for 0 <= d < q^n, the inner sum of the
    divisor-free literal."""
    zq = _roots_of_unity(qn)
    return sum(zq[d * t % qn] for t in range(qn))


# -- discrete logarithm -------------------------------------------------------


def discrete_log(ctx: FieldCtx, a: int) -> int:
    """log_τ(a) in [0, q^n - 2]: τ^result = a, read from the log table, so
    only up to the table cap."""
    if a == 0:
        raise ValueError("discrete log of 0 is undefined")
    return ctx.log_table[a]


# -- Gauss sums ----------------------------------------------------------------


def gauss_sum(ctx: FieldCtx, b: int, c: int) -> complex:
    """G(χ_b, ψ_c) = Σ_{ρ≠0} χ_b(ρ)·ψ_c(ρ) by direct summation.

    The three degenerate cases are evaluated exactly (integer-valued):
    q^n - 1 when both characters are trivial, 0 for χ nontrivial with ψ
    trivial, and -1 for χ trivial with ψ nontrivial.
    """
    m = ctx.order - 1
    b %= m
    if b == 0 and c == 0:
        return complex(m)
    log = ctx.log_table
    if c == 0:
        # Σ χ_b(ρ) over ρ≠0: exponents b·log ρ hit every multiple of
        # gcd(b, m) uniformly; a uniform histogram sums to 0 exactly.
        counts = Counter(b * la % m for la in itertools.islice(log, 1, None))
        values = set(counts.values())
        if len(values) == 1 and len(counts) > 1:
            return complex(0)
        zm = _roots_of_unity(m)
        return sum(cnt * zm[e] for e, cnt in counts.items())
    # tr(c·ρ) = tr_exp[log c + log ρ], with ρ in enumeration order
    tr_exp = _tr_exp(ctx)
    lc = log[c]
    if b == 0:
        # Σ ψ_c(ρ) over ρ≠0: the histogram of tr(c·ρ) over the whole field
        # is uniform, so dropping ρ=0 leaves count_0 - count_j = -1 exactly.
        counts = Counter(tr_exp[lc + la] for la in itertools.islice(log, 1, None))
        nonzero = {counts.get(j, 0) for j in range(1, ctx.p)}
        if len(nonzero) == 1:
            return complex(counts.get(0, 0) - nonzero.pop())
        zp = _roots_of_unity(ctx.p)
        return sum(cnt * zp[t] for t, cnt in counts.items())
    zm, zp = _roots_of_unity(m), _roots_of_unity(ctx.p)
    total = 0j
    for la in itertools.islice(log, 1, None):  # log ρ in enumeration order of ρ
        total += zm[b * la % m] * zp[tr_exp[lc + la]]
    return total


# -- characteristic functions: primitive ---------------------------------------


@functools.lru_cache(maxsize=None)
def _squarefree_divisors(primes: tuple[int, ...]) -> list[tuple]:
    """The squarefree divisors d of ∏ primes as sorted rows (d, μ(d), φ(d),
    prime tuple)."""
    return sorted((math.prod(sel), (-1) ** size, math.prod(r - 1 for r in sel), sel)
                  for size in range(len(primes) + 1)
                  for sel in itertools.combinations(primes, size))


def ramanujan_sum(d_primes, big_l: int) -> int:
    """Σ_{ord χ = d} χ(τ^L) for squarefree d: multiplicative over primes,
    each factor r - 1 when r | L and -1 otherwise."""
    total = 1
    for r in d_primes:
        total *= (r - 1) if big_l % r == 0 else -1
    return total


def indicator_primitive_dd(ctx: FieldCtx, a: int) -> int:
    """Divisor-dependent characteristic function of primitive elements.

    Ψ(α) = (φ(m)/m)·Σ_{d|m} μ(d)/φ(d)·Σ_{ord χ = d} χ(α) with m = q^n - 1,
    evaluated exactly: the inner sums are Ramanujan integers.  They read
    log α only through which primes of m divide it, so the value depends on
    α only through its class gcd(log α, rad m), and the divisor sum runs
    once per class met (kept in ``char_cache["prim_dd"]``).
    """
    if a == 0:
        raise ValueError("indicator undefined at 0")
    big_l = discrete_log(ctx, a)
    m = ctx.order - 1
    if m == 1:
        return 1
    if "prim_dd" not in ctx.char_cache:  # rad m, and the values by class
        ctx.char_cache["prim_dd"] = math.prod(ctx.mult_factorization.primes()), {}
    rad, values = ctx.char_cache["prim_dd"]
    key = math.gcd(big_l, rad)
    if key not in values:
        rows = _squarefree_divisors(tuple(ctx.mult_factorization.primes()))
        big_r = rows[-1][2]  # R = φ(rad m), a multiple of each φ(d): Ψ = φ(m)·S/(m·R)
        total = 0
        for d, mu, phi_d, primes in rows:
            total += mu * ramanujan_sum(primes, key) * (big_r // phi_d)
        phi_m = ctx.mult_factorization.totient
        if phi_m * total == m * big_r:
            values[key] = 1
        elif total == 0:
            values[key] = 0
        else:
            raise ConsistencyError(f"primitive indicator evaluated to {Fraction(phi_m * total, m * big_r)}")
    return values[key]


def indicator_primitive_df(ctx: FieldCtx, a: int) -> int:
    """Divisor-free characteristic function of primitive elements.

    Exact collapse of Σ_s (1/q^n)·Σ_t e((s - log α)·t/q^n) over s coprime to
    q^n - 1 in [1, q^n - 1]: the t-sum is q^n exactly when s = log α (the
    difference is trapped in (-q^n, q^n)) and 0 otherwise.
    """
    if a == 0:
        raise ValueError("indicator undefined at 0")
    m = ctx.order - 1
    big_l = discrete_log(ctx, a)
    if m == 1:
        return 1 if big_l == 0 else 0
    return 1 if big_l >= 1 and math.gcd(big_l, m) == 1 else 0


def indicator_primitive_df_literal(ctx: FieldCtx, a: int, rotation: int = 0) -> int:
    """Literal double summation of the divisor-free form (float mode).

    The coprime s-enumeration may be cyclically rotated; the value must not
    depend on the rotation.
    """
    if a == 0:
        raise ValueError("indicator undefined at 0")
    qn = ctx.order
    m = qn - 1
    big_l = discrete_log(ctx, a)
    s_list = [s for s in range(1, qn) if math.gcd(s, m) == 1]
    if rotation:
        r = rotation % len(s_list)
        s_list = s_list[r:] + s_list[:r]
    total = 0j
    for s in s_list:
        total += _df_inner(qn, (s - big_l) % qn) / qn
    if abs(total.imag) > 1e-6:
        raise ConsistencyError("literal DF indicator has an imaginary part")
    out = round(total.real)
    if abs(total.real - out) > 1e-6 or out not in (0, 1):
        raise ConsistencyError(f"literal DF indicator evaluated to {total}")
    return out


# -- characteristic functions: normal -------------------------------------------


def _ensure_norm_dd_data(ctx: FieldCtx):
    """Kernel data for the divisor-dependent normal indicator, and its values
    by kernel class.

    For each subset E of the distinct irreducible factors of x^n - 1 (all
    squarefree since p does not divide n), caches Φ_q(e), μ_q(e) and
    q^deg(e); for each factor r an F_p-basis of the kernel
    K_r = {c : r∘c = 0}, the only kernels the class key reads; the third item
    is the dict of indicator values by kernel class, filled on first use.
    """
    if "norm_dd" in ctx.char_cache:
        return ctx.char_cache["norm_dd"]
    fact = ctx.add_factorization
    degrees = [poly_deg(f) for f in fact.distinct_factors()]
    t = len(degrees)
    q = ctx.q
    subsets, spans = [], []
    for mask in range(1 << t):
        exps = tuple(mask >> i & 1 for i in range(t))
        subsets.append({"mask": mask, "mu": (-1) ** sum(exps), "phi": phi_from_degrees(q, zip(degrees, exps)),
                        "kernel_size": q ** fact.degree(exps)})
    for i in range(t):
        # K_r = image of the cofactor (x^n - 1)/r
        spans.append(ctx.image_basis(tuple(int(j != i) for j in range(t))))
    ctx.char_cache["norm_dd"] = subsets, spans, {}
    return ctx.char_cache["norm_dd"]


def indicator_normal_dd(ctx: FieldCtx, a: int) -> int | None:
    """Divisor-dependent characteristic function of normal elements.

    Ψ_q(α) = (Φ_q(x^n-1)/q^n)·Σ_{d|x^n-1} μ_q(d)/Φ_q(d)·Σ_{Ord ψ = d} ψ(α),
    evaluated exactly: for squarefree e, Σ_{Ord ψ_c | e} ψ_c(α) is q^deg(e)
    when tr(c·α) vanishes on the kernel K_e and 0 otherwise, and the
    order-exactly-d sums follow by Möbius inversion over the divisor lattice.
    So the value depends on α only through its kernel class, the set of e
    with α in K_e^⊥, and K_e is the direct sum of the K_r over the factors r
    of e: the class is the set of factors r with α in K_r^⊥, and the Möbius
    sum runs once per class that occurs.

    Applicable only when p does not divide n (x^n - 1 squarefree); returns
    None otherwise, a tagged not-applicable result rather than an error.
    """
    if ctx.n % ctx.p == 0:
        return None
    subsets, spans, values = _ensure_norm_dd_data(ctx)
    # α ∈ K_r^⊥ iff tr(c·α) = tr_exp[log c + log α] vanishes on the c
    # spanning K_r; tr(c·0) = 0 (log[0] is a placeholder)
    tr_exp, log, t = _tr_exp(ctx), ctx.log_table, len(ctx.add_factorization.entries)
    log_a = log[a]
    key = sum(1 << i for i in range(t)
              if a == 0 or all(tr_exp[log[c] + log_a] == 0 for c in spans[i]))
    if key not in values:
        # F[mask] = q^deg(e) where α ∈ K_e^⊥ and 0 otherwise; the sum over
        # the characters of order exactly e inverts F over the subsets of e
        full_sums = [entry["kernel_size"] if mask & ~key == 0 else 0 for mask, entry in enumerate(subsets)]
        total = Fraction(0)
        for mask, entry in enumerate(subsets):
            s_d = sum((-1) ** bin(mask ^ sub).count("1") * full_sums[sub]
                      for sub in range(mask + 1) if sub & mask == sub)
            total += Fraction(entry["mu"] * s_d, entry["phi"])
        value = Fraction(poly_phi(ctx.add_factorization), ctx.order) * total
        if value not in (0, 1):
            raise ConsistencyError(f"normal indicator evaluated to {value}")
        values[key] = int(value)
    return values[key]


def indicator_normal_df(ctx: FieldCtx, a: int, eta: int) -> int:
    """Divisor-free characteristic function of normal elements.

    Exact collapse: the inner t-sum is nonzero exactly when
    log_τ(s∘η) = log_τ(α), i.e. s∘η = α, so the value counts coprime
    solutions s of s∘η = α (0 or 1 since the module is free cyclic).
    """
    if a == 0:
        raise ValueError("indicator undefined at 0")
    return 1 if a in ctx.normal_image(eta) else 0


# -- incomplete character sum bounds --------------------------------------------


def double_product_sum_ratio(ctx: FieldCtx, c: int, u_set, v_set) -> float:
    """|ΣΣ ψ_c(u·v)| / (q^(n/2)·sqrt(#U·#V)) for a nontrivial ψ_c.

    The Schwarz bound holds with constant 1, so the ratio never exceeds 1.
    """
    if c == 0:
        raise ValueError("ψ must be nontrivial")
    log, tr_exp = ctx.log_table, _tr_exp(ctx)
    m = ctx.order - 1
    zp = _roots_of_unity(ctx.p)
    logs_v = [log[v] if v else 2 * m for v in v_set]  # log 0 read as 2m, where tr_exp is 0
    total = 0j
    for u in u_set:
        if u == 0:
            for _ in v_set:
                total += zp[0]
            continue
        # ψ_c(u·v) = e(tr(τ^(log c + log u + log v))/p), and 1 where v = 0
        lcu = (log[c] + log[u]) % m
        for lv in logs_v:
            total += zp[tr_exp[lcu + lv]]
    bound = ctx.order**0.5 * math.sqrt(len(u_set) * len(v_set))
    return abs(total) / bound


def units_sum_ratio(ctx: FieldCtx, c: int) -> float:
    """|Σ ψ_c(u)| / q^(n/2) with u ranging over the units of F_q[x]/(x^n-1)
    carried into the field through τ (so over the normal elements).
    Reported only: the constant-1 bound fails in general."""
    if c == 0:
        raise ValueError("ψ must be nontrivial")
    log, tr_exp = ctx.log_table, _tr_exp(ctx)
    zp, lc = _roots_of_unity(ctx.p), log[c]
    total = 0j
    for w in ctx.normal_image(ctx.reference_tau):
        total += zp[tr_exp[lc + log[w]]]
    return abs(total) / ctx.order**0.5


def shifted_sum_ratio(ctx: FieldCtx, b: int, u_set, v_set) -> float:
    """|ΣΣ χ_b(u+v)| / (q^(n/2)·sqrt(#U·#V)) for a nontrivial χ_b, with
    χ_b(0) = 0; the Gauss-sum expansion proves the constant-1 bound."""
    m = ctx.order - 1
    if b % m == 0:
        raise ValueError("χ must be nontrivial")
    log, zech = ctx.log_table, _zech(ctx)
    zm = _roots_of_unity(m)
    # log v + m, so that log v - log u + m indexes the Zech table, and 3m
    # for v = 0, where zech is 0
    logs_v = [log[v] + m if v else 3 * m for v in v_set]
    total = 0j
    for u in u_set:
        if u == 0:
            for v, lv in zip(v_set, logs_v):
                if v:
                    total += zm[b * lv % m]
            continue
        lu = log[u]
        for lv in logs_v:
            # log(u + v) = log u + zech[log v - log u]; u + v = 0 adds nothing
            z = zech[lv - lu]
            if z is not None:
                total += zm[b * (lu + z) % m]
    bound = ctx.order**0.5 * math.sqrt(len(u_set) * len(v_set))
    return abs(total) / bound


def char_sum_bound_suite(ctx: FieldCtx, trials: int, seed: int) -> dict:
    """Seeded empirical suite for the incomplete character sum bounds.

    Returns per-lemma entries {lemma-id, field, trials, maxRatio, pass}.
    The product and shifted bounds are proved with constant 1 and must pass;
    the units-group bound is reported only (the permutation argument behind
    it does not survive the ring/field product distinction).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ctx.order > 2**14:
        raise ResourceLimitError("field too large for direct double sums")
    m = ctx.order - 1
    cap = min(64, m)
    max_prod = 0.0
    max_shift = 0.0
    for trial in range(trials):
        rng = rng_for(seed, "charsum", ctx.spec_string(), trial)
        c = rng.randrange(1, ctx.order)
        b = rng.randrange(1, m) if m > 1 else 1
        u_set = rng.sample(range(ctx.order), rng.randrange(1, cap + 1))
        v_set = rng.sample(range(ctx.order), rng.randrange(1, cap + 1))
        max_prod = max(max_prod, double_product_sum_ratio(ctx, c, u_set, v_set))
        if m > 1:
            max_shift = max(max_shift, shifted_sum_ratio(ctx, b, u_set, v_set))
    max_units = 0.0
    for trial in range(min(trials, 16)):
        rng = rng_for(seed, "charsum-units", ctx.spec_string(), trial)
        c = rng.randrange(1, ctx.order)
        max_units = max(max_units, units_sum_ratio(ctx, c))
    tol = 1 + 1e-9
    field = ctx.spec_string()
    return {
        "field": field,
        "trials": trials,
        "entries": [
            {"lemma-id": "product-double-sum", "field": field, "trials": trials,
             "maxRatio": max_prod, "pass": max_prod <= tol},
            {"lemma-id": "shifted-double-sum", "field": field, "trials": trials,
             "maxRatio": max_shift, "pass": max_shift <= tol},
            {"lemma-id": "units-group-sum", "field": field, "trials": trials,
             "maxRatio": max_units, "pass": max_units <= tol},
        ],
    }


# -- exponential sum over the coprime residues ----------------------------------


@dataclass(frozen=True)
class ExpSumRecord:
    exact_value: int
    envelope_bound: float
    phi_value: int

    @property
    def within_bound(self) -> bool:
        return abs(self.exact_value) <= self.envelope_bound


def primitive_exp_sum(ctx: FieldCtx, a: int) -> ExpSumRecord:
    """Σ_{t=1}^{q^n-1} Σ_{s coprime} e(-2πi(s - log α)t/q^n) for non-primitive α.

    Exact collapse over the stated t-range [1, q^n - 1]: each s contributes
    q^n·[s = log α] - 1, so a non-primitive α gives exactly -φ(q^n - 1).
    The e^(-sqrt(log)) envelope bound is recorded for comparison, not
    asserted: the exact value contradicts it at every desk scale.
    """
    if a == 0:
        raise ValueError("α must be nonzero")
    if ctx.is_primitive(a):
        raise ValueError("α must not be primitive")
    m = ctx.order - 1
    big_l = discrete_log(ctx, a)
    matches = 1 if (big_l >= 1 and math.gcd(big_l, m) == 1) else 0
    phi_m = ctx.mult_factorization.totient
    exact = ctx.order * matches - phi_m
    bound = ctx.order * math.exp(-math.sqrt(math.log(ctx.order)))
    return ExpSumRecord(exact_value=exact, envelope_bound=bound, phi_value=phi_m)


@functools.lru_cache(maxsize=None)
def _expsum_inner(qn: int) -> list[complex]:
    """inner[t] = Σ_s e(-s·t/q^n) over s in [1, q^n - 1] coprime to q^n - 1,
    for 1 <= t < q^n (inner[0] is unused)."""
    m = qn - 1
    zq = _roots_of_unity(qn)
    s_list = [s for s in range(1, qn) if math.gcd(s, m) == 1]
    inner = [0j] * qn
    for t in range(1, qn):
        inner[t] = sum(zq[(-s * t) % qn] for s in s_list)
    return inner


def primitive_exp_sum_direct(ctx: FieldCtx, a: int) -> int:
    """Direct double-summation oracle (complex arithmetic, factored loop)."""
    qn = ctx.order
    m = qn - 1
    big_l = discrete_log(ctx, a)
    zq = _roots_of_unity(qn)
    inner = _expsum_inner(qn)
    total = 0j
    for t in range(1, qn):
        total += inner[t] * zq[big_l * t % qn]
    if abs(total.imag) > 1e-5:
        raise ConsistencyError("direct exponential sum has an imaginary part")
    out = round(total.real)
    if abs(total.real - out) > 1e-4:
        raise ConsistencyError(f"direct exponential sum not near an integer: {total}")
    return out


# -- finite Fourier identities ----------------------------------------------------


def fourier_identity_max_residuals(ctx: FieldCtx, b: int, c: int) -> tuple[float, float]:
    """Max residuals over all α ≠ 0 of the two finite Fourier representations:

    ψ_c(α) = (1/(q^n-1))·Σ_χ χ(α)·G(χ̄, ψ_c)   (additive identity)
    χ_b(α) = (1/q^n)·Σ_ψ ψ(α)·G(χ_b, ψ̄)       (multiplicative identity)

    The Gauss-sum arrays are computed once, so the whole field costs
    O(q^(2n)) complex operations.  Each sum takes its terms in order of bb
    and of cc.
    """
    qn = ctx.order
    m = qn - 1
    log, tr_exp = ctx.log_table, _tr_exp(ctx)
    zm = _roots_of_unity(m)
    zp = _roots_of_unity(ctx.p)
    g_add = [gauss_sum(ctx, -bb, c) for bb in range(m)]
    g_mult = [gauss_sum(ctx, b, ctx.neg(cc)) for cc in range(qn)]
    res_add = 0.0
    res_mult = 0.0
    for a in range(1, qn):
        # tr(c·α) = tr_exp[log c + log α], and 0 where c = 0
        la = log[a]
        psi_val = zp[tr_exp[log[c] + la] if c else 0]
        total = sum(map(operator.mul, [zm[bb * la % m] for bb in range(m)], g_add))
        res_add = max(res_add, abs(psi_val - total / m))
        chi_val = zm[b * la % m]
        psi = [zp[0]] + [zp[tr_exp[lc + la]] for lc in itertools.islice(log, 1, None)]  # ψ_cc(α)
        total = sum(map(operator.mul, psi, g_mult))
        res_mult = max(res_mult, abs(chi_val - total / qn))
    return res_add, res_mult
