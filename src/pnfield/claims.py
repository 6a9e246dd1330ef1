"""The claim-verification suite.

Every invariant and every checkable source claim runs here with a three-state
outcome: ASSERTED-PASS for invariants that must hold, REPORTED for claims
that are checked but known-discrepant (the discrepancy ledger is the point),
and FAIL for a broken asserted invariant.

cmdVerify exits nonzero only on FAIL.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import characters as ch
from . import counting as ct
from . import subsets as sb
from .errors import DEFAULT_BUDGET
from .field import FieldCtx, get_field
from .numtheory import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    least_prime_factor_sieve,
    mertens_report,
    mobius_sieve,
    multiplicative_order,
    phi_bounds,
    phi_sieve,
)
from .polyfq import (
    cyclotomic_factor_counts,
    factor_x_n_minus_1,
    format_poly,
    phi_from_degrees,
    poly_deg,
    poly_mul,
    poly_phi,
    poly_trim,
    sigma_phi_identity_check,
)
from .seeds import rng_for

ASSERTED_PASS = "ASSERTED-PASS"
REPORTED = "REPORTED"
FAIL = "FAIL"

# totient-gcd-correction draws m, n below this bound
_PAIR_BOUND = 3000


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    subject: str
    status: str
    detail: str


def _assert(claim_id, subject, ok, detail=""):
    return ClaimResult(claim_id, subject, ASSERTED_PASS if ok else FAIL, detail)


def _report(claim_id, subject, detail):
    return ClaimResult(claim_id, subject, REPORTED, detail)


def enumerate_field_specs(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """All towers (p, k, n) with n >= 2 and lo <= (p^k)^n <= hi, sorted by
    (order, p, k, n)."""
    specs = []
    p = 2
    while p**2 * 1 <= hi:  # p^(k*n) >= p^2
        if is_prime(p):
            k = 1
            while p ** (2 * k) <= hi:
                n = 2
                while p ** (k * n) <= hi:
                    if p ** (k * n) >= lo:
                        specs.append((p ** (k * n), p, k, n))
                    n += 1
                k += 1
        p += 1
    specs.sort()
    return [(p, k, n) for _, p, k, n in specs]


# -- integer-side claims --------------------------------------------------------


def phi_pairs(seed: int, trials: int):
    """The seeded pairs (m, n), both below _PAIR_BOUND, that
    totient-gcd-correction checks."""
    rng = rng_for(seed, "phi-pairs")
    for _ in range(trials):
        yield rng.randrange(1, _PAIR_BOUND), rng.randrange(1, _PAIR_BOUND)


def phi_of_product(m: int, n: int, lpf: list[int]) -> int:
    """φ(mn) = mn·Π(1 - 1/r) over the union of the primes r of m and of n,
    read off a least-prime-factor sieve lpf that covers both; it uses neither
    φ(m), φ(n) nor gcd(m, n), so it stays independent of the identity that
    totient-gcd-correction checks."""
    primes = set()
    for a in (m, n):
        while a > 1:
            primes.add(lpf[a])
            a //= lpf[a]
    out = m * n
    for r in primes:
        out = out // r * (r - 1)
    return out


def integer_claims(seed: int, phi_limit: int = 10**4, pair_trials: int = 10**4) -> list[ClaimResult]:
    out = []
    phis = phi_sieve(max(phi_limit, _PAIR_BOUND))
    mus = mobius_sieve(phi_limit)

    # the divisors of every n <= phi_limit, ascending, by one pass over multiples
    divs: list[list[int]] = [[] for _ in range(phi_limit + 1)]
    for d in range(1, phi_limit + 1):
        for m in range(d, phi_limit + 1, d):
            divs[m].append(d)

    # product identity == counting identity (gcd-count via Σ μ(d)·floor((n-1)/d))
    ok = True
    bad = None
    for n in range(1, phi_limit + 1):
        count = 0
        for d in divs[n]:
            if mus[d]:
                count += mus[d] * ((n - 1) // d)
        if n == 1:
            count = 1  # empty-range convention φ(1) = 1
        if count != phis[n]:
            ok = False
            bad = n
            break
    out.append(_assert("totient-product-vs-counting", f"n<={phi_limit}", ok,
                       f"first mismatch at {bad}" if bad else "product form equals gcd-counting form"))

    # Möbius pair Σ_{d|n} φ(d) = n
    ok = all(sum(phis[d] for d in divs[n]) == n for n in range(1, phi_limit + 1))
    out.append(_assert("totient-divisor-sum", f"n<={phi_limit}", ok, "Σ_{d|n} φ(d) = n"))

    # φ(mn) = d/φ(d)·φ(m)·φ(n) on seeded pairs
    lpf = least_prime_factor_sieve(_PAIR_BOUND)
    ok = True
    for m, n in phi_pairs(seed, pair_trials):
        d = math.gcd(m, n)
        if phi_of_product(m, n, lpf) * phis[d] != d * phis[m] * phis[n]:
            ok = False
            break
    out.append(_assert("totient-gcd-correction", f"{pair_trials} seeded pairs", ok,
                       "φ(mn)·φ(d) = d·φ(m)·φ(n) with d = gcd(m, n)"))

    # inverse identity 1/φ(n) = (1/n)·Σ μ²(d)/φ(d)
    ok = True
    for n in range(1, min(phi_limit, 10**4) + 1):
        total = Fraction(0)
        for d in divs[n]:
            if mus[d]:
                total += Fraction(mus[d] * mus[d], phis[d])
        if Fraction(1, phis[n]) != total / n:
            ok = False
            break
    out.append(_assert("totient-inverse-identity", f"n<={min(phi_limit, 10**4)}", ok,
                       "1/φ(n) = (1/n)·Σ_{d|n} μ²(d)/φ(d)"))

    # Σ_{n<=x} μ(n)·floor(x/n) = 1, as a running total: floor(x/n) -
    # floor((x-1)/n) is 1 exactly when n | x, so the sum grows by Σ_{d|x} μ(d)
    ok = True
    xmax = min(phi_limit, 2000)
    total = 0
    for x in range(1, xmax + 1):
        total += sum(mus[d] for d in divs[x])
        if total != 1:
            ok = False
            break
    out.append(_assert("mobius-floor-identity", f"x<={xmax}", ok,
                       "Σ μ(n)·[x/n] = 1 exactly"))

    # Mertens summatory ratios: reported, constants unspecified
    rep = mertens_report(10**4)
    out.append(_report("mertens-bound-ratios", "x=10^4",
                       f"M(x)={rep.mertens}, ratios vs x·e^(-sqrt(log x)) envelope = "
                       f"{tuple(round(r, 6) for r in rep.bound_ratios)}"))

    # extreme-value bounds on φ(n)/n, with φ(n) from the sieve
    bounds = [phi_bounds(n, phis[n]) for n in range(5, phi_limit + 1)]
    ok_upper = all(upper for upper, _ in bounds)
    ok_lower = all(lower for _, lower in bounds)
    out.append(_assert("phi-lower-bound", f"5<=n<={phi_limit}", ok_lower,
                       "φ(n)/n >= (3/(e^γ·π²))/loglog n"))
    out.append(_assert("phi-rs-upper-bound", f"5<=n<={phi_limit}", ok_upper,
                       "n/φ(n) < e^γ·loglog n + 5/(2·loglog n), one known exception"))

    # exercise: φ(q^n-1)/D · Π(1 + 1/(r-1)) = 1 with D = q^n or q^n - 1
    holds_m, holds_qn = True, True
    for q, n in ((2, 4), (3, 2), (5, 3), (7, 2), (2, 8)):
        m = q**n - 1
        prod = Fraction(1)
        for r in factorize(m).primes():
            prod *= 1 + Fraction(1, r - 1)
        if Fraction(euler_phi(m), m) * prod != 1:
            holds_m = False
        if Fraction(euler_phi(m), q**n) * prod != 1:
            holds_qn = False
    out.append(_report("exercise-phi-product-normalization", "5 sample (q,n)",
                       f"denominator q^n-1 holds: {holds_m}; denominator q^n holds: {holds_qn}"))

    # exercise: Σ_{d | q^n-1} φ(q^d - 1) = q^n - 1 (conflicts with Σ_{d|m} φ(d) = m)
    std_ok = True
    exercise_counterexamples = []
    for q, n in ((2, 2), (2, 3), (3, 2)):
        m = q**n - 1
        if sum(euler_phi(d) for d in divisors(m)) != m:
            std_ok = False
        lhs = sum(euler_phi(q**d - 1) for d in divisors(m))
        if lhs != m:
            exercise_counterexamples.append((q, n, lhs, m))
    out.append(_assert("totient-divisor-sum-standard", "3 sample (q,n)", std_ok,
                       "Σ_{d|m} φ(d) = m with m = q^n - 1"))
    out.append(_report("exercise-phi-subfield-sum", "3 sample (q,n)",
                       f"Σ_(d|q^n-1) φ(q^d-1) = q^n-1 fails; counterexamples {exercise_counterexamples}"))
    return out


# -- polynomial-side claims -------------------------------------------------------


def poly_claims(q: int, n: int) -> list[ClaimResult]:
    subject = f"q={q}, n={n}"
    out = []
    fact = factor_x_n_minus_1(q, n)
    fq = fact.fq
    qn = q**n

    # Σ Φ_q(d) over the monic divisors d, one exponent vector per divisor
    degrees = [poly_deg(f) for f, _ in fact.entries]
    total = sum(
        phi_from_degrees(q, zip(degrees, exps))
        for exps in fact.exponent_vectors()
    )
    out.append(_assert("poly-totient-divisor-sum", subject, total == qn,
                       f"Σ_(d|x^n-1) Φ_q(d) = {total}, q^n = {qn}"))
    phi_full = poly_phi(fact)
    out.append(_report("exercise-poly-totient-self-sum", subject,
                       f"Σ Φ_q(d) = {total} vs Φ_q(x^n-1) = {phi_full}: "
                       f"{'holds' if total == phi_full else 'fails'}"))

    profile = cyclotomic_factor_counts(q, n)
    formula = qn
    for d, order, count in profile.rows:
        formula = formula * (q**order - 1) ** count // (q**order) ** count
    out.append(_assert("poly-phi-integer-formula", subject, formula == phi_full,
                       f"q^n·Π(1-q^(-ord_d q))^(φ(d)/ord_d q) = {formula}, Φ = {phi_full}"))

    out.append(_assert("omega-factor-count", subject, len(fact.entries) == profile.omega,
                       f"distinct irreducible factors = {len(fact.entries)}, Ω_q = {profile.omega}"))

    if math.gcd(q, n) == 1:
        holds = profile.omega <= euler_phi(n)
        out.append(_report("omega-phi-bound", subject,
                           f"Ω_q = {profile.omega} <= φ({n}) = {euler_phi(n)}: "
                           f"{'holds' if holds else 'fails'}"))
    p = fq.p
    if is_prime(n) and n % p and multiplicative_order(q, n) == n - 1:
        out.append(_assert("omega-prime-case", subject, profile.omega == 2,
                           f"n prime with ord_n q = n-1 gives Ω_q = {profile.omega}"))

    check = sigma_phi_identity_check(q, n)
    out.append(_report("exercise-sigma-phi-identity", subject,
                       f"lhs = {check.lhs}, rhs = {check.rhs}: "
                       f"{'holds' if check.holds else 'fails'}"))

    # Φ_q(x^n-1)/q^n · Π(1 + 1/(q^deg r - 1)) over distinct irreducible r
    # telescopes to 1 exactly (the integer analogue needed the q^n - 1
    # denominator; the polynomial one does not)
    prod = Fraction(1)
    for factor, _ in fact.entries:
        prod *= 1 + Fraction(1, q ** poly_deg(factor) - 1)
    lhs_qn = Fraction(phi_full, qn) * prod
    lhs_m = Fraction(phi_full, qn - 1) * prod
    out.append(_assert("exercise-poly-phi-product-normalization", subject, lhs_qn == 1,
                       f"q^n denominator gives {lhs_qn}; q^n-1 variant gives {lhs_m}"))
    return out


# -- per-field claims ----------------------------------------------------------------


def field_claims(ctx: FieldCtx, seed: int) -> list[ClaimResult]:
    """Every per-field invariant suite (the full-enumeration checks are
    bounded by the enumeration budget)."""
    out = []
    subject = ctx.spec_string()
    ctx.ensure_tables()
    qn = ctx.order
    m = qn - 1
    rng = rng_for(seed, "field", subject)

    # Frobenius is an automorphism fixing F_q
    ok = True
    for _ in range(min(1000, 10 * qn)):
        a = rng.randrange(qn)
        b = rng.randrange(qn)
        if ctx.frobenius(ctx.add(a, b)) != ctx.add(ctx.frobenius(a), ctx.frobenius(b)):
            ok = False
            break
        if ctx.frobenius(ctx.mul(a, b)) != ctx.mul(ctx.frobenius(a), ctx.frobenius(b)):
            ok = False
            break
    ok = ok and all(ctx.frobenius(ctx.embed_base(c)) == ctx.embed_base(c) for c in range(ctx.q))
    ok = ok and all(ctx.frobenius(a, ctx.n) == a for a in range(0, qn, max(1, qn // 64)))
    out.append(_assert("frobenius-automorphism", subject, ok,
                       "additive/multiplicative homomorphism, fixes F_q, order n"))

    # trace linearity + surjectivity, norm multiplicativity
    ok = True
    for _ in range(200):
        a = rng.randrange(qn)
        b = rng.randrange(qn)
        if ctx.trace(ctx.add(a, b)) != (ctx.trace(a) + ctx.trace(b)) % ctx.p:
            ok = False
            break
        if a and b and ctx.norm(ctx.mul(a, b)) != ctx.norm(a) * ctx.norm(b) % ctx.p:
            ok = False
            break
    traces = {ctx.trace(a) for a in range(qn)}
    ok = ok and traces == set(range(ctx.p))
    out.append(_assert("trace-norm", subject, ok,
                       "trace F_p-linear and surjective; norm multiplicative"))

    # module action: (r·s)∘α = r∘(s∘α)
    ok = True
    for _ in range(100):
        r = tuple(rng.randrange(ctx.q) for _ in range(ctx.n))
        s = tuple(rng.randrange(ctx.q) for _ in range(ctx.n))
        a = rng.randrange(qn)
        r, s = poly_trim(r), poly_trim(s)
        lhs = ctx.apply_linearized(poly_mul(ctx.fq, r, s), a)
        rhs = ctx.apply_linearized(r, ctx.apply_linearized(s, a))
        if lhs != rhs:
            ok = False
            break
    out.append(_assert("linearized-module-action", subject, ok,
                       "apply(r·s, α) = apply(r, apply(s, α))"))

    # additive order: divides x^n - 1, annihilates, and is minimal; the
    # orders, as exponent vectors over the factors of x^n - 1 (so d | d' is
    # a componentwise comparison), also give the additive order census and
    # the r-grouping below
    fact = ctx.add_factorization
    add_orders = [ctx.additive_order_exponents(a) for a in range(qn)]
    ok = True
    for a, exps in enumerate(add_orders):
        if ctx.apply_linearized(fact.divisor(exps), a) != 0:
            ok = False
            break
        for i, j in enumerate(exps):
            if j and ctx.apply_linearized(fact.divisor(exps[:i] + (j - 1,) + exps[i + 1:]), a) == 0:
                ok = False
                break
        if not ok:
            break
    out.append(_assert("additive-order-minimal", subject, ok,
                       "d∘α = 0 and no proper divisor annihilates α"))

    # the two normality tests agree everywhere
    ok = all(ctx.is_normal(a) == ctx.is_normal(a, method="rank") for a in range(qn))
    out.append(_assert("normal-test-agreement", subject, ok,
                       "divisor test ≡ rank test on all elements"))

    # marginal counts match the closed formulas (enforced inside exact_counts)
    rec = ct.exact_counts(ctx)
    out.append(_assert("marginal-counts", subject, True,
                       f"#primitive = {rec.num_primitive} = φ, #normal = {rec.num_normal} = Φ"))
    if qn >= 4:
        out.append(_assert("pn-exists", subject, rec.num_primitive_normal > 0,
                           f"numPN = {rec.num_primitive_normal}"))

    # order censuses
    census_m = ct.multiplicative_order_census(ctx)
    ok = sum(census_m.values()) == m and census_m.get(m, 0) == rec.num_primitive
    ok = ok and all(census_m.get(d, 0) == euler_phi(d) for d in divisors(m)) if m > 1 else ok
    census_a = Counter(add_orders)
    ok = ok and sum(census_a.values()) == qn
    ok = ok and census_a.get(fact.exponents(), 0) == rec.num_normal
    out.append(_assert("order-censuses", subject, ok,
                       "order class sizes: φ(d) per divisor, Φ for the maximal class"))

    # additive character group counts: Ord ψ_c is the additive order of c
    ok = True
    for exps in fact.exponent_vectors():
        covered = sum(cnt for ee, cnt in census_a.items()
                      if all(x <= y for x, y in zip(ee, exps)))
        if covered != ctx.q ** fact.degree(exps):
            ok = False
            break
    out.append(_assert("additive-character-counts", subject, ok,
                       "#{c : Ord ψ_c | d} = q^deg(d) for every monic divisor d"))

    # the order-r(x) character-sum dichotomy: the claimed value
    # q^deg(r) - 1 whenever r | Ord(α) does not match direct summation;
    # the kernel-orthogonality evaluation (which does) drives the
    # divisor-dependent normal indicator
    if ctx.n % ctx.p != 0 and qn <= 512:
        dichotomy_fails = []
        zp_sums = {}
        for c, exps in enumerate(add_orders):
            zp_sums.setdefault(exps, []).append(c)
        for i, factor in enumerate(fact.distinct_factors()):
            # the characters of order exactly r_i: exponent vector e_i
            params = zp_sums.get(tuple(int(x == i) for x in range(len(fact.entries))), [])
            for a in range(1, min(qn, 9)):
                total = sum(
                    cmath.exp(2j * cmath.pi * ctx.trace(ctx.mul(c, a)) / ctx.p)
                    for c in params
                )
                divides = add_orders[a][i] >= 1
                predicted = ctx.q ** poly_deg(factor) - 1 if divides else -1
                if abs(total - predicted) > 1e-6:
                    dichotomy_fails.append(
                        (format_poly(ctx.fq, factor), a, round(total.real, 3), predicted))
        out.append(_report(
            "exercise-order-r-char-sum", subject,
            f"claimed q^deg(r)-1 / -1 split by r | Ord(α): "
            f"{'holds on sampled α' if not dichotomy_fails else f'fails, e.g. {dichotomy_fails[0]}'}"))

    # indicator equivalence across the whole field
    tau = ctx.reference_tau
    mism = 0
    dd_applicable = ctx.n % ctx.p != 0
    for a in range(1, qn):
        prim = ctx.is_primitive(a)
        norm = ctx.is_normal(a)
        if ch.indicator_primitive_dd(ctx, a) != prim:
            mism += 1
        if ch.indicator_primitive_df(ctx, a) != prim:
            mism += 1
        if ch.indicator_normal_df(ctx, a, tau) != norm:
            mism += 1
        if dd_applicable and ch.indicator_normal_dd(ctx, a) != norm:
            mism += 1
    out.append(_assert("indicator-equivalence", subject, mism == 0,
                       f"mismatches = {mism} (DD/DF primitive, DF normal"
                       f"{', DD normal' if dd_applicable else '; DD normal n/a'})"))

    # N00..N11 subsum partition (exact rationals)
    out.extend(subsum_partition_claims(ctx))

    # DF periodicity under rotation of the s-enumeration
    if qn <= 256:
        ok = True
        for a in range(1, min(qn, 12)):
            base = ch.indicator_primitive_df_literal(ctx, a, rotation=0)
            for rot in (1, 3, 7):
                if ch.indicator_primitive_df_literal(ctx, a, rotation=rot) != base:
                    ok = False
        out.append(_assert("df-rotation-invariance", subject, ok,
                           "literal DF indicator unchanged under s-enumeration rotation"))

    # finite Fourier identities
    if qn <= 256:
        rng2 = rng_for(seed, "fourier", subject)
        res_add, res_mult = ch.fourier_identity_max_residuals(
            ctx, rng2.randrange(1, max(m, 2)), rng2.randrange(1, qn))
        ok = res_add < 1e-8 and res_mult < 1e-8
        out.append(_assert("fourier-identities", subject, ok,
                           f"max residuals: additive {res_add:.2e}, multiplicative {res_mult:.2e}"))

    # the norm-based multiplicative-character reading cannot reach all orders:
    # e(N(cα)/(q^n-1)) takes at most p distinct values, an order-(q^n-1)
    # character needs q^n-1 of them
    if qn <= 256 and m > ctx.p:
        distinct = max(
            len({ctx.norm(ctx.mul(c, a)) for a in range(1, qn)})
            for c in range(1, min(qn, 16))
        )
        out.append(_report("mult-char-norm-reading", subject,
                           f"norm-exponent values per character <= {distinct} "
                           f"(at most p = {ctx.p}) but a primitive character needs "
                           f"{m}; discrete-log indexing used instead"))

    # Gauss sums: exact degenerate values and |G| = q^(n/2)
    if qn <= 1024 and m > 1:
        g00 = ch.gauss_sum(ctx, 0, 0)
        gb0 = ch.gauss_sum(ctx, 1, 0)
        g0c = ch.gauss_sum(ctx, 0, 1)
        ok = g00 == complex(m) and gb0 == 0 and g0c == complex(-1)
        worst = 0.0
        rng3 = rng_for(seed, "gauss", subject)
        for _ in range(50):
            b = rng3.randrange(1, m)
            c = rng3.randrange(1, qn)
            worst = max(worst, abs(abs(ch.gauss_sum(ctx, b, c)) - qn**0.5))
        ok = ok and worst < 1e-6
        out.append(_assert("gauss-sums", subject, ok,
                           f"exact degenerate triple; max | |G| - q^(n/2) | = {worst:.2e}"))

    # incomplete character sum bounds; details carry the wire-format entries
    if qn <= 2**12 and m > 1:
        suite = ch.char_sum_bound_suite(ctx, trials=100, seed=seed)
        ent = {e["lemma-id"]: e for e in suite["entries"]}
        out.append(_assert("char-sum-product-bound", subject,
                           ent["product-double-sum"]["pass"],
                           json.dumps(ent["product-double-sum"], sort_keys=True)))
        out.append(_assert("char-sum-shifted-bound", subject,
                           ent["shifted-double-sum"]["pass"],
                           json.dumps(ent["shifted-double-sum"], sort_keys=True)))
        out.append(_report("char-sum-units-bound", subject,
                           json.dumps(ent["units-group-sum"], sort_keys=True)))

    # exponential sum over coprime residues
    if qn <= 1024 and m > 1:
        ok = True
        worst_bound = None
        rng4 = rng_for(seed, "expsum", subject)
        non_prim = [a for a in range(1, qn) if not ctx.is_primitive(a)]
        sample = non_prim if len(non_prim) <= 8 else rng4.sample(non_prim, 8)
        for a in sample:
            es = ch.primitive_exp_sum(ctx, a)
            if es.exact_value != -es.phi_value:
                ok = False
            if ch.primitive_exp_sum_direct(ctx, a) != es.exact_value:
                ok = False
            worst_bound = es
        out.append(_assert("exp-sum-exact-value", subject, ok,
                           "collapse value = -φ(q^n-1), confirmed by direct summation"))
        if worst_bound is not None:
            out.append(_report("exp-sum-envelope-bound", subject,
                               f"|exact| = {abs(worst_bound.exact_value)} vs envelope "
                               f"{worst_bound.envelope_bound:.3f}: "
                               f"{'within' if worst_bound.within_bound else 'exceeds'}"))

    # Φ_q(x^n-1) lower bounds
    if ctx.n >= 2:
        rep = ct.phi_poly_lower_bound_check(ctx.q, ctx.n)
        out.append(_assert("phi-poly-log-lower-bound", subject, rep.log_bound_ok,
                           f"ratio {rep.ratio:.6f} >= 1/(5·log q^n)"))
        if rep.loglog_bound_ok is not None:
            out.append(_assert("phi-poly-loglog-lower-bound", subject, rep.loglog_bound_ok,
                               f"ratio {rep.ratio:.6f} >= 1/(5·loglog q^n), q >= 8"))
        if rep.prob_expansion_residual is not None:
            out.append(_report("phi-poly-prob-expansion", subject,
                               f"|ratio - (1 - n/q)| = {rep.prob_expansion_residual:.6f} vs "
                               f"n(n-1)/q² = {rep.prob_expansion_bound:.6f}"))

    # metric axioms for the weight and height distances
    rng5 = rng_for(seed, "metrics", subject)
    ok = True
    for _ in range(300):
        r = poly_trim(rng5.randrange(ctx.q) for _ in range(ctx.n))
        s = poly_trim(rng5.randrange(ctx.q) for _ in range(ctx.n))
        u = poly_trim(rng5.randrange(ctx.q) for _ in range(ctx.n))
        for dist in (sb.poly_distance_weight, sb.poly_distance_height):
            drs, dsr, dru, dsu = (dist(ctx, x, y) for x, y in ((r, s), (s, r), (r, u), (s, u)))
            if drs < 0 or (drs == 0) != (r == s) or drs != dsr or dru > drs + dsu:
                ok = False
                break
        if not ok:
            break
    out.append(_assert("metric-axioms", subject, ok,
                       "weight and height distances: identity, symmetry, triangle"))

    # quadratic-field exercise data: PN_2(q) vs φ(q²-1) vs the average formula
    if ctx.n == 2:
        equal = rec.num_primitive_normal == rec.num_primitive
        out.append(_report("exercise-pn2-count", subject,
                           f"PN_2 = {rec.num_primitive_normal}, φ(q²-1) = {rec.num_primitive} "
                           f"({'equal' if equal else 'different'}), "
                           f"average formula = {rec.predicted!r}"))
    return out


def subsum_partition_claims(ctx: FieldCtx) -> list[ClaimResult]:
    """Exact recomputation of the four (t1, t2) subsums over A = F^×.

    N00 is the claimed main term; the claimed vanishing of N01 and N10 is
    checked and reported, and the partition must sum to the exact
    primitive-normal count.
    """
    subject = ctx.spec_string()
    rec = ct.exact_counts(ctx)
    qn = ctx.order
    a_size = qn - 1
    phi = rec.num_primitive
    phi_poly = rec.num_normal
    pn = rec.num_primitive_normal
    n00 = Fraction(phi * phi_poly * a_size, qn**2)
    n01 = Fraction(phi_poly, qn) * (phi - Fraction(phi * a_size, qn))
    n10 = Fraction(phi, qn) * (phi_poly - Fraction(phi_poly * a_size, qn))
    n11 = pn - Fraction(phi_poly * phi, qn) - Fraction(phi * phi_poly, qn) \
        + Fraction(phi * phi_poly * a_size, qn**2)
    total = n00 + n01 + n10 + n11
    out = [
        _assert("subsum-partition-total", subject, total == pn,
                f"N00+N01+N10+N11 = {total} = exact PN count {pn}"),
        _report("subsum-claimed-vanishing", subject,
                f"N01 = {n01} ({'zero as claimed' if n01 == 0 else 'nonzero'}), "
                f"N10 = {n10} ({'zero as claimed' if n10 == 0 else 'nonzero'})"),
        _report("subsum-error-term", subject,
                f"N11 = {n11} vs envelope Φ/q^n·#A·e^(-sqrt(log q^n)) = "
                f"{phi_poly / qn * a_size * math.exp(-math.sqrt(math.log(qn))):.3f}"),
    ]
    return out


# -- the full verify run ---------------------------------------------------------


def run_verify(lo: int, hi: int, seed: int, budget: int = DEFAULT_BUDGET) -> list[ClaimResult]:
    """Run every claim suite over all fields with lo <= q^n <= hi."""
    results: list[ClaimResult] = []
    specs = enumerate_field_specs(lo, hi)
    ct.check_budget(specs, budget)
    if lo <= hi and hi >= 4:
        small_phi = min(10**4, max(2000, hi * 4))
        results.extend(integer_claims(seed, phi_limit=small_phi))
        # the F4 example discrepancy is a fixed global claim
        fact = factor_x_n_minus_1(2, 2)
        phi2 = poly_phi(fact)
        rec = ct.exact_counts(get_field(2, 1, 2))
        results.append(_report(
            "example-f4-normal-count", "q=2, n=2",
            f"brute force finds {rec.num_normal} normal elements, Φ on (x+1)^2 gives {phi2}; "
            f"the (q-1)^2 = 1 prediction holds only for odd q"))
    for p, k, n in specs:
        results.extend(poly_claims(p**k, n))
    for p, k, n in specs:
        ctx = get_field(p, k, n)
        results.extend(field_claims(ctx, seed))
    return results


def summarize(results) -> dict:
    counts = {ASSERTED_PASS: 0, REPORTED: 0, FAIL: 0}
    for r in results:
        counts[r.status] += 1
    return counts


def format_report(results, seed: int) -> str:
    lines = [f"pnfield claim report (seed {seed})"]
    for r in results:
        lines.append(f"[{r.status}] {r.claim_id} :: {r.subject} :: {r.detail}")
    counts = summarize(results)
    lines.append(
        f"summary: {counts[ASSERTED_PASS]} asserted-pass, "
        f"{counts[REPORTED]} reported, {counts[FAIL]} fail"
    )
    return "\n".join(lines) + "\n"


def report_json(results, seed: int) -> str:
    payload = {
        "schema": "pnfield/1",
        "kind": "verify",
        "seed": seed,
        "claims": [
            {"id": r.claim_id, "subject": r.subject, "status": r.status, "detail": r.detail}
            for r in results
        ],
        "summary": summarize(results),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
