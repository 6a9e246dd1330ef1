"""The claim-verification suite.

Every invariant and every checkable source claim runs here with a three-state
outcome: ASSERTED-PASS for invariants that must hold, REPORTED for claims
that are checked but known-discrepant (the discrepancy ledger is the point),
and FAIL for a broken asserted invariant.

The per-field claims are one table, _FIELD_CHECKS, of (gate, check) pairs in
report order.  The gate is the only place a claim's size limit is written,
and every check reads one record of its field (_Field), built once per field:
the exact counts, the additive orders, one is_primitive and one is_normal
flag per element, and the seeded stream the first three checks share.
field_claims is the loop over the table, and run_verify deals the fields out
to one process per CPU of the affinity mask (_pool.map_fields).

cmdVerify exits nonzero only on FAIL.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import characters as ch
from . import counting as ct
from . import subsets as sb
from ._pool import map_fields
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


def totient_inverse_holds(n: int, divs: list[int], mus: list[int], phis: list[int]) -> bool:
    """1/φ(n) = (1/n)·Σ_{d|n} μ²(d)/φ(d) over the divisors divs of n, with the
    sum kept as num/den, never reduced or divided: n·den = φ(n)·num."""
    num, den = 0, 1
    for d in divs:
        if mus[d]:
            num, den = num * phis[d] + den, den * phis[d]
    return n * den == phis[n] * num


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
    # (n = 1 is skipped: the empty range counts 1 by the convention φ(1) = 1)
    bad = next((n for n in range(2, phi_limit + 1)
                if sum(mus[d] * ((n - 1) // d) for d in divs[n] if mus[d]) != phis[n]), None)
    out.append(_assert("totient-product-vs-counting", f"n<={phi_limit}", bad is None,
                       f"first mismatch at {bad}" if bad else "product form equals gcd-counting form"))

    # Möbius pair Σ_{d|n} φ(d) = n
    ok = all(sum(phis[d] for d in divs[n]) == n for n in range(1, phi_limit + 1))
    out.append(_assert("totient-divisor-sum", f"n<={phi_limit}", ok, "Σ_{d|n} φ(d) = n"))

    # φ(mn) = d/φ(d)·φ(m)·φ(n) on seeded pairs
    lpf = least_prime_factor_sieve(_PAIR_BOUND)
    ok = all(phi_of_product(m, n, lpf) * phis[math.gcd(m, n)] == math.gcd(m, n) * phis[m] * phis[n]
             for m, n in phi_pairs(seed, pair_trials))
    out.append(_assert("totient-gcd-correction", f"{pair_trials} seeded pairs", ok,
                       "φ(mn)·φ(d) = d·φ(m)·φ(n) with d = gcd(m, n)"))

    # inverse identity 1/φ(n) = (1/n)·Σ μ²(d)/φ(d)
    ok = all(totient_inverse_holds(n, divs[n], mus, phis) for n in range(1, min(phi_limit, 10**4) + 1))
    out.append(_assert("totient-inverse-identity", f"n<={min(phi_limit, 10**4)}", ok,
                       "1/φ(n) = (1/n)·Σ_{d|n} μ²(d)/φ(d)"))

    # Σ_{n<=x} μ(n)·floor(x/n) = 1, as a running total: floor(x/n) -
    # floor((x-1)/n) is 1 exactly when n | x, so the sum grows by Σ_{d|x} μ(d)
    xmax = min(phi_limit, 2000)
    steps = (sum(mus[d] for d in divs[x]) for x in range(1, xmax + 1))
    ok = all(total == 1 for total in itertools.accumulate(steps))
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
    if is_prime(n) and n % fact.fq.p and multiplicative_order(q, n) == n - 1:
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


class _Field:
    """The record the checks of one field read: the primitive and normal
    masks of the whole-field pass (class_masks, 0 at 0), the additive orders
    as exponent vectors over the factors of x^n - 1 (so d | d' is
    componentwise), the exact counts, and the stream that the first three
    checks draw from in turn."""

    def __init__(self, ctx: FieldCtx, seed: int):
        ctx.ensure_tables()
        self.ctx, self.seed, self.subject, self.qn = ctx, seed, ctx.spec_string(), ctx.order
        self.rng = rng_for(seed, "field", self.subject)
        self.add_orders = [ctx.additive_order_exponents(a) for a in range(self.qn)]
        self.primitive, self.normal = ctx.class_masks()
        self.rec = ct.exact_counts(ctx)


def _draw_poly(ctx: FieldCtx, rng) -> tuple:
    """A polynomial of degree < n over F_q, its coefficients drawn low first."""
    return poly_trim(rng.randrange(ctx.q) for _ in range(ctx.n))


def _frobenius_automorphism(f: _Field):
    ctx, qn, rng, frob = f.ctx, f.qn, f.rng, f.ctx.frobenius

    def homomorphic(a, b):
        return frob(ctx.add(a, b)) == ctx.add(frob(a), frob(b)) \
            and frob(ctx.mul(a, b)) == ctx.mul(frob(a), frob(b))

    ok = all(homomorphic(rng.randrange(qn), rng.randrange(qn)) for _ in range(min(1000, 10 * qn)))
    ok = ok and all(frob(ctx.embed_base(c)) == ctx.embed_base(c) for c in range(ctx.q))
    ok = ok and all(frob(a, ctx.n) == a for a in range(0, qn, max(1, qn // 64)))
    yield _assert("frobenius-automorphism", f.subject, ok,
                  "additive/multiplicative homomorphism, fixes F_q, order n")


def _trace_norm(f: _Field):
    ctx, qn, rng = f.ctx, f.qn, f.rng

    def linear_multiplicative(a, b):
        return ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % ctx.p \
            and not (a and b and ctx.norm(ctx.mul(a, b)) != ctx.norm(a) * ctx.norm(b) % ctx.p)

    ok = all(linear_multiplicative(rng.randrange(qn), rng.randrange(qn)) for _ in range(200))
    ok = ok and {ctx.trace(a) for a in range(qn)} == set(range(ctx.p))
    yield _assert("trace-norm", f.subject, ok,
                  "trace F_p-linear and surjective; norm multiplicative")


def _module_action(f: _Field):
    ctx, rng, act = f.ctx, f.rng, f.ctx.apply_linearized

    def associative(r, s, a):
        return act(poly_mul(ctx.fq, r, s), a) == act(r, act(s, a))

    ok = all(associative(_draw_poly(ctx, rng), _draw_poly(ctx, rng), rng.randrange(f.qn)) for _ in range(100))
    yield _assert("linearized-module-action", f.subject, ok,
                  "apply(r·s, α) = apply(r, apply(s, α))")


def _additive_order_minimal(f: _Field):
    act, fact = f.ctx.apply_linearized, f.ctx.add_factorization
    ok = all(
        act(fact.divisor(exps), a) == 0
        and all(not j or act(fact.divisor(exps[:i] + (j - 1,) + exps[i + 1:]), a) for i, j in enumerate(exps))
        for a, exps in enumerate(f.add_orders)
    )
    yield _assert("additive-order-minimal", f.subject, ok,
                  "d∘α = 0 and no proper divisor annihilates α")


def _normal_test_agreement(f: _Field):
    is_normal = f.ctx.is_normal
    ok = all(f.normal[a] == is_normal(a) == is_normal(a, method="rank") for a in range(f.qn))
    yield _assert("normal-test-agreement", f.subject, ok, "divisor test ≡ rank test on all elements")


def _marginal_counts(f: _Field):
    # the marginals are enforced against the closed formulas inside exact_counts
    yield _assert("marginal-counts", f.subject, True,
                  f"#primitive = {f.rec.num_primitive} = φ, #normal = {f.rec.num_normal} = Φ")
    yield _assert("pn-exists", f.subject, f.rec.num_primitive_normal > 0,
                  f"numPN = {f.rec.num_primitive_normal}")


def _order_censuses(f: _Field):
    m, census_m, census_a = f.qn - 1, ct.multiplicative_order_census(f.ctx), Counter(f.add_orders)
    ok = sum(census_m.values()) == m and census_m.get(m, 0) == f.rec.num_primitive
    ok = ok and all(census_m.get(d, 0) == euler_phi(d) for d in divisors(m))
    ok = ok and sum(census_a.values()) == f.qn
    ok = ok and census_a.get(f.ctx.add_factorization.exponents(), 0) == f.rec.num_normal
    yield _assert("order-censuses", f.subject, ok,
                  "order class sizes: φ(d) per divisor, Φ for the maximal class")


def _additive_character_counts(f: _Field):
    # Ord ψ_c is the additive order of c
    fact, census_a = f.ctx.add_factorization, Counter(f.add_orders)
    ok = all(
        sum(cnt for ee, cnt in census_a.items() if all(x <= y for x, y in zip(ee, exps)))
        == f.ctx.q ** fact.degree(exps)
        for exps in fact.exponent_vectors()
    )
    yield _assert("additive-character-counts", f.subject, ok,
                  "#{c : Ord ψ_c | d} = q^deg(d) for every monic divisor d")


def _order_r_char_sum(f: _Field):
    # the order-r(x) character-sum dichotomy: the claimed value q^deg(r) - 1
    # whenever r | Ord(α) does not match direct summation; the
    # kernel-orthogonality evaluation (which does) drives the
    # divisor-dependent normal indicator
    ctx, fact = f.ctx, f.ctx.add_factorization
    dichotomy_fails, zp_sums = [], {}
    for c, exps in enumerate(f.add_orders):
        zp_sums.setdefault(exps, []).append(c)
    for i, factor in enumerate(fact.distinct_factors()):
        # the characters of order exactly r_i: exponent vector e_i
        params = zp_sums.get(tuple(int(x == i) for x in range(len(fact.entries))), [])
        for a in range(1, min(f.qn, 9)):
            total = sum(cmath.exp(2j * cmath.pi * ctx.trace(ctx.mul(c, a)) / ctx.p) for c in params)
            predicted = ctx.q ** poly_deg(factor) - 1 if f.add_orders[a][i] >= 1 else -1
            if abs(total - predicted) > 1e-6:
                dichotomy_fails.append((format_poly(ctx.fq, factor), a, round(total.real, 3), predicted))
    yield _report("exercise-order-r-char-sum", f.subject,
                  f"claimed q^deg(r)-1 / -1 split by r | Ord(α): "
                  f"{'holds on sampled α' if not dichotomy_fails else f'fails, e.g. {dichotomy_fails[0]}'}")


def _indicator_equivalence(f: _Field):
    ctx, tau = f.ctx, f.ctx.reference_tau
    mism, dd_applicable = 0, ctx.n % ctx.p != 0
    for a in range(1, f.qn):
        prim, norm = f.primitive[a], f.normal[a]
        mism += ch.indicator_primitive_dd(ctx, a) != prim
        mism += ch.indicator_primitive_df(ctx, a) != prim
        mism += ch.indicator_normal_df(ctx, a, tau) != norm
        mism += dd_applicable and ch.indicator_normal_dd(ctx, a) != norm
    yield _assert("indicator-equivalence", f.subject, mism == 0,
                  f"mismatches = {mism} (DD/DF primitive, DF normal"
                  f"{', DD normal' if dd_applicable else '; DD normal n/a'})")


def _df_rotation_invariance(f: _Field):
    ok = True
    for a in range(1, min(f.qn, 12)):
        base = ch.indicator_primitive_df_literal(f.ctx, a, rotation=0)
        for rot in (1, 3, 7):
            if ch.indicator_primitive_df_literal(f.ctx, a, rotation=rot) != base:
                ok = False
    yield _assert("df-rotation-invariance", f.subject, ok,
                  "literal DF indicator unchanged under s-enumeration rotation")


def _fourier_identities(f: _Field):
    rng = rng_for(f.seed, "fourier", f.subject)
    b, c = rng.randrange(1, f.qn - 1), rng.randrange(1, f.qn)
    res_add, res_mult = ch.fourier_identity_max_residuals(f.ctx, b, c)
    yield _assert("fourier-identities", f.subject, res_add < 1e-8 and res_mult < 1e-8,
                  f"max residuals: additive {res_add:.2e}, multiplicative {res_mult:.2e}")


def _mult_char_norm_reading(f: _Field):
    # e(N(cα)/(q^n-1)) takes at most p distinct values, an order-(q^n-1)
    # character needs q^n-1 of them; N(cα) is read from the field's norms
    ctx = f.ctx
    norms = [ctx.norm(a) for a in range(f.qn)]
    distinct = max(len({norms[ctx.mul(c, a)] for a in range(1, f.qn)}) for c in range(1, min(f.qn, 16)))
    yield _report("mult-char-norm-reading", f.subject,
                  f"norm-exponent values per character <= {distinct} "
                  f"(at most p = {ctx.p}) but a primitive character needs "
                  f"{f.qn - 1}; discrete-log indexing used instead")


def _gauss_sums(f: _Field):
    # exact degenerate values and |G| = q^(n/2)
    ctx, m = f.ctx, f.qn - 1
    ok = ch.gauss_sum(ctx, 0, 0) == complex(m) and ch.gauss_sum(ctx, 1, 0) == 0 \
        and ch.gauss_sum(ctx, 0, 1) == complex(-1)
    rng = rng_for(f.seed, "gauss", f.subject)
    draws = [(rng.randrange(1, m), rng.randrange(1, f.qn)) for _ in range(50)]
    worst = max(abs(abs(ch.gauss_sum(ctx, b, c)) - f.qn**0.5) for b, c in draws)
    yield _assert("gauss-sums", f.subject, ok and worst < 1e-6,
                  f"exact degenerate triple; max | |G| - q^(n/2) | = {worst:.2e}")


def _char_sum_bounds(f: _Field):
    # incomplete character sum bounds; details carry the wire-format entries
    ent = {e["lemma-id"]: e for e in ch.char_sum_bound_suite(f.ctx, trials=100, seed=f.seed)["entries"]}
    for claim_id, lemma in (("char-sum-product-bound", "product-double-sum"),
                            ("char-sum-shifted-bound", "shifted-double-sum")):
        yield _assert(claim_id, f.subject, ent[lemma]["pass"], json.dumps(ent[lemma], sort_keys=True))
    yield _report("char-sum-units-bound", f.subject, json.dumps(ent["units-group-sum"], sort_keys=True))


def _exp_sum(f: _Field):
    # exponential sum over coprime residues at a sample of non-primitive α
    # (never empty: 1 is not primitive); the envelope is read at the last
    ok = True
    non_prim = [a for a in range(1, f.qn) if not f.primitive[a]]
    sample = non_prim if len(non_prim) <= 8 else rng_for(f.seed, "expsum", f.subject).sample(non_prim, 8)
    for a in sample:
        es = ch.primitive_exp_sum(f.ctx, a)
        ok = ok and es.exact_value == -es.phi_value and ch.primitive_exp_sum_direct(f.ctx, a) == es.exact_value
    yield _assert("exp-sum-exact-value", f.subject, ok,
                  "collapse value = -φ(q^n-1), confirmed by direct summation")
    yield _report("exp-sum-envelope-bound", f.subject,
                  f"|exact| = {abs(es.exact_value)} vs envelope {es.envelope_bound:.3f}: "
                  f"{'within' if es.within_bound else 'exceeds'}")


def _phi_poly_bounds(f: _Field):
    # Φ_q(x^n-1) lower bounds
    rep = ct.phi_poly_lower_bound_check(f.ctx.q, f.ctx.n)
    yield _assert("phi-poly-log-lower-bound", f.subject, rep.log_bound_ok,
                  f"ratio {rep.ratio:.6f} >= 1/(5·log q^n)")
    if rep.loglog_bound_ok is not None:
        yield _assert("phi-poly-loglog-lower-bound", f.subject, rep.loglog_bound_ok,
                      f"ratio {rep.ratio:.6f} >= 1/(5·loglog q^n), q >= 8")
    if rep.prob_expansion_residual is not None:
        yield _report("phi-poly-prob-expansion", f.subject,
                      f"|ratio - (1 - n/q)| = {rep.prob_expansion_residual:.6f} vs "
                      f"n(n-1)/q² = {rep.prob_expansion_bound:.6f}")


def _metric_axioms(f: _Field):
    # metric axioms for the weight and height distances
    ctx, rng = f.ctx, rng_for(f.seed, "metrics", f.subject)

    def metric(dist, r, s, u):
        drs, dsr, dru, dsu = (dist(ctx, x, y) for x, y in ((r, s), (s, r), (r, u), (s, u)))
        return drs >= 0 and (drs == 0) == (r == s) and drs == dsr and dru <= drs + dsu

    triples = ((_draw_poly(ctx, rng), _draw_poly(ctx, rng), _draw_poly(ctx, rng)) for _ in range(300))
    ok = all(metric(dist, *t) for t in triples for dist in (sb.poly_distance_weight, sb.poly_distance_height))
    yield _assert("metric-axioms", f.subject, ok,
                  "weight and height distances: identity, symmetry, triangle")


def _pn2_count(f: _Field):
    # quadratic-field exercise data: PN_2(q) vs φ(q²-1) vs the average formula
    rec = f.rec
    yield _report("exercise-pn2-count", f.subject,
                  f"PN_2 = {rec.num_primitive_normal}, φ(q²-1) = {rec.num_primitive} "
                  f"({'equal' if rec.num_primitive_normal == rec.num_primitive else 'different'}), "
                  f"average formula = {rec.predicted!r}")


# (gate, check) in report order: check(f) yields its results on every field
# whose record f passes the gate (None: every verify field, which has n >= 2,
# so q^n >= 4 and q^n - 1 > p).
_FIELD_CHECKS = (
    (None, _frobenius_automorphism),
    (None, _trace_norm),
    (None, _module_action),
    (None, _additive_order_minimal),
    (None, _normal_test_agreement),
    (None, _marginal_counts),
    (None, _order_censuses),
    (None, _additive_character_counts),
    (lambda f: f.ctx.n % f.ctx.p and f.qn <= 512, _order_r_char_sum),
    (None, _indicator_equivalence),
    (None, lambda f: subsum_partition_claims(f.ctx)),
    (lambda f: f.qn <= 256, _df_rotation_invariance),
    (lambda f: f.qn <= 256, _fourier_identities),
    (lambda f: f.qn <= 256, _mult_char_norm_reading),
    (lambda f: f.qn <= 1024, _gauss_sums),
    (lambda f: f.qn <= 4096, _char_sum_bounds),
    (lambda f: f.qn <= 1024, _exp_sum),
    (None, _phi_poly_bounds),
    (None, _metric_axioms),
    (lambda f: f.ctx.n == 2, _pn2_count),
)


def field_claims(ctx: FieldCtx, seed: int) -> list[ClaimResult]:
    """Every per-field claim of _FIELD_CHECKS whose gate admits the field, on
    one record of the field built for all of them."""
    f = _Field(ctx, seed)
    return [r for gate, check in _FIELD_CHECKS if gate is None or gate(f) for r in check(f)]


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
    """Run every claim suite over all fields with lo <= q^n <= hi: the
    per-field claims by _pool.map_fields, field i in process i mod W, whose
    workers run while the caller runs the integer and polynomial claims.
    Every check draws from seeds labelled by its field, so nothing depends
    on W."""
    results: list[ClaimResult] = []
    specs = enumerate_field_specs(lo, hi)
    ct.check_budget(specs, budget)

    def global_claims():
        if lo <= hi and hi >= 4:
            small_phi = min(10**4, max(2000, hi * 4))
            results.extend(integer_claims(seed, phi_limit=small_phi))
            # the F4 example discrepancy is a fixed global claim
            phi2 = poly_phi(factor_x_n_minus_1(2, 2))
            rec = ct.exact_counts(get_field(2, 1, 2))
            results.append(_report(
                "example-f4-normal-count", "q=2, n=2",
                f"brute force finds {rec.num_normal} normal elements, Φ on (x+1)^2 gives {phi2}; "
                f"the (q-1)^2 = 1 prediction holds only for odd q"))
        for p, k, n in specs:
            results.extend(poly_claims(p**k, n))

    for field_results in map_fields(lambda ctx: field_claims(ctx, seed), specs, meanwhile=global_claims):
        results.extend(field_results)
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
