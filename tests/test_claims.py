"""The claim-verification engine: statuses, known discrepancies, determinism."""

import pytest

from pnfield import claims
from pnfield.field import get_field, parse_field_spec


def test_enumerate_field_specs():
    specs = claims.enumerate_field_specs(4, 64)
    assert (2, 1, 2) in specs
    assert (2, 2, 2) in specs  # F_16 over F_4
    assert (7, 1, 2) in specs
    assert all((p**k) ** n <= 64 for p, k, n in specs)
    assert all(n >= 2 for _, _, n in specs)
    orders = [(p**k) ** n for p, k, n in specs]
    assert orders == sorted(orders)
    assert claims.enumerate_field_specs(10, 8) == []


def test_totient_inverse_identity_matches_the_fraction_form():
    # the integer form with cleared denominators decides exactly as the
    # Fraction form, on the true tables and on seeded corrupted ones
    import random
    from fractions import Fraction

    from pnfield.numtheory import mobius_sieve, phi_sieve

    limit = 600
    divs = [[d for d in range(1, n + 1) if n % d == 0] for n in range(limit + 1)]
    mus, rng = mobius_sieve(limit), random.Random(22)

    def fraction_form(n, phis):
        return Fraction(1, phis[n]) == sum(Fraction(1, phis[d]) for d in divs[n] if mus[d]) / n

    true_phis = phi_sieve(limit)
    for phis in [true_phis] + [[v + rng.choice((0, 0, 0, 1)) for v in true_phis] for _ in range(3)]:
        phis[0] = 0
        got = [claims.totient_inverse_holds(n, divs[n], mus, phis) for n in range(1, limit + 1)]
        assert got == [fraction_form(n, phis) for n in range(1, limit + 1)]
        assert all(got) == (phis == true_phis)


def test_integer_claims_all_pass():
    results = claims.integer_claims(seed=5, phi_limit=2000, pair_trials=300)
    assert all(r.status != claims.FAIL for r in results)
    by_id = {r.claim_id: r for r in results}
    assert by_id["totient-product-vs-counting"].status == claims.ASSERTED_PASS
    assert by_id["mertens-bound-ratios"].status == claims.REPORTED
    # the two broken exercises are reported, not asserted
    assert by_id["exercise-phi-subfield-sum"].status == claims.REPORTED
    assert "fails" in by_id["exercise-phi-subfield-sum"].detail


def test_phi_of_product_matches_euler_phi_on_the_seed_1_pairs():
    # every pair the seed-1 run of totient-gcd-correction draws
    from pnfield.numtheory import euler_phi, least_prime_factor_sieve

    lpf = least_prime_factor_sieve(claims._PAIR_BOUND)
    pairs = list(claims.phi_pairs(1, 10**4))
    assert len(pairs) == 10**4
    for m, n in pairs:
        assert claims.phi_of_product(m, n, lpf) == euler_phi(m * n), (m, n)


def test_mobius_floor_identity_claim():
    results = claims.integer_claims(seed=1, phi_limit=2000, pair_trials=10)
    rec = {r.claim_id: r for r in results}["mobius-floor-identity"]
    assert (rec.subject, rec.status, rec.detail) == ("x<=2000", claims.ASSERTED_PASS,
                                                     "Σ μ(n)·[x/n] = 1 exactly")


def test_phi_product_normalization_folds_every_sample():
    # φ(m)/D·Π(1 + 1/(r-1)) over primes r | m = q^n - 1 equals m/D: 1 with
    # D = q^n - 1 on every sample, and never 1 with D = q^n
    results = claims.integer_claims(seed=1, phi_limit=100, pair_trials=10)
    rec = {r.claim_id: r for r in results}["exercise-phi-product-normalization"]
    assert rec.status == claims.REPORTED
    assert rec.detail == "denominator q^n-1 holds: True; denominator q^n holds: False"


def test_poly_claims_statuses():
    results = claims.poly_claims(5, 4)
    by_id = {r.claim_id: r for r in results}
    assert by_id["poly-totient-divisor-sum"].status == claims.ASSERTED_PASS
    assert by_id["poly-phi-integer-formula"].status == claims.ASSERTED_PASS
    # Ω_5(x^4-1) = 4 > φ(4) = 2: the claimed bound fails and is reported
    assert by_id["omega-phi-bound"].status == claims.REPORTED
    assert "fails" in by_id["omega-phi-bound"].detail
    results23 = claims.poly_claims(2, 3)
    by_id23 = {r.claim_id: r for r in results23}
    assert "holds" in by_id23["omega-phi-bound"].detail


def test_field_claims_no_failures():
    for p, k, n in [(2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4)]:
        ctx = get_field(p, k, n)
        results = claims.field_claims(ctx, seed=11)
        failures = [r for r in results if r.status == claims.FAIL]
        assert not failures, failures


def test_subsum_partition():
    ctx = get_field(2, 1, 3)
    results = claims.subsum_partition_claims(ctx)
    by_id = {r.claim_id: r for r in results}
    assert by_id["subsum-partition-total"].status == claims.ASSERTED_PASS
    assert by_id["subsum-claimed-vanishing"].status == claims.REPORTED
    assert "nonzero" in by_id["subsum-claimed-vanishing"].detail


def test_run_verify_smoke():
    results = claims.run_verify(4, 32, seed=1)
    counts = claims.summarize(results)
    assert counts[claims.FAIL] == 0
    assert counts[claims.REPORTED] >= 3
    text = claims.format_report(results, seed=1)
    assert text.endswith("0 fail\n")
    # deterministic across calls
    results2 = claims.run_verify(4, 32, seed=1)
    assert claims.format_report(results2, seed=1) == text


def test_run_verify_full_range_under_five_minutes():
    """The flagship run: every claim suite over every field up to 4096, its
    report pinned byte for byte."""
    import hashlib
    import time

    start = time.monotonic()
    results = claims.run_verify(4, 4096, seed=7)
    elapsed = time.monotonic() - start
    counts = claims.summarize(results)
    assert counts[claims.FAIL] == 0
    assert counts[claims.ASSERTED_PASS] > 500
    assert counts[claims.REPORTED] >= 3
    assert elapsed < 300, f"verify at 4096 took {elapsed:.0f}s"
    report = claims.report_json(results, 7).encode()
    assert hashlib.sha256(report).hexdigest() == (
        "3c61fb62fd92d7207f29d6db16745dcaa2cd285ab8cf4f41b9fe410207a05717")


# every per-field claim id in report order; phi-poly-loglog-lower-bound needs
# q >= 8, phi-poly-prob-expansion n | q - 1, exercise-pn2-count n = 2
FIELD_CLAIM_IDS = [
    "frobenius-automorphism", "trace-norm", "linearized-module-action", "additive-order-minimal",
    "normal-test-agreement", "marginal-counts", "pn-exists", "order-censuses",
    "additive-character-counts", "exercise-order-r-char-sum", "indicator-equivalence",
    "subsum-partition-total", "subsum-claimed-vanishing", "subsum-error-term",
    "df-rotation-invariance", "fourier-identities", "mult-char-norm-reading", "gauss-sums",
    "char-sum-product-bound", "char-sum-shifted-bound", "char-sum-units-bound",
    "exp-sum-exact-value", "exp-sum-envelope-bound", "phi-poly-log-lower-bound",
    "phi-poly-loglog-lower-bound", "phi-poly-prob-expansion", "metric-axioms", "exercise-pn2-count",
]
UP_TO_256 = {"df-rotation-invariance", "fourier-identities", "mult-char-norm-reading"}
UP_TO_1024 = {"gauss-sums", "exp-sum-exact-value", "exp-sum-envelope-bound"}
SMALL_Q = {"phi-poly-loglog-lower-bound", "phi-poly-prob-expansion"}


@pytest.mark.parametrize("spec,absent", [
    ("2^1:8", {"exercise-order-r-char-sum", "exercise-pn2-count"} | SMALL_Q),
    ("17^1:2", UP_TO_256),
    ("2^1:9", {"exercise-pn2-count"} | UP_TO_256 | SMALL_Q),
    ("23^1:2", {"exercise-order-r-char-sum"} | UP_TO_256),
    ("2^1:10", {"exercise-order-r-char-sum", "exercise-pn2-count"} | UP_TO_256 | SMALL_Q),
    ("2^1:12", {"exercise-order-r-char-sum", "exercise-pn2-count"} | UP_TO_256 | UP_TO_1024 | SMALL_Q),
    ("3^1:2", {"phi-poly-loglog-lower-bound"}),
    ("3^1:3", {"exercise-order-r-char-sum", "exercise-pn2-count"} | SMALL_Q),
])
def test_field_claim_ids_on_the_gate_boundaries(spec, absent):
    # q^n = 256 | 289, 512 | 529 and 1024 | 4096 straddle the size gates, and
    # 3^1:2 | 3^1:3 the test p ∤ n of the order-r sum and the DD normal indicator
    ids = [r.claim_id for r in claims.field_claims(parse_field_spec(spec), seed=1)]
    assert ids == [i for i in FIELD_CLAIM_IDS if i not in absent]
