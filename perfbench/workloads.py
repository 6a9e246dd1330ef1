"""The benchmark's three workloads: the fields each one builds, the job it
times, and the checks on the job's output.

Why these workloads, and which layers each one loads or skips, is written up
in DESIGN.md next to this file.  Sizes are chosen so that one job takes a few
seconds on a 2-core desktop, which lets a run of the benchmark take the
median of several fresh-interpreter repeats.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from pnfield import claims, counting, subsets

DEFAULT_SEED = 1  # the CLI's default --seed

VERIFY_RANGE = (4, 256)

# 2^14 <= q^n <= 2^17 (5^6 just below), mixing p = 2, odd p and k > 1.  The
# first three find the reference element late in the enumeration
# (tau = 2382, 515, 732), the last three early (tau = 66, 6, 9).
CENSUS_FIELDS = ((13, 1, 4), (2, 1, 14), (3, 3, 3), (2, 2, 7), (5, 1, 6), (7, 1, 5))

# All above the 2^20 table cap, so every product runs on the polynomial path.
BIGFIELD_FIELDS = ((2, 1, 24), (2, 1, 40), (3, 1, 14), (5, 1, 10), (2, 4, 8), (7, 1, 8))
BIGFIELD_FAMILY = "uniform"
BIGFIELD_EPSILON = 0.1
BIGFIELD_TRIALS = 2

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def expected() -> dict:
    """The committed reference outputs (written by make_expected.py)."""
    return json.loads(EXPECTED_PATH.read_text())


def spec_string(p: int, k: int, n: int) -> str:
    return f"{p}^{k}:{n}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def euler_phi(m: int) -> int:
    """Totient by trial division, independent of pnfield.numtheory."""
    result, d = m, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


class Outcome:
    """What a job's checks found: operations attempted and failed, the work
    done (the throughput numerator) and deterministic work counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.counts: dict = {}
        self.errors: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


# -- verify ------------------------------------------------------------------


def verify_fields(seed):
    return claims.enumerate_field_specs(*VERIFY_RANGE)


def verify_run(seed, ctxs):
    return claims.run_verify(*VERIFY_RANGE, seed)


def ledger_text(results) -> str:
    return "\n".join(f"{r.claim_id}\t{r.subject}\t{r.status}" for r in results)


def verify_check(results, seed, out: Outcome):
    exp = expected()["verify"]
    counts = claims.summarize(results)
    for r in results:
        out.check(r.status != claims.FAIL, f"FAIL claim {r.claim_id} :: {r.subject}")
    out.check(sha256(ledger_text(results)) == exp["ledger_sha256"], "claim ledger differs from the committed digest")
    if seed == DEFAULT_SEED:
        out.check(sha256(claims.format_report(results, seed)) == exp["report_sha256"],
                  "report differs from the committed digest")
    out.work = len(results)
    out.counts["claims"] = counts


# -- census ------------------------------------------------------------------


def census_fields(seed):
    specs = list(CENSUS_FIELDS)
    random.Random(seed).shuffle(specs)
    return specs


def census_run(seed, ctxs):
    return counting.density_sweep(census_fields(seed))


def census_check(records, seed, out: Outcome):
    exp = expected()["census"]
    by_qn = {(p**k, n): spec_string(p, k, n) for p, k, n in CENSUS_FIELDS}
    out.check(len(records) == len(CENSUS_FIELDS), "density_sweep returned the wrong number of records")
    for rec in records:
        spec = by_qn[(rec.q, rec.n)]
        qn = rec.q**rec.n
        num_normal, num_pn = exp[spec]
        out.check(rec.num_primitive == euler_phi(qn - 1), f"{spec}: numPrimitive != phi(q^n-1)")
        out.check(rec.num_normal == num_normal, f"{spec}: numNormal != Phi_q(x^n-1)")
        out.check(rec.num_primitive_normal == num_pn, f"{spec}: numPN differs from the committed count")
        out.work += qn - 1
    out.counts["elements_classified"] = out.work


# -- bigfield ----------------------------------------------------------------


def bigfield_fields(seed):
    return list(BIGFIELD_FIELDS)


def bigfield_run(seed, ctxs):
    return [
        subsets.threshold_experiment(ctx, BIGFIELD_FAMILY, BIGFIELD_EPSILON, BIGFIELD_TRIALS, seed)
        for ctx in ctxs
    ]


def reports_text(reports) -> str:
    return json.dumps(reports, sort_keys=True)


def bigfield_check(reports, seed, out: Outcome):
    out.check(len(reports) == len(BIGFIELD_FIELDS), "wrong number of experiment reports")
    if seed == DEFAULT_SEED:
        out.check(sha256(reports_text(reports)) == expected()["bigfield"]["reports_sha256"],
                  "experiment rows differ from the committed digest")


WORKLOADS = {
    "verify": (verify_fields, verify_run, verify_check),
    "census": (census_fields, census_run, census_check),
    "bigfield": (bigfield_fields, bigfield_run, bigfield_check),
}
