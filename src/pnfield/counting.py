"""Exhaustive primitive/normal/primitive-normal counts, density records, and
the Φ_q(x^n - 1) lower-bound corollaries.

The marginal counts are enforced against the closed formulas: the number of
primitive elements is φ(q^n - 1) and the number of normal elements is
Φ_q(x^n - 1), exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass

from ._pool import map_fields
from .errors import DEFAULT_BUDGET, ConsistencyError, ResourceLimitError
from .field import FieldCtx
from .polyfq import factor_x_n_minus_1, poly_phi

SWEEP_COLUMNS = ["q", "k", "n", "numPrimitive", "numNormal", "numPN", "predicted", "delta"]


@dataclass(frozen=True)
class DensityRecord:
    """Exact counts for one field plus the heuristic product prediction.

    predicted = φ(q^n-1)·Φ_q(x^n-1)/q^n (the average-formula normalization);
    delta is the observed correction numPN / predicted.  density_q2n carries
    the alternative φ·Φ/q^(2n) normalization.
    """

    q: int
    k: int
    n: int
    num_primitive: int
    num_normal: int
    num_primitive_normal: int
    predicted: float
    delta: float
    density_q2n: float

    def __post_init__(self):
        if not 0 <= self.num_primitive_normal <= min(self.num_primitive, self.num_normal):
            raise ConsistencyError("primitive-normal count outside its marginals")

    def csv_row(self) -> list:
        return [
            self.q,
            self.k,
            self.n,
            self.num_primitive,
            self.num_normal,
            self.num_primitive_normal,
            repr(self.predicted),
            repr(self.delta),
        ]

    def json_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "n": self.n,
            "numPrimitive": self.num_primitive,
            "numNormal": self.num_normal,
            "numPN": self.num_primitive_normal,
            "predicted": self.predicted,
            "delta": self.delta,
            "densityQ2n": self.density_q2n,
        }


def exact_counts(ctx: FieldCtx, budget: int = DEFAULT_BUDGET) -> DensityRecord:
    """Count primitive, normal and primitive-normal elements exhaustively.

    The counts are read off the masks of the whole-field pass
    (FieldCtx.class_counts), which leaves the context on the polynomial path
    and raises ResourceLimitError above the 2^20 table cap, whatever the
    budget.  The marginals must equal φ(q^n - 1) and Φ_q(x^n - 1), which
    checks the exponent sieve and the union of the images r∘F that mark the
    non-normal elements.
    """
    if ctx.order > budget:
        raise ResourceLimitError(
            f"enumeration of {ctx.order} elements exceeds budget {budget}"
        )
    num_prim, num_norm, num_pn = ctx.class_counts()
    phi_m = ctx.mult_factorization.totient
    phi_poly = poly_phi(ctx.add_factorization)
    if num_prim != phi_m:
        raise ConsistencyError(f"primitive count {num_prim} != φ = {phi_m}")
    if num_norm != phi_poly:
        raise ConsistencyError(f"normal count {num_norm} != Φ = {phi_poly}")
    predicted = phi_m * phi_poly / ctx.order
    return DensityRecord(
        q=ctx.q,
        k=ctx.k,
        n=ctx.n,
        num_primitive=num_prim,
        num_normal=num_norm,
        num_primitive_normal=num_pn,
        predicted=predicted,
        delta=num_pn / predicted,
        density_q2n=phi_m * phi_poly / ctx.order**2,
    )


def multiplicative_order_census(ctx: FieldCtx) -> dict[int, int]:
    """#{α : multiplicative order d} for every divisor d of q^n - 1."""
    return Counter(ctx.multiplicative_order(a) for a in range(1, ctx.order))


@dataclass(frozen=True)
class PhiPolyBoundReport:
    q: int
    n: int
    ratio: float
    log_bound_ok: bool
    loglog_bound_ok: bool | None
    prob_expansion_residual: float | None
    prob_expansion_bound: float | None


def phi_poly_lower_bound_check(q: int, n: int) -> PhiPolyBoundReport:
    """Φ_q(x^n-1)/(q^n-1) against the 1/(5·log q^n) lower bound.

    The loglog variant applies for q >= 8 only.  When n | q - 1 the exact
    ratio is compared against the 1 - n/q expansion with an n(n-1)/q²
    residual budget (reported, never asserted).
    """
    if q < 2 or n < 2:
        raise ValueError("phi_poly_lower_bound_check requires q >= 2, n >= 2")
    fact = factor_x_n_minus_1(q, n)
    phi = poly_phi(fact)
    qn = q**n
    ratio = phi / (qn - 1)
    log_ok = ratio >= 1.0 / (5.0 * math.log(qn))
    loglog_ok = ratio >= 1.0 / (5.0 * math.log(math.log(qn))) if q >= 8 else None
    residual = None
    residual_bound = None
    if (q - 1) % n == 0:
        residual = abs(ratio - (1.0 - n / q))
        residual_bound = n * (n - 1) / q**2
    return PhiPolyBoundReport(
        q=q,
        n=n,
        ratio=ratio,
        log_bound_ok=log_ok,
        loglog_bound_ok=loglog_ok,
        prob_expansion_residual=residual,
        prob_expansion_bound=residual_bound,
    )


def check_budget(specs, budget: int) -> None:
    """Refuse, before any field is built, a (p, k, n) in specs above budget."""
    for p, k, n in specs:
        if (p**k) ** n > budget:
            raise ResourceLimitError(f"field {p}^{k}:{n} exceeds budget {budget}")


def density_sweep(specs, budget: int = DEFAULT_BUDGET) -> list[DensityRecord]:
    """Exact counts for every (p, k, n) in the list specs, sorted by (q, n, k),
    by _pool.map_fields, dealing the fields out largest q^n first."""
    check_budget(specs, budget)
    records = map_fields(lambda ctx: exact_counts(ctx, budget=budget), specs,
                         key=lambda spec: (-((spec[0] ** spec[1]) ** spec[2]), *spec))
    records.sort(key=lambda r: (r.q, r.n, r.k))
    return records


def sweep_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def sweep_to_json(records) -> str:
    payload = {"schema": "pnfield/1", "kind": "sweep", "rows": [r.json_dict() for r in records]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
