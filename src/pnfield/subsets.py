"""Metrics, subset families, structure detection, and the small-subset
primitive-normal search.

Subsets materialize to sorted lists of integer-encoded elements, so scans and
"first witness" reports are deterministic.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, ConsistencyError, ResourceLimitError
from .field import FieldCtx
from .polyfq import Poly
from .seeds import rng_for


def poly_distance_weight(ctx: FieldCtx, r: Poly, s: Poly) -> int:
    """Hamming weight of s - r: the coefficients where r and s differ."""
    return sum(1 for a, b in itertools.zip_longest(r, s, fillvalue=0) if a != b)


def poly_distance_height(ctx: FieldCtx, r: Poly, s: Poly) -> int:
    """Height of s - r: the largest centered magnitude min(c, p - c) of a
    base-p digit difference c, coefficient by coefficient.  F_q adds digit
    by digit, and (b - a) mod p is the difference of the low digits of a
    and b, so each step reads it and then drops those digits."""
    p, k, best = ctx.p, ctx.k, 0
    for a, b in itertools.zip_longest(r, s, fillvalue=0):
        for _ in range(k):
            c = (b - a) % p
            if c > best and p - c > best:
                best = min(c, p - c)
            a, b = a // p, b // p
    return best


def enumerate_hamming_ball(ctx: FieldCtx, center: int, radius: int) -> list[int]:
    """{center + c : c in F_p with bit-weight(c) <= radius}, sorted.

    Includes c = 0, so the center is always a member.  Radii beyond the
    bit-length of p saturate at center + F_p; for p = 2 a ball therefore has
    at most two members, center and center + 1.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    out = set()
    for c in range(ctx.p):
        if bin(c).count("1") <= radius:
            out.add(ctx.add(center, ctx.embed_base(c % ctx.q)))
    return sorted(out)


def enumerate_height_box(ctx: FieldCtx, d: int, h: int, budget: int = DEFAULT_BUDGET) -> list[int]:
    """The family A_d(H): polynomials Σ a_i x^i of degree <= d with integer
    coefficients |a_i| <= H and gcd(a_0, ..., a_d) = 1, mapped into the field.

    Returns the deduplicated image, sorted.
    """
    if not 2 <= d < ctx.n:
        raise ValueError(f"require 2 <= d < n, got d={d}, n={ctx.n}")
    if h < 1:
        raise ValueError("height bound must be >= 1")
    out = set()
    tuple_count = (2 * h + 1) ** (d + 1)
    if tuple_count > budget:
        raise ResourceLimitError(f"height box of {tuple_count} tuples exceeds budget")
    rng = range(-h, h + 1)

    def rec(idx, acc, g):
        if idx > d:
            if g == 1:
                coords_vec = [a % ctx.p for a in acc] + [0] * (ctx.n - d - 1)
                out.add(ctx.encode([ctx.embed_base(c) for c in coords_vec]))
            return
        for a in rng:
            rec(idx + 1, acc + [a], math.gcd(g, abs(a)))

    rec(0, [], 0)
    return sorted(out)


def is_structured(ctx: FieldCtx, elems) -> tuple[bool, str | None]:
    """Classify a subset: a subfield (full root set of x^(q^d) - x for some
    d | n) or an F_p-subspace, possibly punctured at 0.

    Singletons are never structured: a lone element must stay admissible for
    size-1 threshold draws.  Any larger set whose union with 0 is closed
    under addition (so under F_p-scaling) dodges the search the same way a
    subspace does and is flagged: A ∪ {0} is one iff it has p^rank elements,
    the rank counted until p^rank passes its size.
    """
    elems = set(elems)
    if not elems:
        raise ValueError("subset must be nonempty")
    for d in range(1, ctx.n + 1):
        if ctx.n % d == 0 and len(elems) == ctx.q**d and all(ctx.pow(a, ctx.q**d) == a for a in elems):
            return True, "subfield"
    if len(elems) == 1 and 0 not in elems:
        return False, None
    padded, rank = elems | {0}, 0
    for new in ctx.independent(padded):
        rank += new
        if ctx.p**rank > len(padded):
            return False, None
    return (True, "subspace") if ctx.p**rank == len(padded) else (False, None)


@dataclass(frozen=True)
class SubsetSpec:
    """Declarative subset description: hammingBall, heightBox, or explicit."""

    kind: str
    center: int | None = None
    radius: int | None = None
    degree: int | None = None
    height: int | None = None
    elements: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("hammingBall", "heightBox", "explicit"):
            raise ValueError(f"unknown subset kind {self.kind!r}")

    @classmethod
    def from_json(cls, text: str, ctx: FieldCtx | None = None) -> "SubsetSpec":
        """The spec of a JSON object; a missing key or a value of the wrong
        type raises ValueError naming the key.  With ctx, an element may be
        given as element text."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"subset JSON must be an object, not {type(data).__name__}")
        kind = data.get("kind")

        def integer(key, v, element=False):
            if element and isinstance(v, str) and ctx is not None:
                return ctx.parse_element(v)
            try:
                return int(v)
            except (TypeError, ValueError):
                raise ValueError(f"{kind} subset key {key!r}: {v!r} is not an integer") from None

        try:
            if kind == "hammingBall":
                return cls(kind=kind, center=integer("center", data.get("center", 0), element=True),
                           radius=integer("H", data["H"]))
            if kind == "heightBox":
                return cls(kind=kind, degree=integer("d", data["d"]), height=integer("H", data["H"]))
            if kind == "explicit":
                elems = data["elements"]
                if not isinstance(elems, list):
                    raise ValueError(f"explicit subset key 'elements': {elems!r} is not a list")
                return cls(kind=kind, elements=tuple(integer("elements", e, element=True) for e in elems))
        except KeyError as exc:
            raise ValueError(f"{kind} subset needs the key {exc.args[0]!r}") from None
        raise ValueError(f"unknown subset kind {kind!r}")


def materialize(ctx: FieldCtx, spec: SubsetSpec, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Deduplicated, sorted member list of the described subset."""
    if spec.kind == "hammingBall":
        if ctx.p > budget:
            raise ResourceLimitError("hamming ball exceeds budget")
        return enumerate_hamming_ball(ctx, spec.center or 0, spec.radius)
    if spec.kind == "heightBox":
        return enumerate_height_box(ctx, spec.degree, spec.height, budget)
    elems = sorted(set(spec.elements))
    if any(not 0 <= e < ctx.order for e in elems):
        raise ValueError("explicit elements out of range")
    if len(elems) > budget:
        raise ResourceLimitError("explicit subset exceeds budget")
    return elems


def _threshold(ctx: FieldCtx, epsilon: float, multiplier: float) -> float:
    """multiplier · log(q^n) · (loglog q^n)^(1+ε), unrounded; q^n ≥ 3."""
    logqn = math.log(ctx.order)
    if logqn <= 1:
        raise ValueError(f"field {ctx.spec_string()}: the threshold needs q^n ≥ 3 (loglog q^n > 0)")
    return multiplier * logqn * math.log(logqn) ** (1.0 + epsilon)


def threshold_size(ctx: FieldCtx, epsilon: float, multiplier: float = 1.0) -> int:
    """ceil(multiplier · log(q^n) · (loglog q^n)^(1+ε)), clamped to >= 1."""
    return max(1, math.ceil(_threshold(ctx, epsilon, multiplier)))


@dataclass(frozen=True)
class SearchReport:
    field: str
    subset_size: int
    witnesses: tuple
    threshold_size: float
    hit: bool
    op_count: int

    def __post_init__(self):
        if self.hit != bool(self.witnesses):
            raise ConsistencyError("hit flag disagrees with the witness list")

    def json_dict(self) -> dict:
        return {
            "schema": "pnfield/1",
            "kind": "search",
            "field": self.field,
            "subsetSize": self.subset_size,
            "witnesses": list(self.witnesses),
            "thresholdSize": self.threshold_size,
            "hit": self.hit,
            "opCount": self.op_count,
        }


def search_primitive_normal(
    ctx: FieldCtx,
    spec: SubsetSpec,
    epsilon: float = 0.1,
    budget: int = DEFAULT_BUDGET,
    multiplier: float = 1.0,
) -> SearchReport:
    """Scan the subset in deterministic order; report every witness found,
    the subset size, and the threshold size at the given ε (scaled by the
    constant multiplier, default 1).

    The context's arithmetic-operation counter is sampled around the scan so
    complexity experiments can plot measured work.
    """
    members = materialize(ctx, spec, budget=budget)
    ops_before = ctx.op_count
    witnesses = tuple(a for a in members if a and ctx.is_primitive_normal(a))
    ops = ctx.op_count - ops_before
    return SearchReport(
        field=ctx.spec_string(),
        subset_size=len(members),
        witnesses=witnesses,
        threshold_size=_threshold(ctx, epsilon, multiplier),
        hit=bool(witnesses),
        op_count=ops,
    )


def _draw_subset(ctx: FieldCtx, family: str, size: int, rng) -> list[int]:
    """One seeded nonstructured subset of the requested size from the family."""
    if size >= ctx.order:
        raise ValueError("subset size must be below the field order")
    if family == "uniform":
        return sorted(rng.sample(range(1, ctx.order), size))
    if family == "hammingBall":
        center = rng.randrange(ctx.order)
        radius = 0
        ball = enumerate_hamming_ball(ctx, center, radius)
        while len(ball) < size and radius < ctx.p.bit_length():
            radius += 1
            ball = enumerate_hamming_ball(ctx, center, radius)
        if len(ball) < size:
            # p too small for the ball alone; pad with the least non-members
            members = set(ball)
            pad = (a for a in range(ctx.order) if a not in members)
            ball = ball + list(itertools.islice(pad, size - len(ball)))
        return ball[:size]
    if family == "heightBox":
        if ctx.n < 3:
            raise ValueError("height boxes need n >= 3")
        # a degree-d box holds at most p^(d+1) - 1 distinct elements
        feasible = [d for d in range(2, ctx.n) if ctx.p ** (d + 1) - 1 >= size]
        if not feasible:
            raise ValueError("height box family cannot reach the requested size")
        d = rng.choice(feasible)
        h = 1
        box = enumerate_height_box(ctx, d, h)
        while len(box) < size and h < 4 * ctx.p:
            h += 1
            box = enumerate_height_box(ctx, d, h)
        if len(box) < size:
            raise ValueError("height box family cannot reach the requested size")
        start = rng.randrange(max(1, len(box) - size + 1))
        return box[start : start + size]
    raise ValueError(f"unknown family {family!r}")


def threshold_experiment(
    ctx: FieldCtx,
    family: str,
    epsilon: float,
    trials: int,
    seed: int,
    multiplier: float = 1.0,
) -> dict:
    """Hit statistics for seeded nonstructured subsets at the threshold size.

    Returns per-trial rows (trial, size, hit, witnessCount), the hit
    fraction, witness-count extremes, and the smallest power-of-two size that
    hit on every trial in a doubling search.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    size = threshold_size(ctx, epsilon, multiplier)
    rows = []
    witness_counts = []
    for trial in range(trials):
        rng = rng_for(seed, "threshold", ctx.spec_string(), family, trial)
        subset = _draw_subset(ctx, family, size, rng)
        structured, _ = is_structured(ctx, subset)
        attempts = 0
        while structured and attempts < 16:
            subset = _draw_subset(ctx, family, size, rng)
            structured, _ = is_structured(ctx, subset)
            attempts += 1
        count = sum(1 for a in subset if a and ctx.is_primitive_normal(a))
        witness_counts.append(count)
        rows.append({"trial": trial, "size": len(subset), "hit": count > 0, "witnessCount": count})
    hits = sum(1 for r in rows if r["hit"])
    always_hit_size = None
    s = 1
    while s < ctx.order:
        all_hit = True
        for trial in range(trials):
            rng = rng_for(seed, "doubling", ctx.spec_string(), family, s, trial)
            subset = _draw_subset(ctx, family, min(s, ctx.order - 1), rng)
            if not any(a and ctx.is_primitive_normal(a) for a in subset):
                all_hit = False
                break
        if all_hit:
            always_hit_size = s
            break
        s *= 2
    return {
        "schema": "pnfield/1",
        "kind": "threshold-experiment",
        "field": ctx.spec_string(),
        "family": family,
        "epsilon": epsilon,
        "trials": trials,
        "thresholdSize": size,
        "rows": rows,
        "hitFraction": hits / trials,
        "minWitnessCount": min(witness_counts),
        "meanWitnessCount": sum(witness_counts) / trials,
        "alwaysHitSize": always_hit_size,
    }


def experiment_to_csv(report: dict) -> str:
    """Per-trial rows in the fixed column order trial,size,hit,witnessCount."""
    lines = ["trial,size,hit,witnessCount"]
    for row in report["rows"]:
        lines.append(f"{row['trial']},{row['size']},{row['hit']},{row['witnessCount']}")
    return "\n".join(lines) + "\n"
