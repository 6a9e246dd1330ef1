"""Metrics, subset families, structure detection, and the subset search."""

import json
import math
import random
import time

import pytest

import bruteforce as bf
from pnfield import subsets as sb
from pnfield.field import get_field


def test_hamming_weight_examples():
    assert bf.hamming_weight(()) == 0
    assert bf.hamming_weight((1, 1, 0, 1)) == 3  # x³ + x + 1
    assert bf.hamming_weight((0, 0, 0, 0, 0, 1)) == 1  # x⁵


def test_height_examples():
    f19 = get_field(19, 1, 3)
    # x² - x + 1 over F_19: centered representatives 1, -1, 1
    assert bf.height(f19, (1, 18, 1)) == 1
    f7 = get_field(7, 1, 2)
    # 3x + 5: centered 5 -> -2, 3 -> 3
    assert bf.height(f7, (5, 3)) == 3
    assert bf.height(f7, ()) == 0


def test_hamming_ball_examples():
    f23 = get_field(23, 1, 2)
    ball = sb.enumerate_hamming_ball(f23, 0, 0)
    assert ball == [0]
    ball = sb.enumerate_hamming_ball(f23, 0, 1)
    assert ball == [0, 1, 2, 4, 8, 16]  # weight-1 values below 23, plus the center
    ball = sb.enumerate_hamming_ball(f23, 0, 5)
    assert len(ball) == 23  # every c < 23 has at most 5 one-bits
    center = f23.parse_element("3,1")
    shifted = sb.enumerate_hamming_ball(f23, center, 1)
    assert len(shifted) == 6 and center in shifted


def test_height_box_examples():
    f19 = get_field(19, 1, 3)
    box = sb.enumerate_height_box(f19, 2, 1)
    assert len(box) == 26  # the ±x²±x±1 family: 3³ - 1 signed tuples
    f3 = get_field(3, 1, 3)
    box3 = sb.enumerate_height_box(f3, 2, 1)
    # over F_3 the residues of {-1, 0, 1} stay distinct, so all 26 survive
    assert len(box3) == 26
    f2 = get_field(2, 1, 8)
    box2 = sb.enumerate_height_box(f2, 2, 1)
    assert len(box2) == 7  # ±1 collapse mod 2
    # gcd constraint: (2, 0, 0) is excluded for H = 2
    f19b = sb.enumerate_height_box(f19, 2, 2)
    two = f19.parse_element("2")
    assert two not in f19b
    with pytest.raises(ValueError):
        sb.enumerate_height_box(f19, 3, 1)  # d >= n


def test_is_structured_examples():
    f16 = get_field(2, 1, 4)
    subfield = [a for a in range(16) if f16.pow(a, 4) == a]
    assert sb.is_structured(f16, subfield) == (True, "subfield")
    f19 = get_field(19, 1, 3)
    box = sb.enumerate_height_box(f19, 2, 1)
    assert sb.is_structured(f19, box)[0] is False
    f4 = get_field(2, 1, 2)
    assert sb.is_structured(f4, [2])[0] is False  # singleton, 0 missing
    f5 = get_field(5, 1, 2)
    assert sb.is_structured(f5, [3])[0] is False
    # an F_p-line through a nonzero element is a structured subspace
    line = sorted({f4.mul(f4.embed_base(c), 2) for c in range(2)})
    assert sb.is_structured(f4, line) == (True, "subspace")
    # a punctured subspace of size >= 2 dodges the search and is structured
    f1024 = get_field(2, 1, 10)
    box2 = sb.enumerate_height_box(f1024, 3, 1)  # 4-dim F_2-subspace minus 0
    assert len(box2) == 15
    assert sb.is_structured(f1024, box2) == (True, "subspace")
    # the punctured prime subfield of an odd-characteristic field likewise
    f25 = get_field(5, 1, 2)
    assert sb.is_structured(f25, [1, 2, 3, 4]) == (True, "subspace")
    with pytest.raises(ValueError):
        sb.is_structured(f4, [])


def _span(ctx, gens) -> set:
    span = {0}
    for g in gens:
        span = {ctx.add(s, ctx.mul(ctx.embed_base(c), g)) for s in span for c in range(ctx.p)}
    return span


@pytest.mark.parametrize("spec", [(2, 1, 10), (2, 2, 5), (3, 1, 6), (5, 1, 4), (13, 1, 2), (2, 1, 4)], ids=str)
def test_is_structured_matches_the_closure_oracle(spec):
    # seeded subsets, spans of seeded generators (punctured, with 0, and
    # with one element dropped or added), and the subfields, against the
    # pair-by-pair closure of tests/bruteforce.py
    ctx = get_field(*spec)
    rng = random.Random(spec[0] * 100 + spec[2])
    cases = [[a] for a in (0, 1, ctx.order - 1)]
    cases += [rng.sample(range(ctx.order), rng.randrange(1, min(ctx.order, 40))) for _ in range(30)]
    for _ in range(20):
        span = _span(ctx, rng.sample(range(1, ctx.order), rng.randrange(1, 4)))
        outside = next(a for a in range(ctx.order) if a not in span) if len(span) < ctx.order else None
        cases += [sorted(span), sorted(span - {0}), sorted(span - {max(span)})]
        cases += [sorted(span | {outside})] if outside is not None else []
    for d in range(1, ctx.n + 1):
        if ctx.n % d == 0:
            cases.append([a for a in range(ctx.order) if ctx.pow(a, ctx.q**d) == a])
    for elems in cases:
        assert sb.is_structured(ctx, elems) == bf.structured_by_closure(ctx, elems), elems


def test_is_structured_on_a_large_subspace_within_seconds():
    # the 3^10 - 1 nonzero elements with support on x^0..x^9 in F_{3^12}, a
    # punctured subspace, and the same set with one element moved outside
    ctx = get_field(3, 1, 12)
    box = list(range(1, 3**10))
    start = time.perf_counter()
    assert sb.is_structured(ctx, box) == (True, "subspace")
    assert sb.is_structured(ctx, box[:-1] + [3**10]) == (False, None)
    assert time.perf_counter() - start < 10


def test_search_primitive_normal_examples():
    f4 = get_field(2, 1, 2)
    rep = sb.search_primitive_normal(f4, sb.SubsetSpec(kind="explicit", elements=(2,)))
    assert rep.hit and rep.witnesses == (2,)
    rep = sb.search_primitive_normal(f4, sb.SubsetSpec(kind="explicit", elements=(0, 1)))
    assert not rep.hit and rep.witnesses == ()
    f256 = get_field(2, 1, 8)
    spec = sb.SubsetSpec(kind="hammingBall", center=17, radius=3)
    rep = sb.search_primitive_normal(f256, spec)
    assert rep.subset_size == 2  # F_p = F_2 saturates: c in {0, 1}
    assert rep.op_count > 0
    for w in rep.witnesses:
        assert f256.is_primitive_normal(w)


def test_search_witnesses_all_valid():
    f64 = get_field(2, 1, 6)
    spec = sb.SubsetSpec(kind="explicit", elements=tuple(range(64)))
    rep = sb.search_primitive_normal(f64, spec)
    expected = {a for a in range(1, 64) if f64.is_primitive_normal(a)}
    assert set(rep.witnesses) == expected
    assert rep.hit


def test_threshold_size():
    f4 = get_field(2, 1, 2)
    # log 4·(loglog 4)^1.1 < 1 clamps to 1
    assert sb.threshold_size(f4, 0.1) == 1
    f256 = get_field(2, 1, 8)
    expected = math.ceil(math.log(256) * math.log(math.log(256)) ** 1.1)
    assert sb.threshold_size(f256, 0.1) == expected


def test_threshold_needs_q_to_the_n_at_least_3():
    f2 = get_field(2, 1, 1)
    for call in (lambda: sb.threshold_size(f2, 0.1),
                 lambda: sb.threshold_experiment(f2, "uniform", 0.1, 1, seed=1),
                 lambda: sb.search_primitive_normal(f2, sb.SubsetSpec(kind="explicit", elements=(1,)))):
        with pytest.raises(ValueError, match=r"field 2\^1:1: the threshold needs q\^n ≥ 3"):
            call()
    f3 = get_field(3, 1, 1)
    assert sb.threshold_size(f3, 0.1) == 1
    assert sb.search_primitive_normal(f3, sb.SubsetSpec(kind="explicit", elements=(1, 2))).witnesses == (2,)


def test_threshold_experiment():
    f16 = get_field(2, 1, 4)
    with pytest.raises(ValueError):
        sb.threshold_experiment(f16, "uniform", 0.1, 0, seed=1)
    rep = sb.threshold_experiment(f16, "uniform", 0.1, 20, seed=1)
    assert rep["trials"] == 20
    assert len(rep["rows"]) == 20
    assert 0 <= rep["hitFraction"] <= 1
    assert rep["alwaysHitSize"] is None or rep["alwaysHitSize"] >= 1
    for row in rep["rows"]:
        assert row["size"] == rep["thresholdSize"]
    # determinism: identical seed, identical report
    rep2 = sb.threshold_experiment(f16, "uniform", 0.1, 20, seed=1)
    assert rep == rep2
    rep3 = sb.threshold_experiment(f16, "hammingBall", 0.1, 5, seed=2)
    assert len(rep3["rows"]) == 5
    csv_text = sb.experiment_to_csv(rep)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "trial,size,hit,witnessCount"
    assert len(lines) == 21


def _hamming_draw_before_lazy_pad(ctx, size, rng):
    """The hammingBall draw as it was written with an eager pad list."""
    center = rng.randrange(ctx.order)
    radius = 0
    ball = sb.enumerate_hamming_ball(ctx, center, radius)
    while len(ball) < size and radius < ctx.p.bit_length():
        radius += 1
        ball = sb.enumerate_hamming_ball(ctx, center, radius)
    if len(ball) < size:
        pad = [a for a in range(ctx.order) if a not in set(ball)]
        ball = ball + pad[: size - len(ball)]
    return ball[:size]


def test_hamming_ball_draws_unchanged_by_lazy_pad():
    for p, k, n in [(2, 1, 6), (3, 1, 4), (5, 1, 3), (2, 2, 3)]:
        ctx = get_field(p, k, n)
        for size in (1, 2, 3, 7, 20, ctx.order - 1):
            for seed in range(5):
                new = sb._draw_subset(ctx, "hammingBall", size, random.Random(seed))
                old = _hamming_draw_before_lazy_pad(ctx, size, random.Random(seed))
                assert new == old


def test_hamming_ball_threshold_experiment_on_a_large_field_is_fast():
    ctx = get_field(2, 1, 40)
    start = time.perf_counter()
    sb.threshold_experiment(ctx, "hammingBall", 0.1, 1, 1)
    assert time.perf_counter() - start < 1.0


def test_materialize_errors():
    from pnfield.errors import ResourceLimitError

    f4 = get_field(2, 1, 2)
    with pytest.raises(ValueError):
        sb.materialize(f4, sb.SubsetSpec(kind="explicit", elements=(99,)))
    with pytest.raises(ResourceLimitError):
        sb.materialize(f4, sb.SubsetSpec(kind="explicit", elements=(0, 1, 2)), budget=2)
    with pytest.raises(ValueError):
        sb.enumerate_hamming_ball(f4, 0, -1)


def _spec_json(spec) -> str:
    """The JSON object of a subset spec, with the keys from_json reads."""
    if spec.kind == "hammingBall":
        return json.dumps({"kind": spec.kind, "center": spec.center, "H": spec.radius})
    if spec.kind == "heightBox":
        return json.dumps({"kind": spec.kind, "d": spec.degree, "H": spec.height})
    return json.dumps({"kind": spec.kind, "elements": list(spec.elements)})


def test_subset_spec_json_roundtrip():
    spec = sb.SubsetSpec.from_json('{"kind":"heightBox","d":2,"H":1}')
    assert spec.kind == "heightBox" and spec.degree == 2 and spec.height == 1
    for spec in (spec, sb.SubsetSpec(kind="hammingBall", center=3, radius=1),
                 sb.SubsetSpec(kind="explicit", elements=(1, 2))):
        assert sb.SubsetSpec.from_json(_spec_json(spec)) == spec
    f4 = get_field(2, 1, 2)
    spec3 = sb.SubsetSpec.from_json('{"kind":"explicit","elements":["0,1","1,1"]}', f4)
    assert spec3.elements == (2, 3)
    ball = sb.SubsetSpec.from_json('{"kind":"hammingBall","center":"1,0","H":1}', f4)
    assert ball.center == 1 and ball.radius == 1


def _packed_sub(fq, f, g):
    """f - g by the packed ring of F_q[x]."""
    from pnfield.polyfq import _packed

    ring = _packed(fq)
    return ring.unpack(ring.sub(ring.pack(f), ring.pack(g)))


def test_metric_axioms_exhaustive_tiny():
    from pnfield.polyfq import poly_trim

    for ctx in (get_field(3, 1, 2), get_field(2, 2, 2)):
        polys = [poly_trim((a, b)) for a in range(ctx.q) for b in range(ctx.q)]
        for r in polys:
            for s in polys:
                # the count of differing coefficients is the weight of s - r
                assert (sb.poly_distance_weight(ctx, r, s)
                        == bf.hamming_weight(_packed_sub(ctx.fq, s, r)))
        for dist in (sb.poly_distance_weight, sb.poly_distance_height):
            for r in polys:
                for s in polys:
                    d = dist(ctx, r, s)
                    assert d >= 0
                    assert (d == 0) == (r == s)
                    assert d == dist(ctx, s, r)
                    for u in polys:
                        assert dist(ctx, r, u) <= dist(ctx, r, s) + dist(ctx, s, u)


@pytest.mark.parametrize("spec", [(2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2), (3, 2, 2)], ids=str)
def test_height_distance_matches_packed_difference(spec):
    # every pair of polynomials of degree < n, against the height of the
    # packed difference s - r
    from pnfield.polyfq import poly_trim

    ctx = get_field(*spec)
    polys = [poly_trim(ctx.decode(a)) for a in range(ctx.order)]
    for r in polys:
        for s in polys:
            assert sb.poly_distance_height(ctx, r, s) == bf.height(ctx, _packed_sub(ctx.fq, s, r)), (r, s)
