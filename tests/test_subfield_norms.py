"""is_primitive on the polynomial path through subfield norms: for each prime
r of q^n - 1, α^((q^n-1)/r) = N(α)^((q^d-1)/r) with d = ord_r(q) and N the
norm from F_{q^n} to F_{q^d}, taken along one chain of norms through the
subfields, and tested as a Frobenius fixed point where that is cheaper.
Checked against the multiplicative order on every element of small fields,
against the ladder oracle on seeded samples of larger ones, in value and in
op_count charge, each prime's test on its own against the ladder, and the
plan's d, steps and exponents against sympy and exact integers."""

import importlib.util
import math
import random
from pathlib import Path

import pytest

from bruteforce import power_by_ladder
from pnfield.field import _horner_work, build_field
from test_field import BASE_Q_FIELDS, LARGE_Q_FIELDS

_BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pn.py"
_spec = importlib.util.spec_from_file_location("bench_pn", _BENCH)
bench_pn = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pn)

# every element: both characteristics, k = 1 and 2, and d = 1 (r | q - 1)
# next to d = n and the divisors between
SMALL_FIELDS = [(2, 1, 12), (3, 1, 7), (2, 2, 6), (5, 1, 5), (3, 2, 4), (7, 1, 4)]
SAMPLED_FIELDS = sorted(set(BASE_Q_FIELDS + LARGE_Q_FIELDS) | set(bench_pn.FIELDS))


def _charged(ctx, fn, a):
    before = ctx.op_count
    value = fn(a)
    return value, ctx.op_count - before


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=str)
def test_is_primitive_matches_the_order_on_every_element(spec):
    # α^(m/r) = 1 exactly when ord(α) | m/r; the charge is one per prime up
    # to the first such r, or one per prime when there is none
    ctx = build_field(*spec)
    assert ctx._log is None
    m, primes = ctx.order - 1, ctx.mult_factorization.primes()
    for a in range(1, ctx.order):
        order = ctx.multiplicative_order(a)
        ones = [(m // r) % order == 0 for r in primes]
        got, charge = _charged(ctx, ctx.is_primitive, a)
        assert got == (order == m), a
        assert charge == (ones.index(True) + 1 if True in ones else len(primes)), a
    assert ctx._log is None


@pytest.mark.parametrize("spec", SAMPLED_FIELDS, ids=str)
def test_is_primitive_matches_the_ladder_on_seeded_samples(spec):
    ctx = build_field(*spec)
    m = ctx.order - 1
    rng = random.Random(21)
    elements = [1, m] + rng.sample(range(2, ctx.order), min(m - 1, 4))
    for a in elements:
        ones = [power_by_ladder(ctx, a, m // r) == 1 for r in ctx.mult_factorization.primes()]
        want = (not any(ones), ones.index(True) + 1 if True in ones else len(ones))
        assert _charged(ctx, ctx.is_primitive, a) == want, a


@pytest.mark.parametrize("spec", SAMPLED_FIELDS + SMALL_FIELDS, ids=str)
def test_primitive_plan_matches_sympy(spec):
    sympy_nt = pytest.importorskip("sympy.ntheory")
    n_order, isprime = sympy_nt.n_order, sympy_nt.isprime
    ctx = build_field(*spec)
    q, n = ctx.q, ctx.n
    plan = ctx._primitive_plan()
    assert [r for r, *_ in plan] == ctx.mult_factorization.primes()
    reached = {n}
    for r, d, steps, j, e in plan:
        assert d == n_order(q, r), r
        assert n % d == 0, r
        for c, b in steps:
            # each step runs from a degree already reached to c/ℓ, ℓ prime, still a multiple of d
            assert c in reached and c % b == 0 and isprime(c // b) and b % d == 0, (r, c, b)
            reached.add(b)
        assert d in reached, r
        if j:
            assert d % j == 0 and isprime(d // j), r
            assert math.gcd(r, q**j - 1) == 1, r
            assert e * (q**j - 1) * r == q**d - 1, r
        else:
            assert e * r == q**d - 1, r


@pytest.mark.parametrize("spec", SAMPLED_FIELDS + SMALL_FIELDS, ids=str)
def test_each_prime_test_alone_matches_the_ladder(spec):
    # every entry of the plan, plain power or Frobenius fixed point, without
    # the stop at the first power equal to 1, against α^((q^n-1)/r) by the ladder
    ctx = build_field(*spec)
    assert ctx._log is None
    m, plan = ctx.order - 1, ctx._primitive_plan()
    rng = random.Random(29)
    for a in [1, m] + rng.sample(range(2, ctx.order), min(m - 1, 4)):
        norms, powers = {ctx.n: ctx._to_layout(a)}, {}
        for entry in plan:
            r = entry[0]
            assert ctx._is_one(entry, norms, powers) == (power_by_ladder(ctx, a, m // r) == 1), (a, entry)


def test_plan_grid_has_an_odd_prime_and_a_chained_base_norm():
    # 5^1:10 tests r = 11 by a fixed point with d = 5, an odd ℓ; 2^4:8 reaches
    # its norm to F_q through F_{q^4} and F_{q^2}
    grid = set(SAMPLED_FIELDS + SMALL_FIELDS)
    assert {(5, 1, 10), (2, 4, 8)} <= grid
    plan = {r: rest for r, *rest in build_field(5, 1, 10)._primitive_plan()}
    assert plan[11][0] == 5 and plan[11][2] == 1
    steps = build_field(2, 4, 8)._primitive_plan()[0][2]
    assert steps == ((8, 4), (4, 2), (2, 1))


def test_multiplicative_order_does_not_take_the_norm_route():
    # the order stays on the plain Horner power, the oracle the norm route
    # is checked against
    ctx = build_field(2, 1, 40)

    def refuse(beta, d, c):
        raise AssertionError("multiplicative_order took a subfield norm")

    ctx._subfield_norm = refuse
    order = ctx.multiplicative_order(3)
    assert power_by_ladder(ctx, 3, order) == 1
    with pytest.raises(AssertionError):
        ctx.is_primitive(3)


@pytest.mark.parametrize("spec", [(2, 1, 40), (2, 4, 8), (3, 2, 19), (7, 1, 22)], ids=str)
def test_horner_work_counts_the_products_and_maps_of_a_power(spec):
    # the plan's cost of a power: two per product, one per map, and the
    # digit powers that _digit_power adds, against the calls _pow_poly makes
    ctx = build_field(*spec)
    rng = random.Random(5)
    ctx._step  # built on first use, outside the counts
    powers, built = {1: ctx._to_layout(rng.randrange(2, ctx.order))}, {1}
    calls = {"_product": 0, "_fold": 0}
    for name in calls:
        def counted(*args, _fn=getattr(ctx, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        setattr(ctx, name, counted)
    for e in [1, 2, ctx.q - 1, ctx._digit_base] + [rng.randrange(1, ctx.order) for _ in range(6)]:
        work, new = _horner_work(e, ctx._digit_base, built)
        calls.update(_product=0, _fold=0)
        ctx._pow_poly(powers, e)
        assert work == calls["_product"] + calls["_fold"], e  # a product makes one fold
        assert set(powers) == built | new, e
        built |= new
