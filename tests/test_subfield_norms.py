"""is_primitive on the polynomial path through subfield norms: for each prime
r of q^n - 1, α^((q^n-1)/r) = N(α^((q^d-1)/r)) with d = ord_r(q) and N the
norm from F_{q^n} to F_{q^d}.  Checked against the multiplicative order on
every element of small fields, against the ladder oracle on seeded samples
of larger ones, in value and in op_count charge, and the plan's d against
sympy."""

import importlib.util
import random
from pathlib import Path

import pytest

from bruteforce import power_by_ladder
from pnfield.field import build_field
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
    n_order = pytest.importorskip("sympy.ntheory").n_order
    ctx = build_field(*spec)
    plan = ctx._primitive_plan()
    assert [r for r, _, _ in plan] == ctx.mult_factorization.primes()
    for r, d, e in plan:
        assert d == n_order(ctx.q, r), r
        assert ctx.n % d == 0 and e * r == ctx.q**d - 1, r


def test_multiplicative_order_does_not_take_the_norm_route():
    # the order stays on the plain Horner power, the oracle the norm route
    # is checked against
    ctx = build_field(2, 1, 40)

    def refuse(beta, d):
        raise AssertionError("multiplicative_order took a subfield norm")

    ctx._subfield_norm = refuse
    order = ctx.multiplicative_order(3)
    assert power_by_ladder(ctx, 3, order) == 1
    with pytest.raises(AssertionError):
        ctx.is_primitive(3)
