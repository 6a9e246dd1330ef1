"""Exhaustive counts, density sweeps, and the polynomial-totient lower bounds."""

import pytest

import bruteforce as bf
from pnfield import counting as ct
from pnfield.errors import ResourceLimitError
from pnfield.field import get_field
from pnfield.numtheory import divisors, euler_phi
from pnfield.polyfq import x_pow_n_minus_1


def test_exact_counts_examples():
    rec = ct.exact_counts(get_field(2, 1, 2))
    assert (rec.num_primitive, rec.num_normal, rec.num_primitive_normal) == (2, 2, 2)
    assert rec.delta == pytest.approx(2.0)
    rec = ct.exact_counts(get_field(2, 1, 3))
    assert (rec.num_primitive, rec.num_normal, rec.num_primitive_normal) == (6, 3, 3)
    rec = ct.exact_counts(get_field(2, 1, 1))
    assert (rec.num_primitive, rec.num_normal) == (1, 1)


def test_exact_counts_budget():
    with pytest.raises(ResourceLimitError):
        ct.exact_counts(get_field(2, 1, 8), budget=100)


def test_order_censuses():
    for p, k, n in [(2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2), (5, 1, 2)]:
        ctx = get_field(p, k, n)
        m = ctx.order - 1
        census = ct.multiplicative_order_census(ctx)
        assert sum(census.values()) == m
        for d in divisors(m):
            assert census.get(d, 0) == euler_phi(d)
        acensus = bf.additive_order_census(ctx)
        assert sum(acensus.values()) == ctx.order
        full = x_pow_n_minus_1(ctx.fq, n)
        from pnfield.polyfq import poly_phi

        assert acensus[full] == poly_phi(ctx.add_factorization)


def test_pn_exists_small_fields():
    for p, k, n in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2)]:
        rec = ct.exact_counts(get_field(p, k, n))
        assert rec.num_primitive_normal > 0


def test_phi_poly_lower_bound_examples():
    rep = ct.phi_poly_lower_bound_check(3, 2)
    assert rep.ratio == pytest.approx(4 / 8)
    assert rep.log_bound_ok
    rep = ct.phi_poly_lower_bound_check(2, 2)
    assert rep.ratio == pytest.approx(2 / 3)
    assert rep.log_bound_ok
    assert rep.loglog_bound_ok is None  # q < 8
    rep = ct.phi_poly_lower_bound_check(8, 7)
    # 7 | 8 - 1: x^7 - 1 splits into linears, ratio = (1 - 1/8)^7·q^n/(q^n-1)
    expected = (1 - 1 / 8) ** 7 * 8**7 / (8**7 - 1)
    assert rep.ratio == pytest.approx(expected)
    assert rep.log_bound_ok and rep.loglog_bound_ok
    assert rep.prob_expansion_residual is not None
    with pytest.raises(ValueError):
        ct.phi_poly_lower_bound_check(2, 1)


def test_density_sweep_grid():
    specs = []
    for q, p, k in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        for n in (2, 3, 4):
            specs.append((p, k, n))
    records = ct.density_sweep(specs)
    assert len(records) == 12
    csv_text = ct.sweep_to_csv(records)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "q,k,n,numPrimitive,numNormal,numPN,predicted,delta"
    assert len(lines) == 13
    # the F_4 row: delta = 2 / ((2·2)/4) = 2
    f4_row = [ln for ln in lines if ln.startswith("2,1,2,")][0]
    assert f4_row == "2,1,2,2,2,2,1.0,2.0"


def test_density_sweep_empty():
    records = ct.density_sweep([])
    csv_text = ct.sweep_to_csv(records)
    assert csv_text == "q,k,n,numPrimitive,numNormal,numPN,predicted,delta\n"


def test_sweep_json_mirror():
    import json

    records = ct.density_sweep([(2, 1, 2), (2, 1, 3)])
    payload = json.loads(ct.sweep_to_json(records))
    assert payload["schema"] == "pnfield/1"
    assert payload["rows"][0]["numPN"] == 2
    assert "densityQ2n" in payload["rows"][0]


def test_marginals_enforced():
    # exact_counts recomputes and compares against φ and Φ internally;
    # a successful return implies the equalities held
    for p, k, n in [(3, 1, 3), (2, 1, 5), (2, 2, 3)]:
        rec = ct.exact_counts(get_field(p, k, n))
        assert rec.num_primitive == euler_phi((p**k) ** n - 1)
