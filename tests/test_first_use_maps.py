"""The maps FieldCtx builds on first use: the cofactor maps through the trace
to the p'-subfield, the module maps read off Frobenius orbits, the absolute
trace, the bases of the images of the divisors and the fold of a raw product,
against the Horner form apply_linearized and powering; the conjecture rows of
home fields over a user F_q; and the per-element witness of the
order-censuses claim."""

import random

import pytest

from pnfield import claims
from pnfield.claims import ASSERTED_PASS, FAIL, enumerate_field_specs
from pnfield.field import _pack, build_field, parse_field_spec
from pnfield.polyfq import _split_p_part, factor_x_n_minus_1, poly_divmod, poly_mul, x_pow_n_minus_1

from bruteforce import first_root_by_scan, trace_by_powering
from test_cli import run_cli
from test_field import LARGE_Q_FIELDS, POLY_PATH_FIELDS


def _table_path(spec):
    ctx = build_field(*spec)
    ctx.ensure_tables()
    return ctx


# the polynomial path, q > 16, the table path, n = 1, and p | n with k > 1
COFACTOR_FIELDS = (POLY_PATH_FIELDS + [build_field(*spec) for spec in LARGE_Q_FIELDS]
                   + [_table_path(spec) for spec in ((2, 1, 4), (3, 1, 3), (2, 2, 2))]
                   + [build_field(*spec) for spec in ((2, 1, 1), (5, 1, 1), (3, 2, 6), (2, 2, 6), (2, 3, 4))])


@pytest.mark.parametrize("ctx", COFACTOR_FIELDS, ids=repr)
def test_cofactor_map_columns_equal_horner(ctx):
    p, W, fact = ctx.p, ctx._W, ctx.add_factorization
    for cof in ctx._cofactors:
        d = fact.divisor(cof)
        want = [_pack(ctx.apply_linearized(d, p**e), p, W) for e in range(ctx.k * ctx.n)]
        assert ctx._columns(ctx._divisor_map(cof)) == want, (ctx, cof)


def test_cofactor_is_the_trace_times_a_lower_polynomial():
    # (x^n - 1)/r = (F/r)·Σ_{j < p^e} x^(cj), F = x^c - 1, n = c·p^e, p ∤ c
    for p, k, n in enumerate_field_specs(4, 2**16):
        fact = factor_x_n_minus_1(p**k, n)
        c, e = _split_p_part(n, p)
        fq, big_f = fact.fq, x_pow_n_minus_1(fact.fq, c)
        trace = tuple(int(i % c == 0) for i in range(c * (p**e - 1) + 1))
        top = fact.exponents()
        for i, (r, _) in enumerate(fact.entries):
            g, rem = poly_divmod(fq, big_f, r)
            assert not rem
            assert fact.divisor(top[:i] + (top[i] - 1,) + top[i + 1:]) == poly_mul(fq, g, trace), (p, k, n, r)


# the polynomial path for p = 2 with k = 1 and k > 1, odd p with p | n and
# p ∤ n, and a user F_9
TRACE_FIELDS = [pytest.param((2, 1, 40), None, id="2^1:40"), pytest.param((2, 4, 8), None, id="2^4:8"),
                pytest.param((3, 1, 30), None, id="3^1:30"), pytest.param((7, 1, 8), None, id="7^1:8"),
                pytest.param((3, 2, 2), (2, 1, 1), id="3^2:2:2,1,1")]


@pytest.mark.parametrize("spec,base", TRACE_FIELDS)
def test_trace_equals_the_sum_of_powers(spec, base):
    ctx = build_field(*spec, base_modulus=base)
    for a in random.Random(32).sample(range(ctx.order), 64):
        assert ctx.trace(a) == trace_by_powering(ctx, a), a


@pytest.mark.parametrize("spec,base", TRACE_FIELDS)
def test_first_trace_is_uncounted(spec, base):
    # the map is built from the orbit of the trace to F_q, which charges
    # nothing; only the powers it stands for would
    ctx = build_field(*spec, base_modulus=base)
    ctx.trace(ctx.order - 1)
    assert ctx.op_count == 0


@pytest.mark.parametrize("spec", enumerate_field_specs(4, 2**12), ids=lambda s: "%d^%d:%d" % s)
def test_image_basis_spans_the_kernel_of_the_cofactor(spec):
    # d∘F is the kernel of ((x^n - 1)/d)∘, of F_p-dimension k·(n - deg d)
    ctx = build_field(*spec)
    fact, top = ctx.add_factorization, ctx.add_factorization.exponents()
    for exps in fact.exponent_vectors():
        before = ctx.op_count
        basis = ctx.image_basis(exps)
        assert ctx.op_count == before
        assert len(basis) == ctx.k * (ctx.n - fact.degree(exps)) and all(ctx.independent(basis))
        cofactor = fact.divisor(tuple(e - j for e, j in zip(top, exps)))
        assert all(ctx.apply_linearized(cofactor, b) == 0 for b in basis), exps


# homes over a user F_q: F_9 with y^2 + y + 2, F_8 with y^3 + y^2 + 1, and
# F_16 with y^4 + y^3 + 1 and a user extension modulus
USER_BASE_HOMES = [("3^2:2:2,1,1", "2..4"), ("2^3:2:1,0,1,1", "2..4"), ("2^4:1:1,0,0,1,1:3,1", "1..3")]


@pytest.mark.parametrize("field,rng", USER_BASE_HOMES)
def test_conjecture_rows_over_the_home_base_field(field, rng):
    from pnfield.cli import _check_conjecture_hypotheses, _minimal_polynomial

    home = parse_field_spec(field)
    lo, hi = map(int, rng.split(".."))
    checked = 0
    for a in range(home.order):
        try:
            _check_conjecture_hypotheses(home, a)
        except ValueError:
            continue
        code, out = run_cli(["conjecture", "--field", field, "--element", home.format_element(a), "--range", rng])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        min_poly, _ = _minimal_polynomial(home, a)
        for n, row in zip(range(lo, hi + 1), rows):
            if row[1] != "True":
                continue
            if n == home.n:
                assert row[2:4] == [str(home.is_primitive(a)), str(home.is_normal(a))], (field, a, n)
                continue
            target = build_field(home.p, home.k, n, base_modulus=home.base_modulus)
            root = first_root_by_scan(target, min_poly)
            before = target.op_count
            prim, norm = target.is_primitive(root), target.is_normal(root)
            want = [str(prim), str(norm), str(prim and norm), str(target.op_count - before)]
            assert row[2:] == want, (field, a, n)
            checked += 1
    assert checked > 0


def _corrupt(ctx, how):
    m = ctx.order - 1
    if how == "shift":
        ctx._log = [0] + [(i + 1) % m for i in ctx._log[1:]]
    elif how == "rotate":
        ctx._log = ctx._log[:1] + ctx._log[2:] + ctx._log[1:2]
    else:  # the tables of another primitive element, τ^u with gcd(u, m) = 1
        u = next(u for u in range(2, m) if all(u % r for r in ctx.mult_factorization.primes()))
        exp = [ctx._exp[i * u % m] for i in range(m)]
        ctx._exp, ctx._log = exp, [0] * ctx.order
        for i, a in enumerate(exp):
            ctx._log[a] = i


@pytest.mark.parametrize("how", ["shift", "rotate", "other-primitive"])
@pytest.mark.parametrize("spec", [(2, 1, 5), (3, 1, 3), (2, 2, 3), (5, 1, 2)], ids=str)
def test_order_censuses_witness_rejects_wrong_logs(spec, how):
    ctx = build_field(*spec)
    ctx.ensure_tables()
    record = claims._Field(ctx, 7)
    assert [r.status for r in claims._order_censuses(record)] == [ASSERTED_PASS]
    before = ctx.op_count
    _corrupt(ctx, how)
    assert [r.status for r in claims._order_censuses(record)] == [FAIL]
    assert ctx.op_count == before
