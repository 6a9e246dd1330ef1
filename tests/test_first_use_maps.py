"""The maps FieldCtx builds on first use: the cofactor maps through the trace
to the p'-subfield, the module maps read off Frobenius orbits and the fold of
a raw product, against the Horner form apply_linearized; the conjecture rows
of home fields over a user F_q; and the per-element witness of the
order-censuses claim."""

import pytest

from pnfield import claims
from pnfield.claims import ASSERTED_PASS, FAIL, enumerate_field_specs
from pnfield.field import _pack, build_field, parse_field_spec
from pnfield.polyfq import _split_p_part, factor_x_n_minus_1, poly_divmod, poly_mul, x_pow_n_minus_1

from bruteforce import first_root_by_scan
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
