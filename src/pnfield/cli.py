"""Command-line surface.

Subcommands: field-info, verify, sweep, search, conjecture.  All randomness
flows from --seed through labelled child streams, so identical invocations
produce byte-identical output files.  The element-count budget comes from
--budget or the PNFIELD_BUDGET environment variable (default 2^24) and is
enforced before any enumeration begins: search is charged for the members of
its subset, the other commands for the fields they walk.  Exact counts, and
so sweep, stop at the 2^20 table cap whatever the budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import claims
from . import counting as ct
from . import subsets as sb
from .errors import DEFAULT_BUDGET, FieldSpecError, ResourceLimitError
from .field import format_field_moduli, get_field, parse_field_spec
from .numtheory import is_prime_power
from .polyfq import cyclotomic_factor_counts, format_poly, poly_eval, poly_phi


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("PNFIELD_BUDGET")
    try:
        return int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise ValueError(f"PNFIELD_BUDGET must be an integer, got {env!r}") from None


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str, default_lo: int | None = None) -> tuple[int, int]:
    """Integer range "LO..HI"; a bare "HI" means default_lo..HI if one is given."""
    lo_s, sep, hi_s = text.strip().partition("..")
    try:
        return (int(lo_s), int(hi_s)) if sep or default_lo is None else (default_lo, int(lo_s))
    except ValueError:
        form = "LO..HI" if default_lo is None else f"LO..HI or HI (meaning {default_lo}..HI)"
        raise FieldSpecError(f"range must be {form}", text=text, position=0) from None


def cmd_field_info(args) -> int:
    ctx = parse_field_spec(args.field)
    base_text, ext_text = format_field_moduli(ctx)
    m = ctx.order - 1
    lines = [
        f"field: F_{ctx.q}^{ctx.n} (p={ctx.p}, k={ctx.k}, n={ctx.n}, order={ctx.order})",
        f"base modulus over F_{ctx.p}: {base_text}",
        f"extension modulus over F_{ctx.q}: {ext_text}",
        f"q^n - 1 = {m} = " + " * ".join(
            f"{b}^{e}" if e > 1 else str(b) for b, e in ctx.mult_factorization.entries
        ) if m > 1 else f"q^n - 1 = {m}",
        "x^n - 1 = " + " * ".join(
            f"({format_poly(ctx.fq, f)})^{e}" if e > 1 else f"({format_poly(ctx.fq, f)})"
            for f, e in ctx.add_factorization.entries
        ),
        f"phi(q^n - 1) = {ctx.mult_factorization.totient}",
        f"Phi_q(x^n - 1) = {poly_phi(ctx.add_factorization)}",
        f"Omega_q(x^n - 1) = {cyclotomic_factor_counts(ctx.q, ctx.n).omega}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    lo, hi = _parse_range(args.range, default_lo=4)
    budget = _budget(args)
    results = claims.run_verify(lo, hi, args.seed, budget=budget)
    if args.format == "json":
        _emit(claims.report_json(results, args.seed), args.out)
    else:
        _emit(claims.format_report(results, args.seed), args.out)
    return 0 if claims.summarize(results)[claims.FAIL] == 0 else 1


def _parse_sweep_range(text: str) -> list[tuple[int, int, int]]:
    """Sweep grid "QLO..QHI,NLO..NHI" over prime powers q and degrees n."""
    try:
        q_part, n_part = text.split(",", 1)
        q_lo, q_hi = (int(x) for x in q_part.split("..", 1))
        n_lo, n_hi = (int(x) for x in n_part.split("..", 1))
    except ValueError:
        raise FieldSpecError("sweep range must be QLO..QHI,NLO..NHI", text=text, position=0)
    specs = []
    for q in range(max(2, q_lo), q_hi + 1):
        try:
            p, k = is_prime_power(q)
        except ValueError:
            continue
        for n in range(max(1, n_lo), n_hi + 1):
            specs.append((p, k, n))
    return specs


def cmd_sweep(args) -> int:
    specs = _parse_sweep_range(args.range)
    records = ct.density_sweep(specs, budget=_budget(args))
    if args.format == "json":
        _emit(ct.sweep_to_json(records), args.out)
    else:
        _emit(ct.sweep_to_csv(records), args.out)
    return 0


def cmd_search(args) -> int:
    ctx = parse_field_spec(args.field)
    budget = _budget(args)  # charged by materialize for the subset's members
    subset_text = args.subset
    if subset_text.startswith("@"):
        with open(subset_text[1:], encoding="utf-8") as fh:
            subset_text = fh.read()
    spec = sb.SubsetSpec.from_json(subset_text, ctx)
    report = sb.search_primitive_normal(ctx, spec, epsilon=args.epsilon,
                                        budget=budget, multiplier=args.multiplier)
    payload = report.json_dict()
    payload["witnessTexts"] = [ctx.format_element(w) for w in report.witnesses]
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_conjecture(args) -> int:
    home = parse_field_spec(args.field)
    alpha = home.parse_element(args.element)
    n_lo, n_hi = _parse_range(args.range)
    budget = _budget(args)
    for n in range(n_lo, n_hi + 1):
        if home.q**n > budget:
            raise ResourceLimitError(f"extension degree {n} exceeds budget {budget}")
    _check_conjecture_hypotheses(home, alpha)
    rows = []
    min_poly, orbit = _minimal_polynomial(home, alpha)
    for n in range(n_lo, n_hi + 1):
        if n % home.n:
            rows.append({"n": n, "present": False, "primitive": None,
                         "normal": None, "primitiveNormal": None, "opCount": None})
            continue
        target = get_field(home.p, home.k, n)
        if target is home:
            # the roots in the home field itself are the Frobenius orbit of α
            root = min(orbit)
        else:
            # the first root in enumeration order, evaluated with the ops of F_{q^n}
            root = next((a for a in target.elements() if poly_eval(target, min_poly, a) == 0), None)
        if root is None:
            raise ValueError("the element does not embed in the target field")
        ops_before = target.op_count
        prim = target.is_primitive(root)
        norm = target.is_normal(root)
        rows.append({
            "n": n,
            "present": True,
            "primitive": prim,
            "normal": norm,
            "primitiveNormal": prim and norm,
            "opCount": target.op_count - ops_before,
        })
    payload = {
        "schema": "pnfield/1",
        "kind": "conjecture",
        "field": home.spec_string(),
        "element": home.format_element(alpha),
        "rows": rows,
    }
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = ["n,present,primitive,normal,primitiveNormal,opCount"]
        for r in rows:
            lines.append(",".join(str(r[c]) for c in
                                  ("n", "present", "primitive", "normal",
                                   "primitiveNormal", "opCount")))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _check_conjecture_hypotheses(ctx, alpha: int):
    """The conjecture's element hypotheses, each violation named."""
    if alpha == 0:
        raise ValueError("conjecture hypothesis violated: α = 0")
    if alpha == ctx.embed_base(1):
        raise ValueError("conjecture hypothesis violated: α = 1")
    if alpha == ctx.neg(ctx.embed_base(1)):
        raise ValueError("conjecture hypothesis violated: α = -1")
    if ctx.p != 2:
        # Euler's criterion.  The tables are built first: the row of the
        # home degree runs on this same cached context, and its opCount
        # depends on them (Frobenius costs no operation on the table path,
        # one on the polynomial path).
        ctx.ensure_tables()
        if ctx.pow(alpha, (ctx.order - 1) // 2) == 1:
            raise ValueError("conjecture hypothesis violated: α is a square")
    if ctx.trace(alpha) == 0:
        raise ValueError("conjecture hypothesis violated: tr(α) = 0")
    for d in range(1, ctx.n):
        if ctx.n % d == 0 and ctx.pow(alpha, ctx.q**d) == alpha:
            raise ValueError("conjecture hypothesis violated: α lies in a proper subfield")


def _minimal_polynomial(ctx, alpha: int):
    """Π (x - α^(q^i)) over the Frobenius orbit, coefficients in F_q, and the
    orbit itself."""
    orbit = []
    cur = alpha
    while cur not in orbit:
        orbit.append(cur)
        cur = ctx.frobenius(cur, 1)
    poly = [1]
    for root in orbit:
        # poly·(x - root): coefficient i is poly[i - 1] - root·poly[i]
        neg = ctx.neg(root)
        poly = [ctx.add(hi, ctx.mul(neg, lo)) for hi, lo in zip([0] + poly, poly + [0])]
    if any(c >= ctx.q for c in poly):  # a nonzero coordinate above the constant one
        raise ValueError("minimal polynomial has coefficients outside F_q")
    return tuple(poly), orbit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnfield",
        description="primitive/normal element machinery for finite field extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=False, rng=None):
        if field:
            p.add_argument("--field", required=True, help="field spec p^k:n[:basePoly][:extPoly]")
        if rng:
            p.add_argument("--range", required=True, help=rng)
        p.add_argument("--epsilon", type=float, default=0.1)
        p.add_argument("--multiplier", type=float, default=1.0,
                       help="threshold-size constant override (default 1)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--budget", type=int, default=None,
                       help="element-count cap (default PNFIELD_BUDGET or 2^24)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json", "text"), default="text")

    p_info = sub.add_parser("field-info", help="print field parameters and totients")
    common(p_info, field=True)
    p_info.set_defaults(func=cmd_field_info)

    p_verify = sub.add_parser("verify", help="run the claim-verification suite")
    common(p_verify, rng="order range LO..HI on q^n")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="density sweep over a (q, n) grid")
    common(p_sweep, rng="grid QLO..QHI,NLO..NHI")
    p_sweep.set_defaults(func=cmd_sweep)

    p_search = sub.add_parser("search", help="scan a subset for primitive normal elements")
    common(p_search, field=True)
    p_search.add_argument("--subset", required=True,
                          help='subset JSON, e.g. {"kind":"heightBox","d":2,"H":1}, or @file')
    p_search.set_defaults(func=cmd_search)

    p_conj = sub.add_parser("conjecture", help="per-degree primitive-normal flags for a fixed element")
    common(p_conj, field=True, rng="degree range NLO..NHI")
    p_conj.add_argument("--element", required=True, help="element text in the home field")
    p_conj.set_defaults(func=cmd_conjecture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.format == "text":
        args.format = "csv"
    try:
        return args.func(args)
    except FieldSpecError as exc:
        parser.exit(2, f"usage error: {exc}\n")
    except (ValueError, ResourceLimitError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except OSError as exc:  # reading --subset @file or writing --out
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
