"""Per-element cost of the primitive and normal tests on the polynomial path,
and the set-up cost of the fields layer by layer.

    python3 scripts/bench_pn.py [--seed 1] [--elements 20] [--repeats 5] [--field 2^1:24]
    python3 scripts/bench_pn.py --build [--repeats 5] [--field 2^1:24]
    python3 scripts/bench_pn.py [--build] --parent ../parent --change . --rounds 3 --out BENCH.json

On each field of FIELDS (the benchmark's big fields, then larger ones, all
above the exp/log table cap, so every product runs on the polynomial path) it
times, per element of a seeded sample: one product, one power with the
exponent of the inverse, ``is_primitive``, and ``is_normal`` by the divisor
and the rank method.  Each field is warmed up by one call of each operation
first, so the Frobenius images and the maps of the cofactors built on first
use are not counted; that first call is timed on its own, and its excess
over one element (``build_us``: for the divisor test, building the cofactor
maps; for ``is_primitive``, the maps Frob^j that the first element's tests
use) is printed next to the row.  The rest of the sample then runs once,
untimed and uncounted, so that what only later elements use (the maps of a
plan's later primes) is built outside the work counts.  A row holds the
minimum over repeats of the mean time per element (the least disturbed
repeat), the build, and four deterministic work counts: the charged
``op_count``, the polynomial products per element (calls of
``FieldCtx._product``, which every polynomial-path product goes through), the
map applications per element outside products (calls of ``FieldCtx._fold``
not made by ``_product``: for a power and ``is_primitive`` the Frobenius
maps, for the divisor test the cofactor maps) and the number of elements the
test accepts.

With ``--build`` it times instead, on each field of FIELDS, the three parts
of building a field with its default moduli, each separately:
``first_irreducible`` (the extension modulus), ``factorize`` of q^n - 1 and
``factor_x_n_minus_1_over``, and then on each field of SEARCH_FIELDS (towers
outside FIELDS, most past the 2^63 cap of ``build_field``, which ``--build``
never calls) only ``first_irreducible``.  On each field of FIELDS it also
times the maps a fresh context builds on first use (FIRST_USE): the fold of
a raw product (``first_use.red``), the maps Frob^i that the first element's
``is_primitive`` builds (``first_use.frob``, with the fold already built),
the maps of every cofactor of the divisor test (``first_use.cofactors``, with
the fold and those Frobenius maps already built) and the map of the absolute
trace that the first ``trace`` builds (``first_use.trace``, with the fold and
those Frobenius maps built, as one ``is_primitive`` leaves them); each such
row holds the minimum over repeats, each repeat on a new context, and its
result digests the maps' columns.
The coefficient field F_q is built and warmed up first.  A row holds the
median over repeats of one call, two deterministic work counts made by the
first call: the Ben-Or tests (calls of ``polyfq._ben_or``, which every
irreducibility test goes through, or of ``polyfq.is_irreducible`` in a
checkout without it) and the gcds (calls of ``polyfq.poly_gcd`` and, where
it exists, of the packed ``polyfq._Packed.gcd``, which a packed public gcd
goes through as well; the Euclid of the parity screen, which runs by the
packed remainder alone, is not one), and a short digest of its result.

``--field`` (repeatable) restricts any mode, the comparison too, to those
fields of FIELDS (or, with ``--build``, of SEARCH_FIELDS).

With ``--parent`` and ``--change`` (two checkouts of the repository) the
script runs itself in a fresh interpreter on each checkout's ``src``, one
field at a time, for ``--rounds`` rounds: each field runs on both sides in
turn before the next field starts, the side that goes first swapping with
every field and every round, so that both sides of a row see the same host
state.  It writes before/after rows with the speedup of the medians, each
round's time per side (so that a row can be judged against the parent's own
spread), the paired ratios change/parent of each round with their median and
the number of rounds in which the change was faster, and whether the work
counts agree.  Host load that outlasts one field's run moves the medians of
the two sides apart (by up to 1.6× on operations a change does not touch) but
not the two sides of one round, which run back to back; so a "no slower per
element" reading uses the paired median ratio, not the speedup.  A
per-element row also joins both builds and, where the change is faster per
element, the number of elements after which its build has paid for itself.
``--out`` adds them as the key "per_element" to that JSON file, keeping what
else it holds (such as the output of scripts/bench_pairs.py, which must run
first: it writes its file anew).  Human-readable lines go to stderr; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

FIELDS = ((2, 1, 24), (2, 1, 40), (3, 1, 14), (5, 1, 10), (2, 4, 8), (7, 1, 8),
          (2, 1, 63), (3, 1, 39), (5, 1, 27), (2, 4, 15), (3, 2, 19), (7, 1, 22), (5, 2, 6), (7, 2, 11))
# modulus searches only: where the screens of first_irreducible drop candidates
SEARCH_FIELDS = ((2, 4, 16), (2, 4, 32), (2, 5, 16), (3, 3, 9), (3, 3, 19), (3, 2, 27), (5, 2, 30))
OPS = ("product", "pow", "is_primitive", "is_normal.divisor", "is_normal.rank")
BUILD_LAYERS = ("first_irreducible", "factorize", "factor_x_n_minus_1_over")
FIRST_USE = ("first_use.red", "first_use.frob", "first_use.cofactors", "first_use.trace")


def _op(ctx, name: str):
    if name == "product":
        b = ctx.order - 2
        return lambda a: ctx.mul(a, b)
    if name == "pow":
        return lambda a: ctx.pow(a, ctx.order - 2)
    if name == "is_primitive":
        return ctx.is_primitive
    return lambda a: ctx.is_normal(a, method=name.partition(".")[2])


def measure(seed: int, count: int, repeats: int, fields=FIELDS) -> list:
    """One row per field and operation, in this interpreter."""
    from pnfield.field import build_field

    rows = []
    for spec in fields:
        ctx = build_field(*spec)
        elements = random.Random(seed).sample(range(1, ctx.order), count)
        for name in OPS:
            fn = _op(ctx, name)
            start = time.perf_counter()
            fn(elements[0])
            first = time.perf_counter() - start
            for a in elements[1:]:  # build what later elements use too, uncounted
                fn(a)
            before, products, folds = ctx.op_count, [0], [0]
            _count_calls(ctx, "_product", products)  # for this pass only, untimed
            _count_calls(ctx, "_fold", folds)  # each _product makes one
            hits = sum(bool(fn(a)) for a in elements)
            del ctx._product, ctx._fold
            ops = ctx.op_count - before
            means = []
            for _ in range(repeats):
                start = time.perf_counter()
                for a in elements:
                    fn(a)
                means.append((time.perf_counter() - start) / count)
            us = min(means) * 1e6
            rows.append({"field": "%d^%d:%d" % spec, "op": name, "us": us,
                         "runs_us": [t * 1e6 for t in means], "build_us": max(first * 1e6 - us, 0.0),
                         "op_count": ops, "products": products[0] / count,
                         "maps": (folds[0] - products[0]) / count, "hits": hits})
            print(f"{rows[-1]['field']:>7} {name:<18} {us:10.1f} us   build {rows[-1]['build_us']:10.1f} us",
                  file=sys.stderr)
    return rows


def _count_calls(owner, name: str, counter: list):
    """Wrap owner.name so that each call adds one to counter[0]; returns the
    function it replaced."""
    fn = getattr(owner, name)

    def counted(*args):
        counter[0] += 1
        return fn(*args)

    setattr(owner, name, counted)
    return fn


def measure_build(repeats: int, fields=FIELDS + SEARCH_FIELDS) -> list:
    """One row per field and set-up layer (first_irreducible alone on the
    fields of SEARCH_FIELDS), in this interpreter."""
    from pnfield import polyfq
    from pnfield.numtheory import factorize
    from pnfield.smallfield import canonical_field

    # the one Ben-Or function (is_irreducible before the packed core), and
    # every gcd: the tuple poly_gcd and, where it exists, the packed one
    ben_or, gcds = [0], [0]
    wrapped = [(polyfq, "_ben_or" if hasattr(polyfq, "_ben_or") else "is_irreducible", ben_or),
               (polyfq, "poly_gcd", gcds)]
    if hasattr(polyfq, "_Packed"):
        wrapped.append((polyfq._Packed, "gcd", gcds))
    originals = [(owner, name, _count_calls(owner, name, counter)) for owner, name, counter in wrapped]
    rows = []
    for p, k, n in fields:
        fq = canonical_field(p**k)
        fq.inv(1)
        layers = {"first_irreducible": lambda: polyfq.first_irreducible(fq, n),
                  "factorize": lambda: factorize(fq.q**n - 1),
                  "factor_x_n_minus_1_over": lambda: polyfq.factor_x_n_minus_1_over(fq, n)}
        for name in BUILD_LAYERS[:1] if (p, k, n) in SEARCH_FIELDS else BUILD_LAYERS:
            ben_or[0] = gcds[0] = 0
            digest = hashlib.sha256(repr(layers[name]()).encode()).hexdigest()[:12]
            counts = {"ben_or": ben_or[0], "gcd": gcds[0]}
            runs = []
            for _ in range(repeats):
                start = time.perf_counter()
                layers[name]()
                runs.append(time.perf_counter() - start)
            rows.append({"field": "%d^%d:%d" % (p, k, n), "op": name, "us": statistics.median(runs) * 1e6,
                         "runs_us": [t * 1e6 for t in runs], **counts, "result": digest})
            print(f"{rows[-1]['field']:>7} {name:<24} {rows[-1]['us']:12.1f} us {counts['ben_or']:6d} Ben-Or"
                  f" {counts['gcd']:6d} gcd", file=sys.stderr)
    for owner, name, fn in originals:
        setattr(owner, name, fn)
    return rows + [row for spec in fields if spec in FIELDS for row in measure_first_use(spec, repeats)]


def measure_first_use(spec, repeats: int) -> list:
    """The rows of FIRST_USE on one field, each the minimum over repeats."""
    from pnfield.field import build_field

    # each part with the number of parts before it that are built first
    builds = [("first_use.red", lambda ctx: [ctx._ensure_red() or ctx._red], 0),
              ("first_use.frob", lambda ctx: [ctx._frob_layout(i) for i in frob], 1),
              ("first_use.cofactors", lambda ctx: [ctx._divisor_map(cof) for cof in cofactors], 2),
              ("first_use.trace", lambda ctx: [ctx._trace_map for _ in [ctx.trace(1)]], 2)]

    def fresh(upto: int):  # a new context with the maps of the parts before upto built
        ctx = build_field(*spec)
        for _, build, _ in builds[:upto]:
            build(ctx)
        return ctx

    probe = fresh(1)
    probe.is_primitive(random.Random(1).randrange(1, probe.order))
    frob = sorted(probe._frob_layouts)
    top = probe.add_factorization.exponents()
    cofactors = [top[:i] + (e - 1,) + top[i + 1:] for i, e in enumerate(top)]
    rows = []
    for name, build, upto in builds:
        runs, maps = [], None
        for _ in range(repeats):
            ctx = fresh(upto)
            start = time.perf_counter()
            maps = build(ctx)
            runs.append(time.perf_counter() - start)
        digest = hashlib.sha256(repr([ctx._columns(m) for m in maps]).encode()).hexdigest()[:12]
        rows.append({"field": "%d^%d:%d" % spec, "op": name, "us": min(runs) * 1e6,
                     "runs_us": [t * 1e6 for t in runs], "ben_or": 0, "gcd": 0, "result": digest})
        print(f"{rows[-1]['field']:>7} {name:<24} {rows[-1]['us']:12.1f} us", file=sys.stderr)
    return rows


def compare(sides: dict, args, fields) -> dict:
    """Fresh-interpreter runs on both checkouts, alternating field by field,
    joined by row."""
    runs = {"parent": [[] for _ in range(args.rounds)], "change": [[] for _ in range(args.rounds)]}
    for i in range(args.rounds):
        for f, spec in enumerate(fields):
            for name in (("parent", "change") if (i + f) % 2 == 0 else ("change", "parent")):
                env = dict(os.environ, PYTHONPATH=str(sides[name] / "src"))
                proc = subprocess.run(
                    [sys.executable, __file__, "--seed", str(args.seed), "--elements", str(args.elements),
                     "--repeats", str(args.repeats), "--field", "%d^%d:%d" % spec] + ["--build"] * args.build,
                    env=env, capture_output=True, text=True, check=True)
                runs[name][i] += json.loads(proc.stdout.strip().splitlines()[-1])["rows"]
        print(f"round {i} done", file=sys.stderr, flush=True)
    rows = []
    for j, row in enumerate(runs["change"][0]):
        before = statistics.median(r[j]["us"] for r in runs["parent"])
        after = statistics.median(r[j]["us"] for r in runs["change"])
        parent0 = runs["parent"][0][j]
        ratios = [c[j]["us"] / p[j]["us"] for p, c in zip(runs["parent"], runs["change"])]
        joined = {"field": row["field"], "op": row["op"], "parent_us": before, "change_us": after,
                  "speedup": before / after,
                  "parent_rounds_us": [r[j]["us"] for r in runs["parent"]],
                  "change_rounds_us": [r[j]["us"] for r in runs["change"]],
                  "round_ratios": ratios, "median_ratio": statistics.median(ratios),
                  "change_faster_rounds": sum(r < 1 for r in ratios)}
        if args.build:
            joined.update(ben_or=[parent0["ben_or"], row["ben_or"]],
                          gcd=[parent0["gcd"], row["gcd"]],
                          same_result=parent0["result"] == row["result"])
        else:
            builds = [statistics.median(r[j]["build_us"] for r in runs[side]) for side in ("parent", "change")]
            joined.update(build_us=builds,
                          break_even=max(builds[1] - builds[0], 0.0) / (before - after) if before > after else None,
                          op_count=[parent0["op_count"], row["op_count"]],
                          products=[parent0["products"], row["products"]],
                          maps=[parent0.get("maps"), row.get("maps")],
                          hits=[parent0["hits"], row["hits"]],
                          same_work=(parent0["op_count"], parent0["hits"]) == (row["op_count"], row["hits"]))
        rows.append(joined)
    unit = ("microseconds per call, median over rounds of the median over repeats" if args.build
            else "microseconds per element, median over rounds of the minimum over repeats")
    return {"command": "python3 scripts/bench_pn.py --parent PARENT --change CHANGE --seed "
                       f"{args.seed} --elements {args.elements} --repeats {args.repeats} "
                       f"--rounds {args.rounds}" + " --build" * args.build
                       + ("" if fields == _all_fields(args.build)
                          else "".join(" --field %d^%d:%d" % spec for spec in fields)),
            "unit": unit,
            "rows": rows}


def _all_fields(build: bool) -> tuple:
    return FIELDS + SEARCH_FIELDS if build else FIELDS


def _field_spec(text: str) -> tuple:
    """(p, k, n) of a field of FIELDS or SEARCH_FIELDS given as p^k:n."""
    p, _, rest = text.partition("^")
    k, _, n = rest.partition(":")
    spec = (int(p), int(k), int(n))
    if spec not in FIELDS + SEARCH_FIELDS:
        raise argparse.ArgumentTypeError(f"{text} is not one of the fields of FIELDS or SEARCH_FIELDS")
    return spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--elements", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--build", action="store_true", help="time the set-up layers of each field")
    ap.add_argument("--field", type=_field_spec, action="append",
                    help="only this field of FIELDS (or SEARCH_FIELDS with --build), as p^k:n (repeatable)")
    args = ap.parse_args(argv)
    fields = tuple(args.field) if args.field else _all_fields(args.build)
    if not args.build and set(fields) & set(SEARCH_FIELDS):
        ap.error("the fields of SEARCH_FIELDS have --build rows only")
    if args.parent and args.change:
        result = compare({"parent": args.parent.resolve(), "change": args.change.resolve()}, args, fields)
    elif args.build:
        result = {"rows": measure_build(args.repeats, fields)}
    else:
        result = {"seed": args.seed, "elements": args.elements,
                  "rows": measure(args.seed, args.elements, args.repeats, fields)}
    if args.out:
        report = json.loads(args.out.read_text()) if args.out.exists() else {}
        report["build" if args.build else "per_element"] = result
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
