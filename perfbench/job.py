"""One repeat of one workload, in a fresh interpreter.

    python3 perfbench/job.py --workload census --seed 1 --trace 0 --spawned <t>

``--spawned`` is the parent's ``time.monotonic()`` when it started this
process, so ``setup_s`` covers interpreter start, the pnfield import and the
construction of every field the workload uses.  The job is then timed (wall
and CPU), its output checked, and one JSON object printed on stdout.  Field
construction and the job are timed at the reference speed of perfbench.speed;
the measured times are kept under ``raw``.  ``--setup-only`` stops after
set-up and reports only ``setup_s``.  With
``--trace 1`` every layer is wrapped by perfbench.tracer before set-up and
the per-name table is included.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pnfield import field, subsets  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class Counters:
    """Work counts that every run records, traced or not.

    The wrapped calls are few (thousands per job), so counting them costs
    microseconds: primitive-normal tests and their witnesses, the reference
    element found per field (its value is the number of candidates the scan
    tested), and subset draws that is_structured rejected.
    """

    def __init__(self):
        self.pn_tests = 0
        self.witnesses: list = []
        self.tau: dict[str, int] = {}
        self.redraws = 0

    def install(self):
        ctx_cls = field.FieldCtx
        is_pn = ctx_cls.is_primitive_normal
        find_tau = ctx_cls.find_reference_primitive_normal
        is_structured = subsets.is_structured

        @functools.wraps(is_pn)
        def counted_is_pn(ctx, a):
            ok = is_pn(ctx, a)
            self.pn_tests += 1
            if ok:
                self.witnesses.append((ctx, a))
            return ok

        @functools.wraps(find_tau)
        def counted_find_tau(ctx):
            tau = find_tau(ctx)
            self.tau.setdefault(workloads.spec_string(ctx.p, ctx.k, ctx.n), tau)
            return tau

        @functools.wraps(is_structured)
        def counted_is_structured(ctx, elems):
            res = is_structured(ctx, elems)
            self.redraws += res[0]
            return res

        ctx_cls.is_primitive_normal = counted_is_pn
        ctx_cls.find_reference_primitive_normal = counted_find_tau
        subsets.is_structured = counted_is_structured


def run(name: str, seed: int, trace: bool, spawned: float, setup_only: bool = False) -> dict:
    fields_of, job, check = workloads.WORKLOADS[name]
    get_field = field.get_field  # the lru_cache itself, before any wrapping
    counters = Counters()
    counters.install()
    tr = None
    if trace:
        tr = tracer.Tracer()
        tr.install()
    import_s = time.monotonic() - spawned
    sample = not trace  # probes inside spans would blur the per-layer times

    ctxs, build_s, _, build_probes = speed.timed(
        lambda: [field.get_field(*spec) for spec in fields_of(seed)], sample)
    pre_probes = [speed.probe_s() for _ in range(speed.PRE_PROBES)]
    setup_s = import_s + build_s * speed.factor(build_probes + pre_probes)
    if setup_only:
        return {"setup_s": setup_s, "attempted": 0, "failed": 0, "errors": []}
    built = get_field.cache_info().misses
    ops_before = sum(ctx.op_count for ctx in ctxs)

    def guarded_job():
        try:
            return job(seed, ctxs)
        except Exception:
            traceback.print_exc()
            return None

    result, wall_s, cpu_s, job_probes = speed.timed(guarded_job, sample)
    job_factor = speed.factor(job_probes or pre_probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    table = tr.table() if tr else None
    covered_s = tr.covered_ns() / 1e9 if tr else None
    op_count = sum(ctx.op_count for ctx in ctxs) - ops_before
    witnesses = list(counters.witnesses)

    out = workloads.Outcome()
    out.check(result is not None, "the job raised an error")
    if result is not None:
        out.check(get_field.cache_info().misses == built, "the job built a field outside set-up")
        try:
            check(result, seed, out)
        except Exception:
            traceback.print_exc()
            out.check(False, "the output check raised an error")
    # Independent of the divisor method that found them.
    for ctx, a in witnesses:
        out.check(ctx.is_normal(a, method="rank") and ctx.multiplicative_order(a) == ctx.order - 1,
                  f"witness {a} of {ctx!r} fails the rank/order recheck")
    if name == "bigfield":
        out.work = counters.pn_tests
    out.counts.update({
        "pn_tests": counters.pn_tests,
        "witnesses": len(witnesses),
        "redraws": counters.redraws,
        "tau": counters.tau,
        "op_count": op_count,
    })
    return {
        "workload": name,
        "seed": seed,
        "import_s": import_s,
        "build_s": build_s,
        "setup_s": setup_s,
        "wall_s": wall_s * job_factor,
        "cpu_s": cpu_s * job_factor,
        "raw": {"setup_s": import_s + build_s, "wall_s": wall_s, "cpu_s": cpu_s},
        "speed": {"job": job_factor, "probes": len(job_probes)},
        "peak_rss_mb": peak_rss_mb,
        "work": out.work,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors[:20],
        "counts": out.counts,
        "trace": table,
        "trace_wall_s": build_s + wall_s if tr else None,
        "trace_covered_s": covered_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, bool(args.trace), args.spawned, args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
