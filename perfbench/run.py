"""pnfield benchmark: one command for the verify, census and bigfield workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs repeats of the workload's job one after another, each in a fresh
interpreter (perfbench/job.py) so that every cache starts cold, until
``--seconds`` are used up (at least MIN_REPEATS).  Repeat r uses seed
``job_seed(seed, r)``; repeat 0 uses the seed itself.

With ``--trace 0`` it reports the end-to-end metrics, each the median over
repeats; ``setup_s`` is the median over SETUP_SAMPLES set-ups, the missing
ones made by children that stop after set-up.  With ``--trace 1`` each repeat is a pair: an untraced job and the
same job with every layer wrapped by perfbench.tracer; it reports the
per-layer metrics (medians over pairs) and writes the full per-name table to
perfbench/out/.  Human-readable lines come first; the last line of stdout is
the JSON result.  Exit status 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "census", "bigfield")
MIN_REPEATS = 3
SETUP_SAMPLES = 9  # set-ups per untraced run; set-up-only children make up the rest
TIME_LIMIT_S = 170  # the whole run, repeats included

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput", "1/s", "higher"),
)

# What "throughput" counts on each workload, per second of job wall time.
THROUGHPUT_OF = {"verify": "claims_per_s", "census": "elements_per_s", "bigfield": "pn_tests_per_s"}


def _spans(*names, parts=("calls", "self_s", "total_s")):
    return tuple(f"{name}.{part}" for name in names for part in parts)


# Per-layer metric names; <name>.{calls,self_s,total_s} come from the trace
# table, <layer>.self_s sums a layer's self time, the rest are work counts.
PER_LAYER_NAMES = (
    *_spans("field.find_reference_primitive_normal", "field.ensure_tables"),
    "field.tau_candidates",
    "field.tau_hit_ratio",
    *_spans("field.is_primitive", "field.is_normal.divisor", "field.is_normal.rank",
            "field.apply_linearized", "field.frobenius", "field.mul", "field.pow", "field.add",
            "field.additive_order", "field.multiplicative_order", "field.trace"),
    "field.ensure_trace_table.self_s",
    "field.op_count",
    *_spans("field.build_field", parts=("calls", "self_s")),
    "smallfield.add.calls",
    "smallfield.mul.calls",
    *_spans("polyfq.poly_divmod", "polyfq.poly_mul", "polyfq.is_irreducible"),
    "polyfq.factor_x_n_minus_1_over.self_s",
    *_spans("numtheory.factorize"),
    "counting.exact_counts.calls",
    "counting.exact_counts.self_s",
    "counting.multiplicative_order_census.self_s",
    "counting.additive_order_census.self_s",
    "counting.elements_classified",
    *_spans("characters.indicator_primitive_dd", "characters.indicator_primitive_df",
            "characters.indicator_normal_dd", "characters.indicator_normal_df"),
    "characters.gauss_sum.self_s",
    "characters.char_sum_bound_suite.self_s",
    "characters.primitive_exp_sum.self_s",
    "claims.integer_claims.self_s",
    "claims.poly_claims.self_s",
    "claims.field_claims.self_s",
    "claims.subsum_partition_claims.self_s",
    "claims.asserted_pass",
    "claims.reported",
    "claims.fail",
    "subsets.threshold_experiment.self_s",
    *_spans("subsets.is_structured"),
    "subsets.redraws",
    "subsets.pn_tests",
    "subsets.witnesses",
    "subsets.hit_ratio",
    *(f"{layer}.self_s" for layer in LAYERS),
    "setup.import_s",
    "setup.build_s",
    "trace.wall_s",
    "trace.unattributed_s",
    "trace.overhead_s",
)

_COUNT_BETTER = {
    "field.tau_hit_ratio": "higher",
    "subsets.hit_ratio": "higher",
    "claims.asserted_pass": "higher",
    "claims.reported": "higher",
    "counting.elements_classified": "higher",
}


def per_layer_spec(name: str) -> tuple[str, str, str]:
    """(name, unit, better) of a per-layer metric."""
    if name.endswith("_s"):
        return name, "s", "lower"
    if name.endswith("_ratio"):
        return name, "ratio", _COUNT_BETTER[name]
    return name, "count", _COUNT_BETTER.get(name, "lower")


PER_LAYER = tuple(per_layer_spec(name) for name in PER_LAYER_NAMES)


def job_seed(seed: int, r: int) -> int:
    if r == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{r}".encode()).digest()[:4], "big")


def run_job(workload: str, seed: int, trace: bool, deadline: float, setup_only: bool = False) -> dict:
    """One repeat (or one set-up) in a fresh interpreter; a failed or silent
    child becomes a record with one failed operation."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--spawned", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "errors": ["repeat timed out"]}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1, "errors": [f"job exited with status {proc.returncode}"]}
    return json.loads(lines[-1])


def layer_metrics(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer values of one traced repeat, given its untraced twin."""
    table = traced["trace"]
    counts = traced["counts"]
    claims = counts.get("claims", {})
    tau = counts["tau"]
    candidates = sum(tau.values())
    out = {}
    for name in PER_LAYER_NAMES:
        head, _, part = name.rpartition(".")
        if part in ("calls", "self_s", "total_s") and head not in LAYERS:
            row = table.get(head, [0, 0.0, 0.0])
            out[name] = row[("calls", "total_s", "self_s").index(part)]
        elif part == "self_s" and head in LAYERS:
            out[name] = sum(row[2] for key, row in table.items() if key.startswith(head + "."))
    pn_tests = counts["pn_tests"]
    out.update({
        "field.tau_candidates": candidates,
        "field.tau_hit_ratio": len(tau) / candidates if candidates else 0.0,
        "field.op_count": counts["op_count"],
        "counting.elements_classified": counts.get("elements_classified", 0),
        "claims.asserted_pass": claims.get("ASSERTED-PASS", 0),
        "claims.reported": claims.get("REPORTED", 0),
        "claims.fail": claims.get("FAIL", 0),
        "subsets.redraws": counts["redraws"],
        "subsets.pn_tests": pn_tests,
        "subsets.witnesses": counts["witnesses"],
        "subsets.hit_ratio": counts["witnesses"] / pn_tests if pn_tests else 0.0,
        "setup.import_s": plain["import_s"],
        "setup.build_s": plain["build_s"],
        "trace.wall_s": traced["trace_wall_s"],
        "trace.unattributed_s": traced["trace_wall_s"] - traced["trace_covered_s"],
        "trace.overhead_s": traced["raw"]["wall_s"] - plain["raw"]["wall_s"],
    })
    return out


def median_of(dicts: list[dict], names) -> dict[str, float]:
    return {name: statistics.median(d[name] for d in dicts) for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pnfield benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pnfield" / "__init__.py").is_file():
        print(f"perfbench: no pnfield sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + TIME_LIMIT_S
    min_repeats = 1 if args.trace else MIN_REPEATS
    repeats = []  # (plain record, traced record or None)
    durations = []
    attempted = failed = 0
    while True:
        t0 = time.monotonic()
        seed = job_seed(args.seed, len(repeats))
        plain = run_job(args.workload, seed, False, hard_deadline)
        traced = run_job(args.workload, seed, True, hard_deadline) if args.trace else None
        for rec in (plain, traced):
            if rec is not None:
                attempted += rec["attempted"]
                failed += rec["failed"]
                for err in rec["errors"]:
                    print(f"check failed (seed {seed}): {err}")
        if "wall_s" not in plain or (traced is not None and "wall_s" not in traced):
            break
        repeats.append((plain, traced))
        durations.append(time.monotonic() - t0)
        projected = time.monotonic() + statistics.median(durations)
        if projected > hard_deadline or (len(repeats) >= min_repeats and projected > deadline):
            break
    if not repeats:
        print("perfbench: no repeat completed", file=sys.stderr)
        return 1

    plains = [p for p, _ in repeats]
    for rec in plains:
        rec["throughput"] = rec["work"] / rec["wall_s"]
    if args.trace:
        specs = PER_LAYER
        metrics = median_of([layer_metrics(p, t) for p, t in repeats], PER_LAYER_NAMES)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([t for _, t in repeats], indent=1, sort_keys=True) + "\n")
    else:
        specs = END_TO_END
        metrics = median_of(plains, [name for name, _, _ in END_TO_END])
        setups = [rec["setup_s"] for rec in plains]
        while len(setups) < SETUP_SAMPLES and time.monotonic() + 2 * max(setups) < hard_deadline:
            rec = run_job(args.workload, args.seed, False, hard_deadline, setup_only=True)
            attempted += rec["attempted"]
            failed += rec["failed"]
            if "setup_s" not in rec:
                break
            setups.append(rec["setup_s"])
        metrics["setup_s"] = statistics.median(setups)

    print(f"workload {args.workload}: {len(repeats)} repeats, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, unit, _ in specs:
        label = THROUGHPUT_OF[args.workload] if name == "throughput" else name
        print(f"  {label:48} {metrics[name]:.6g} {unit}")
    for key in ("setup_s", "wall_s", "cpu_s"):
        raw = statistics.median(rec["raw"][key] for rec in plains)
        print(f"  {key + ' as measured, before speed correction':48} {raw:.6g} s")
    walls = " ".join(f"{rec['raw']['wall_s']:.3f}->{rec['wall_s']:.3f}" for rec in plains)
    print(f"  {'job wall_s per repeat, measured->corrected':48} {walls}")
    print(f"  {'fail_frac':48} {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    print(f"  work counts, repeat 0: {json.dumps(plains[0]['counts'], sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
