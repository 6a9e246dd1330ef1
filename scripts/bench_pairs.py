"""Before/after benchmark rows for a change, from alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . --seed 11 \
        --pairs verify=10,census=5,bigfield=5 \
        --layers verify:characters.gauss_sum.self_s,field.mul.calls \
        --traced-runs 3 --cli "verify --range 4..4096 --seed 1 --format json" \
        --cli-runs 2 --out BENCH.json

``--parent`` and ``--change`` are two checkouts of the repository.  For each
workload, perfbench/run.py --trace 0 runs in both, one pair at a time, the
side that goes first swapping on every pair; each end-to-end metric gets the
median and quartiles per side, every run, and the number of pairs in which
the change was better.  The times that run.py also prints as measured,
before its host-speed correction (which comes from probes in the job
process and so absorbs contention from other processes), get their median
per side next to the corrected row.  For each metric one line on stderr says
whether the change won at least 9 of 10 pairs with a median gain larger than
the parent's interquartile range (what a claimed gain must show), and
whether it is worse than the parent's median by more than its bound in
BENCHMARK.json.  Layer rows come from traced jobs of repeat 0 only
(perfbench/job.py --trace 1 on the seed itself), so both sides time the same
inputs.  Each ``--cli`` command runs ``python3 -m pnfield.cli`` in both
checkouts, alternating, and records its wall time, its CPU seconds (user plus
system, of the process and of every child it reaped, so a run that forks
workers shows their CPU too), its peak RSS and whether the two outputs are
byte-identical.  Every ``--layers`` name is checked on
one traced job of the change side before the first pair runs.  Runs go one
at a time, never in parallel.  ``source_lines`` records the lines of
src/pnfield/*.py in each checkout, the net source lines ROADMAP.md tracks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

END_TO_END = {"wall_s": "lower", "cpu_s": "lower", "setup_s": "lower",
              "peak_rss_mb": "lower", "throughput": "higher"}
MEASURED = " as measured, before speed correction"  # run.py's label for a raw median


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def source_lines(checkout: Path) -> int:
    """The lines of src/pnfield/*.py, as ``cat src/pnfield/*.py | wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "pnfield").glob("*.py"))


def bench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """run.py's JSON record, with its as-measured medians under "measured"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    record = _last_json(proc.stdout)
    record["measured"] = {line.split()[0]: float(line.split()[-2])
                          for line in proc.stdout.splitlines() if MEASURED in line}
    return record


def bounds(checkout: Path) -> dict:
    """The end-to-end bounds of BENCHMARK.json, each a share of the parent's median."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def verdict(row: dict, better: str, bound: float) -> dict:
    """Whether the change's gain would hold as a claim (better in at least 9
    of 10 pairs, median gain above the parent's interquartile range) and
    whether it is worse than the parent's median by more than bound."""
    sign = 1 if better == "lower" else -1
    gain = sign * (row["parent_median"] - row["change_median"])
    q1, q3 = row["parent_quartiles"]
    return {"claim_holds": 10 * row["change_better_pairs"] >= 9 * row["pairs"] and gain > q3 - q1,
            "past_bound": -gain > bound * row["parent_median"]}


def traced_job(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/job.py", "--workload", workload, "--seed", str(seed),
         "--trace", "1", "--spawned", str(time.monotonic())],
        cwd=checkout, capture_output=True, text=True, check=True)
    return _last_json(proc.stdout)


def layer_value(record: dict, metric: str):
    """<name>.calls/.total_s/.self_s from the trace table, or a work count."""
    head, _, part = metric.rpartition(".")
    if part in ("calls", "total_s", "self_s"):
        row = record["trace"].get(head, [0, 0.0, 0.0])
        return row[("calls", "total_s", "self_s").index(part)]
    return record["counts"][metric]


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def ordered(i: int, sides: dict) -> list:
    names = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    return [(name, sides[name]) for name in names]


def end_to_end_rows(sides: dict, workload: str, seed: int, pairs: int, seconds: int,
                    limits: dict) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for name, checkout in ordered(i, sides):
            runs[name].append(bench_run(checkout, workload, seed, seconds))
            print(f"{workload} pair {i} {name}: wall_s {runs[name][-1]['metrics']['wall_s']['value']:.3f}",
                  file=sys.stderr, flush=True)
    rows = []
    for metric, better in END_TO_END.items():
        vals = {name: [r["metrics"][metric]["value"] for r in recs] for name, recs in runs.items()}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        row = {
            "metric": metric, "workload": workload, "seed": seed, "pairs": pairs,
            "parent_median": statistics.median(vals["parent"]),
            "parent_quartiles": quartiles(vals["parent"]),
            "change_median": statistics.median(vals["change"]),
            "change_quartiles": quartiles(vals["change"]),
            "change_better_pairs": wins,
            "parent_runs": vals["parent"], "change_runs": vals["change"],
        }
        if metric in runs["parent"][0]["measured"]:
            for name, recs in runs.items():
                row[f"{name}_measured_median"] = statistics.median(r["measured"][metric] for r in recs)
        row.update(verdict(row, better, limits[metric]))
        rows.append(row)
        measured = (f", as measured {row['parent_measured_median']:.4g} -> "
                    f"{row['change_measured_median']:.4g}") if "parent_measured_median" in row else ""
        print(f"{workload} {metric}: {row['parent_median']:.4g} -> {row['change_median']:.4g}{measured}; "
              f"better in {wins}/{pairs} pairs; a claimed gain {'holds' if row['claim_holds'] else 'fails'}; "
              f"{'PAST' if row['past_bound'] else 'within'} the bound {limits[metric]}",
              file=sys.stderr, flush=True)
    failed = {name: sum(r["failed"] for r in recs) for name, recs in runs.items()}
    return {"rows": rows, "failed_operations": failed}


def check_layers(record: dict, workload: str, metrics: list):
    """Stop with a message at the first metric that names neither a layer
    called in the record nor one of its work counts.  main checks every
    ``--layers`` name on one traced job of the change side before any pair
    runs."""
    for metric in metrics:
        head, _, part = metric.rpartition(".")
        traced = part in ("calls", "total_s", "self_s")
        if (head not in record["trace"]) if traced else (metric not in record["counts"]):
            sys.exit(f"--layers {workload}: {metric} is neither a called layer nor a work "
                     "count of the first traced record")


def layer_rows(sides: dict, workload: str, seed: int, metrics: list, runs: int) -> list:
    records = {"parent": [], "change": []}
    for i in range(runs):
        for name, checkout in ordered(i, sides):
            records[name].append(traced_job(checkout, workload, seed))
    rows = []
    for metric in metrics:
        vals = {name: [layer_value(r, metric) for r in recs] for name, recs in records.items()}
        rows.append({
            "metric": metric, "workload": workload, "seed": seed,
            "parent_median": statistics.median(vals["parent"]),
            "change_median": statistics.median(vals["change"]),
            "parent_runs": vals["parent"], "change_runs": vals["change"],
        })
    return rows


def cli_run(checkout: Path, command: str) -> tuple:
    """One ``pnfield`` run: its stdout, wall seconds, CPU seconds and peak RSS
    in MB, the last two read from the child's own rusage (os.wait4, which
    includes the children it reaped; ru_maxrss in KiB, the largest one
    process reached)."""
    args = [sys.executable, "-m", "pnfield.cli", *shlex.split(command)]
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=checkout, env=_env(checkout), stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise subprocess.CalledProcessError(proc.returncode, args, out, err.read())
    return out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def cli_rows(sides: dict, command: str, runs: int) -> dict:
    walls, cpus, rss = ({"parent": [], "change": []} for _ in range(3))
    digests = {}
    for i in range(runs):
        for name, checkout in ordered(i, sides):
            out, wall, cpu, peak = cli_run(checkout, command)
            walls[name].append(wall)
            cpus[name].append(cpu)
            rss[name].append(peak)
            digests.setdefault(name, set()).add(hashlib.sha256(out).hexdigest())
    return {
        "command": f"pnfield {command}",
        "parent_wall_s": walls["parent"], "change_wall_s": walls["change"],
        "parent_cpu_s": cpus["parent"], "change_cpu_s": cpus["change"],
        "parent_peak_rss_mb": rss["parent"], "change_peak_rss_mb": rss["change"],
        "byte_identical": len(digests["parent"] | digests["change"]) == 1,
        "sha256": sorted(digests["change"]),
    }


def _label(arg: str, sides: dict, out: Path) -> str:
    """A command-line word with the checkout paths as the words PARENT and
    CHANGE and the output path as its file name."""
    for name, path in sides.items():
        if Path(arg).resolve() == path:
            return name.upper()
    return out.name if Path(arg) == out else arg


def _mapping(text: str, convert) -> dict:
    out = {}
    for item in text.split(",") if text else []:
        key, _, value = item.partition("=")
        out[key] = convert(value)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--pairs", default="", help="workload=pairs,...")
    ap.add_argument("--layers", action="append", default=[],
                    help="workload:metric,metric,... (repeatable)")
    ap.add_argument("--traced-runs", type=int, default=3)
    ap.add_argument("--cli", action="append", default=[], help="pnfield arguments (repeatable)")
    ap.add_argument("--cli-runs", type=int, default=2)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "host": f"Python {sys.version.split()[0]}, {os.cpu_count()} cores; workload times are "
                "perfbench's host-speed-corrected seconds (*_measured_median: before the "
                "correction), CLI times are measured",
        "command": " ".join(["python3", *(shlex.quote(_label(a, sides, args.out)) for a in sys.argv)]),
        "source_lines": {name: source_lines(path) for name, path in sides.items()},
        "end_to_end": {}, "layers": {}, "cli": [],
    }

    def save():  # after every section, so that a failure keeps what ran
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    layers = [(workload, names.split(",")) for workload, _, names in
              (spec.partition(":") for spec in args.layers)]
    for workload, names in layers:  # a wrong name stops the run before any pair
        check_layers(traced_job(sides["change"], workload, args.seed), workload, names)
    for workload, pairs in _mapping(args.pairs, int).items():
        report["end_to_end"][workload] = end_to_end_rows(sides, workload, args.seed, pairs,
                                                         args.seconds, bounds(sides["change"]))
        save()
    for workload, names in layers:
        report["layers"][workload] = layer_rows(sides, workload, args.seed, names, args.traced_runs)
        save()
    for command in args.cli:
        report["cli"].append(cli_rows(sides, command, args.cli_runs))
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
