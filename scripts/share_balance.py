"""When each process of a cold run_verify finishes its fields.

    python3 scripts/share_balance.py --checkout . --runs 10 --range 4..256 --seed 1

Each run is a fresh interpreter that calls claims.run_verify once with a
wrapper around _pool._share, the loop in which each process of
_pool.map_fields runs its fields.  Every process appends its start and end
times (CLOCK_MONOTONIC, one clock for all processes) and its field count to
one file.  Prints one line of JSON: per
run, each process's [start, end, fields] in seconds from the first start
(the caller first) and the gap between the first and the last process to
finish, and the number of runs whose gap is at most 0.05 s.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

JOB = """
import os, sys, time
from pnfield import _pool, claims
share, log = _pool._share, sys.argv[1]

def timed(fn, specs):
    start = time.monotonic()
    out = share(fn, specs)
    with open(log, "a") as f:
        f.write(f"{os.getpid()} {start} {time.monotonic()} {len(out[0])}\\n")
    return out

_pool._share = timed
claims.run_verify(int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
print(os.getpid())
"""


def one_run(checkout: Path, lo: int, hi: int, seed: int) -> dict:
    with tempfile.NamedTemporaryFile("r") as log:
        proc = subprocess.run([sys.executable, "-c", JOB, log.name, str(lo), str(hi), str(seed)],
                              env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                              capture_output=True, text=True, check=True)
        rows = [line.split() for line in log.read().splitlines()]
    caller = proc.stdout.split()[-1]
    rows.sort(key=lambda row: row[0] != caller)
    t0 = min(float(row[1]) for row in rows)
    spans = [[round(float(a) - t0, 3), round(float(b) - t0, 3), int(n)] for _, a, b, n in rows]
    ends = [end for _, end, _ in spans]
    return {"processes": spans, "end_gap_s": round(max(ends) - min(ends), 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path("."))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--range", default="4..256")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    lo, hi = map(int, args.range.split(".."))
    runs = [one_run(args.checkout.resolve(), lo, hi, args.seed) for _ in range(args.runs)]
    print(json.dumps({"range": args.range, "seed": args.seed,
                      "ends_within_0.05_s": sum(run["end_gap_s"] <= 0.05 for run in runs),
                      "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
