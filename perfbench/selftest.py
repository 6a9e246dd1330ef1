"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload it runs the job three times in fresh interpreters with the
default seed, twice untraced and once traced, and asserts that:

* every output check passes;
* the deterministic work counts (claims by status, elements classified,
  reference-element candidates per field, PN tests and witnesses, rejected
  draws, the op_count delta) are identical in all three runs;
* the traced run's self times add up to the time its spans cover;
* the layers a workload is designed to bypass have zero calls.

It also asserts that BENCHMARK.json, when present, lists exactly the metrics
run.py reports.  Takes about two minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Layers (name prefixes in the trace table) each workload must not call.
BYPASSED = {
    "verify": ("subsets.threshold_experiment",),
    "census": ("characters.", "claims.", "subsets."),
    "bigfield": ("characters.", "claims.", "counting.", "field.find_reference_primitive_normal",
                 "field.ensure_tables", "field.ensure_trace_table"),
}


def check_benchmark_json():
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workloads differ"
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert listed == list(run.END_TO_END), "end_to_end metrics differ from run.END_TO_END"
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(run.PER_LAYER), "per_layer metrics differ from run.PER_LAYER"


def check_workload(name: str):
    seed = workloads.DEFAULT_SEED
    deadline = time.monotonic() + 170
    records = [run.run_job(name, seed, trace, deadline) for trace in (False, False, True)]
    for rec in records:
        assert rec.get("failed") == 0, f"{name}: checks failed: {rec.get('errors')}"
    counts = [rec["counts"] for rec in records]
    assert counts[0] == counts[1], f"{name}: work counts differ between two untraced runs"
    assert counts[0] == counts[2], f"{name}: tracing changed the work counts"
    traced = records[2]
    table = traced["trace"]
    self_sum = sum(row[2] for row in table.values())
    assert abs(self_sum - traced["trace_covered_s"]) <= 1e-6 * max(1.0, self_sum), \
        f"{name}: self times {self_sum} do not add up to covered time {traced['trace_covered_s']}"
    called = [key for key, row in table.items() if row[0] and key.startswith(BYPASSED[name])]
    assert not called, f"{name}: bypassed layers were called: {called}"
    unattributed = traced["trace_wall_s"] - traced["trace_covered_s"]
    print(f"{name}: ok — counts repeat, traced wall {traced['trace_wall_s']:.2f} s, "
          f"unattributed {unattributed:.4f} s, untraced job {records[0]['wall_s']:.2f} s")


def main() -> int:
    check_benchmark_json()
    for name in run.WORKLOADS:
        check_workload(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
