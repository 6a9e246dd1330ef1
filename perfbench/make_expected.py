"""Write expected.json, the reference outputs the benchmark checks against.

    python3 perfbench/make_expected.py

Run it only when an output is meant to change, and say why in the change
that commits the new file: the digests pin the claim ledger, the default-seed
verify report and experiment rows, and the census counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pnfield import claims, field  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    seed = wl.DEFAULT_SEED
    results = wl.verify_run(seed, None)
    records = wl.census_run(seed, None)
    ctxs = [field.get_field(*spec) for spec in wl.bigfield_fields(seed)]
    reports = wl.bigfield_run(seed, ctxs)
    by_qn = {(p**k, n): wl.spec_string(p, k, n) for p, k, n in wl.CENSUS_FIELDS}
    payload = {
        "verify": {
            "range": list(wl.VERIFY_RANGE),
            "ledger_sha256": wl.sha256(wl.ledger_text(results)),
            "report_sha256": wl.sha256(claims.format_report(results, seed)),
        },
        "census": {
            by_qn[(r.q, r.n)]: [r.num_normal, r.num_primitive_normal]
            for r in sorted(records, key=lambda r: (r.q**r.n, r.q))
        },
        "bigfield": {"reports_sha256": wl.sha256(wl.reports_text(reports))},
    }
    wl.EXPECTED_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
