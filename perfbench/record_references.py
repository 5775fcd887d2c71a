"""Record the default-seed reference values that check.py compares against.

    python3 perfbench/record_references.py [workload ...]

Runs each workload once, untraced, on the default seed, checks the outputs
for structure, and writes references/<workload>.json: per scenario the
sha256 of the scenario file, the trace.csv sha256, a fixed sample of
trace.csv lines and metrics.txt, and per `verify` call its verify.csv. Re-record only when the program's results
are meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys

import check
import run as bench
from workloads import DEFAULT_SEED, H, WORKLOADS


def record(workload: str) -> dict:
    work = bench.WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    prep = WORKLOADS[workload](DEFAULT_SEED, work, bench.emit_default(work))
    it = bench.run_iteration(prep, work, check.NO_REFERENCE, False, 0)
    if it.errors:
        raise SystemExit("\n".join(it.errors))
    runs = {}
    for r in prep.runs:
        raw = (r.out_dir / "trace.csv").read_bytes()
        rows = raw.decode().splitlines()[1:]
        runs[r.scenario.name] = {
            "input_sha256": check.file_sha256(r.scenario),
            "sha256": hashlib.sha256(raw).hexdigest(),
            "rows": [rows[i] for i in check.sample_indices(r.steps)],
            "metrics": (r.out_dir / "metrics.txt").read_text(encoding="utf-8"),
        }
    verifies = {v.scenario.name: {
        "input_sha256": check.file_sha256(v.scenario),
        "verify_csv": (v.out_dir / "verify.csv").read_text(encoding="utf-8")}
        for v in prep.verifies}
    return {"seed": DEFAULT_SEED, "h": H, "runs": runs, "verifies": verifies}


def main(names: list[str]) -> int:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        path = check.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record(name), indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
