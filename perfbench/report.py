"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 [--out FILE]

Each (workload, seed) is one `run.py` child, run one after another. For
every metric the table gives the median over seeds, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. The failed fraction is
failed / attempted operations over all runs. With --out, every run's
result line and the summary are written as JSON. --workloads picks a
subset of the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from run import quartiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarise(values: list[float]) -> dict[str, float]:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    results = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            line = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **line})
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed {line['failed']}/{line['attempted']}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        print(f"\n{workload}: {len(runs)} runs, failed_frac "
              f"{failed / attempted:.4g} ({failed}/{attempted})")
        for m in metric_spec:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            s["unit"] = m["unit"]
            summary[m["name"]] = s
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                ok &= s["spread"] <= bound
                flag = "ok" if s["spread"] <= bound / 3 else (
                    "within bound" if s["spread"] <= bound else "TOO NOISY")
            print(f"  {m['name']:<42s} {s['median']:12.6g} {m['unit']:<8s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f}"
                  + (f" / bound {bound}  {flag}" if bound is not None else ""))
        ok &= failed == 0 and all(r["correct"] for r in runs)
        results[workload] = {"failed_frac": failed / attempted,
                             "summary": summary, "runs": runs}
    if args.out:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(),
               "cpus": len(os.sched_getaffinity(0))}
        args.out.write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace,
             "environment": env, "results": results}, indent=1) + "\n",
            encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
