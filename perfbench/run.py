"""ftcsim benchmark: drive the public CLI in child processes and check it.

    python3 perfbench/run.py --workload stock_va --seed 0 --seconds 50 --trace 0

Run from anywhere inside a checkout; the program is taken from `src/`
next to this directory, and all files go to `.bench_work/<workload>/`.

With `--trace 0` the workload's `ftcsim` commands run untraced, one child
process at a time, until `--seconds` of measured time have passed (at
least MIN_ITERATIONS times), and the last stdout line holds the
end-to-end metrics. Times are in reference seconds: each child's CPU
time times the host speed measured beside it (see launch.py); the raw
wall times are printed too. With `--trace 1` untraced and traced iterations
alternate, and the last line holds the per-layer metrics from the traced
children (see tracer.py). Every iteration's outputs are checked
(check.py); the last line reports the operations attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import check
from tracer import self_times
from workloads import DEFAULT_SEED, H, WORKLOADS, Prepared

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ITERATIONS = 3
MIN_TRACED = 1
# setup_s takes a fraction of a second, so a burst of load on the shared
# host would move a median of back-to-back samples; samples are spread
# over the run instead, a few first and some before every untraced iteration.
SETUP_FIRST = 3
SETUP_PER_ITERATION = 2
CHILD_TIMEOUT_S = 150

# Printed by traced runs but kept out of BENCHMARK.json: only wide_nl calls
# verify, so on the other workloads these times are 0.0 on every run, and
# the result line must not carry a time that never changes.
UNLISTED_LAYER_UNITS = {"verify.synthesize_p_s": "s",
                        "verify.check_condition_s": "s"}

SETUP_CODE = """\
import sys
from ftcsim import cli, scenario_io
for path in sys.argv[1:]:
    scenario_io.load(path)
"""

@dataclass
class Child:
    wall: float
    cpu: float
    speed: float
    rss_mb: float
    code: int

    @property
    def ref(self) -> float:
        """CPU time in reference seconds."""
        return self.cpu * self.speed


@dataclass
class Iteration:
    wall: float
    ref: float
    rss_mb: float
    errors: list[str] = field(default_factory=list)
    failed: int = 0
    identical: int = 0
    compared: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path) -> Child:
    """Run one child to completion through launch.py, one at a time."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(CHILD_TIMEOUT_S),
         str(log), "--", *argv],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, check=True,
        timeout=CHILD_TIMEOUT_S + 30)
    return Child(**json.loads(done.stdout))


def stderr_tail(log: Path) -> str:
    text = Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")
    return text.strip().splitlines()[-1] if text.strip() else ""


def emit_default(work: Path):
    def emit(path: Path) -> None:
        child = spawn([sys.executable, "-m", "ftcsim.cli", "emit-default",
                       str(path)], work / "emit")
        if child.code != 0:
            raise RuntimeError(f"emit-default exited {child.code}: "
                               f"{stderr_tail(work / 'emit')}")
    return emit


def measure_setup(prep: Prepared, work: Path, count: int,
                  children: list[Child], errors: list[str]) -> None:
    """Fresh interpreters that import ftcsim and load every scenario file."""
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, prep.files)]
    for _ in range(count):
        log = work / f"setup{len(children)}"
        child = spawn(argv, log)
        if child.code != 0:
            errors.append(f"setup exited {child.code}: {stderr_tail(log)}")
        children.append(child)


def check_outputs(prep: Prepared, codes: dict[str, int], ref: dict,
                  it: Iteration) -> None:
    for run in prep.runs:
        run_ref = check.reference_for(ref["runs"], run.scenario)
        errors, sha = check.check_run(run, H, run_ref)
        if codes["run"] != 0:
            errors.insert(0, f"ftcsim run exited {codes['run']}")
        if run_ref is not None:
            it.compared += 1
            it.identical += sha == run_ref["sha256"]
        if errors:
            it.failed += 1
            it.errors += [f"{run.scenario.name}: {e}" for e in errors]
    for v in prep.verifies:
        errors = check.check_verify(
            v, check.reference_for(ref["verifies"], v.scenario))
        if codes["verify"] != 0:
            errors.insert(0, f"ftcsim verify exited {codes['verify']}")
        if errors:
            it.failed += 1
            it.errors += [f"{v.scenario.name} verify: {e}" for e in errors]


def run_iteration(prep: Prepared, work: Path, ref: dict,
                  traced: bool, index: int) -> Iteration:
    shutil.rmtree(work / "out", ignore_errors=True)
    children, codes, docs = [], {}, []
    for j, call in enumerate(prep.calls):
        log = work / f"it{index}-{j}"
        if traced:
            spans = work / f"spans-it{index}-{j}.json"
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans),
                    f"{work.name}-{index}-{j}", "--", *call]
        else:
            argv = [sys.executable, "-m", "ftcsim.cli", *call]
        child = spawn(argv, log)
        children.append(child)
        codes[call[0]] = child.code
        if traced and spans.exists():
            docs.append(json.loads(spans.read_text(encoding="utf-8")))
    it = Iteration(wall=sum(c.wall for c in children),
                   ref=sum(c.ref for c in children),
                   rss_mb=max(c.rss_mb for c in children))
    check_outputs(prep, codes, ref, it)
    if traced:
        it.layers = layer_metrics(docs, prep)
    return it


def layer_metrics(docs: list[dict], prep: Prepared) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, except tracing_overhead_s
    and cli.trace_identical_frac, which take more than one iteration."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    count: dict[str, float] = {}
    counters: dict[str, float] = {}
    r_in_run = 0
    charts: list[str] = []
    imports = []
    for doc in docs:
        spans, aggs = doc["spans"], doc["aggregates"]
        selfs = self_times(spans, aggs)
        name_of = {s["id"]: s["name"] for s in spans}
        name_of.update({a["id"]: a["name"] for a in aggs})
        parent_of = {s["id"]: s["parent"] for s in spans}
        parent_of.update({a["id"]: a["parent"] for a in aggs})
        for s in spans:
            dur = s["end"] - s["start"]
            total[s["name"]] = total.get(s["name"], 0.0) + dur
            own[s["name"]] = own.get(s["name"], 0.0) + selfs[s["id"]]
            count[s["name"]] = count.get(s["name"], 0) + 1
            if s["name"] == "import":
                imports.append(dur)
        for a in aggs:
            total[a["name"]] = total.get(a["name"], 0.0) + a["total"]
            own[a["name"]] = own.get(a["name"], 0.0) + selfs[a["id"]]
            count[a["name"]] = count.get(a["name"], 0) + a["count"]
            if a["name"] == "exprlang.eval.r":
                node = a["parent"]
                while node in parent_of and name_of[node] != "engine.run":
                    node = parent_of[node]
                r_in_run += a["count"] if node in parent_of else 0
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        charts += doc["charts"]

    steps = prep.steps
    scenarios = len(prep.runs)
    evals = [n for n in count if n.startswith("exprlang.eval.")]
    points = 0
    chart_bytes = 0
    for path in charts:
        p = Path(path)
        if not p.is_absolute():
            p = ROOT / p
        text = p.read_text(encoding="utf-8")
        chart_bytes += len(text.encode())
        points += sum(len(chunk.split('"', 1)[0].split())
                      for chunk in text.split('points="')[1:])
    return {
        "import_s": imports[0] if imports else 0.0,
        "cli.main.self_s": own.get("cli.main", 0.0),
        "scenario_io.load_s": total.get("scenario_io.load", 0.0),
        "controller.gains_for_calls_per_scenario":
            count.get("controller.gains_for", 0) / scenarios,
        "engine.run.self_s": own.get("engine.run", 0.0),
        "engine.us_per_step": total.get("engine.run", 0.0) / steps * 1e6,
        "engine.rhs_calls_per_step": r_in_run / steps,
        "engine.rhs_s": total.get("engine.rhs", 0.0),
        "numerics.rk4_step.self_s": own.get("numerics.rk4_step", 0.0),
        "exprlang.evals_per_step": sum(count[n] for n in evals) / steps,
        "exprlang.eval_s": sum(total[n] for n in evals),
        "engine.metrics_s": total.get("engine.metrics", 0.0),
        "verify.synthesize_p_s": total.get("verify.synthesize_p", 0.0),
        "verify.check_condition_s": total.get("verify.check_condition", 0.0),
        "cli.trace_csv_s": total.get("cli.trace_csv", 0.0),
        "cli.trace_csv_bytes": counters.get("cli.trace_csv_bytes", 0.0),
        "svgplot.write_chart_s": total.get("svgplot.write_chart", 0.0),
        "svgplot.points_drawn": float(points),
        "svgplot.bytes": float(chart_bytes),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "ftcsim" / "cli.py").is_file():
        print(f"ftcsim sources not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prep = WORKLOADS[args.workload](args.seed, work, emit_default(work))
    ref = check.load_reference(args.workload)
    setups: list[Child] = []
    setup_errors: list[str] = []
    measure_setup(prep, work, SETUP_FIRST, setups, setup_errors)

    plain: list[Iteration] = []
    traced: list[Iteration] = []
    while True:
        measure_setup(prep, work, SETUP_PER_ITERATION, setups, setup_errors)
        it = run_iteration(prep, work, ref, False, len(plain) + len(traced))
        plain.append(it)
        step = it.wall + sum(c.wall for c in setups[-SETUP_PER_ITERATION:])
        if args.trace:
            tr = run_iteration(prep, work, ref, True, len(plain) + len(traced))
            traced.append(tr)
            step += tr.wall
            done = len(traced) >= MIN_TRACED
        else:
            done = len(plain) >= MIN_ITERATIONS
        measured = (sum(c.wall for c in setups) + sum(i.wall for i in plain)
                    + sum(i.wall for i in traced))
        if done and measured + step > args.seconds:
            break

    iterations = plain + traced
    if args.trace:
        identity = [tr for tr in traced if tr.compared]
        if not identity:
            # Only the seed-0 scenario files have references, so on other
            # seeds byte identity is taken from one untimed seed-0 iteration.
            ref_work = work / "reference-seed"
            ref_work.mkdir()
            prep0 = WORKLOADS[args.workload](DEFAULT_SEED, ref_work,
                                             emit_default(ref_work))
            identity = [run_iteration(prep0, ref_work, ref, False, 0)]
            iterations += identity
        identical_frac = (sum(i.identical for i in identity)
                          / sum(i.compared for i in identity))
    attempted = prep.operations * len(iterations)
    failed = sum(it.failed for it in iterations)
    errors = setup_errors + [e for it in iterations for e in it.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    samples: dict[str, list[float]] = {
        "wall_s": [it.ref for it in plain],
        "steps_per_s": [prep.steps / it.ref for it in plain],
        "setup_s": [c.ref for c in setups],
        "peak_rss_mb": [it.rss_mb for it in plain],
    }
    units = metric_units("end_to_end")
    raw = {"raw_wall_s": [it.wall for it in plain],
           "raw_setup_s": [c.wall for c in setups],
           "host_speed": [c.speed for c in setups]}
    if args.trace:
        # Each traced iteration against the untraced one just before it.
        for it, tr in zip(plain, traced):
            tr.layers["tracing_overhead_s"] = tr.ref - it.ref
            tr.layers["cli.trace_identical_frac"] = identical_frac
        units = metric_units("per_layer") | UNLISTED_LAYER_UNITS
        samples = {name: [tr.layers[name] for tr in traced] for name in units}
        raw = {"raw_wall_s": [tr.wall for tr in traced]}

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plain)} untraced, {len(traced)} traced iterations; "
          f"{attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.4g})")
    metrics = {}
    for name, values in list(samples.items()) + list(raw.items()):
        unit = units.get(name, "1" if name == "host_speed" else "s")
        q1, med, q3 = quartiles(values)
        print(f"  {name:<42s} {med:14.6g} {unit:<8s} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        if name in units and name not in UNLISTED_LAYER_UNITS:
            metrics[name] = {"value": med, "unit": unit}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
