"""Tests of the benchmark itself: inputs, checker, span arithmetic, counts.

Run with: python3 -m pytest perfbench/tests
"""

import dataclasses

import pytest

import check
import run as bench
from tracer import self_times
from workloads import (DEFAULT_SEED, H, MC_T_END, Prepared, ScenarioRun,
                       WORKLOADS, mc_pairs_texts, wide_nl_text)


def _no_emit(path):
    raise AssertionError("only stock_va emits the default scenario")


@pytest.mark.parametrize("workload", ["mc_pairs", "wide_nl"])
def test_generator_is_deterministic(workload, tmp_path):
    files = {}
    for tag in ("a", "b"):
        work = tmp_path / tag
        work.mkdir()
        prep = WORKLOADS[workload](11, work, _no_emit)
        files[tag] = {p.name: p.read_bytes() for p in prep.files}
    assert files["a"] == files["b"]
    assert mc_pairs_texts(11) != mc_pairs_texts(12)
    assert wide_nl_text(11) != wide_nl_text(12)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One default-seed mc_pairs scenario, run once through the CLI."""
    work = tmp_path_factory.mktemp("small")
    stem, mode, text = mc_pairs_texts(DEFAULT_SEED)[1]
    path = work / f"{stem}.scn"
    path.write_text(text, encoding="utf-8")
    run = ScenarioRun(path, work / "out", mode, n=3, l=1,
                      steps=round(MC_T_END / H))
    prep = Prepared(files=[path], calls=[["run", str(path), "-o",
                                          str(run.out_dir)]], runs=[run])
    it = bench.run_iteration(prep, work, check.load_reference("mc_pairs"),
                             False, 0)
    assert it.errors == []
    return prep, run, check.load_reference("mc_pairs")["runs"][path.name]


def _rewrite_trace(run, edit):
    trace = run.out_dir / "trace.csv"
    lines = trace.read_text(encoding="utf-8").splitlines()
    edit(lines)
    copy = dataclasses.replace(run, out_dir=run.out_dir.parent / "edited")
    if copy.out_dir.exists():
        for f in copy.out_dir.iterdir():
            f.unlink()
    else:
        copy.out_dir.mkdir()
    for f in run.out_dir.iterdir():
        (copy.out_dir / f.name).write_bytes(f.read_bytes())
    (copy.out_dir / "trace.csv").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
    return copy


def test_checker_accepts_the_reference_run(small_run):
    _, run, ref = small_run
    errors, sha = check.check_run(run, H, ref)
    assert errors == []
    assert sha == ref["sha256"]


def test_checker_rejects_a_perturbed_trace(small_run):
    _, run, ref = small_run
    row = 1 + check.sample_indices(run.steps)[4]  # +1 skips the header

    def perturb(lines):
        cells = lines[row].split(",")
        cells[7] = repr(float(cells[7]) * (1 + 1e-5) + 1e-9)
        lines[row] = ",".join(cells)

    errors, _ = check.check_run(_rewrite_trace(run, perturb), H, ref)
    assert any("differ from the reference" in e for e in errors)


def _set(i, make):
    return lambda lines: lines.__setitem__(i, make(lines[i]))


@pytest.mark.parametrize("edit, message", [
    (_set(0, lambda line: line.replace("xd1", "xd0")), "header"),
    (_set(5, lambda line: line + ",0"), "unreadable"),
    (_set(7, lambda line: "nan" + line[line.index(","):]), "non-finite"),
    (lambda lines: lines.pop(), "shape"),
])
def test_checker_rejects_broken_structure(small_run, edit, message):
    _, run, _ = small_run
    errors, _ = check.check_run(_rewrite_trace(run, edit), H, None)
    assert any(message in e for e in errors), errors


def test_self_time_is_span_minus_children():
    spans = [
        {"id": 1, "name": "root", "start": 0.0, "end": 10.0, "parent": 0},
        {"id": 2, "name": "a", "start": 1.0, "end": 3.0, "parent": 1},
        {"id": 3, "name": "b", "start": 2.0, "end": 4.0, "parent": 1},
        {"id": 4, "name": "c", "start": 6.0, "end": 7.0, "parent": 1},
        {"id": 5, "name": "grandchild", "start": 6.2, "end": 6.7, "parent": 4},
    ]
    aggregates = [
        {"id": 6, "name": "hot", "parent": 1, "count": 10, "total": 1.5},
        {"id": 7, "name": "leaf", "parent": 6, "count": 40, "total": 0.5},
    ]
    st = self_times(spans, aggregates)
    # children of root cover [1, 4] and [6, 7]; the aggregate adds 1.5
    assert st[1] == pytest.approx(10.0 - 3.0 - 1.0 - 1.5)
    assert st[2] == pytest.approx(2.0)
    assert st[4] == pytest.approx(1.0 - 0.5)
    assert st[5] == pytest.approx(0.5)
    assert st[6] == pytest.approx(1.0)
    assert st[7] == pytest.approx(0.5)


COUNT_METRICS = ("exprlang.evals_per_step", "engine.rhs_calls_per_step",
                 "controller.gains_for_calls_per_scenario",
                 "cli.trace_csv_bytes", "svgplot.points_drawn")


def test_count_metrics_repeat_over_traced_runs(small_run, tmp_path):
    prep, _, _ = small_run
    layers = [bench.run_iteration(prep, tmp_path, check.NO_REFERENCE,
                                 True, i).layers
              for i in range(2)]
    for name in COUNT_METRICS:
        assert layers[0][name] == layers[1][name] > 0, name
    assert set(layers[0]) | {"tracing_overhead_s",
                             "cli.trace_identical_frac"} == set(
        bench.metric_units("per_layer")) | set(bench.UNLISTED_LAYER_UNITS)
