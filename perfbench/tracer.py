"""Outside-in layer tracing for one ftcsim process.

Wrappers replace public functions on the `ftcsim` modules, so the program
itself is unchanged: the engine and CLI look these functions up through
their modules at call time and so reach the wrappers.

Coarse calls (load, run, metrics, charts, ...) become spans with a name,
start, end, parent and run id. Hot calls (RK4 steps, their right-hand-side
stages, compiled expression closures) run hundreds of thousands of times,
so they are folded into one aggregate per (parent, name) holding a call
count and total time. Spans and aggregates share one id space, so an
aggregate can be the parent of another. Everything stays in memory until
`Tracer.dump` writes it out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

ROOT_ID = 0


class Tracer:
    """In-memory span and aggregate recorder for one run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[int, str], list] = {}  # -> [id, count, total]
        self.counters: dict[str, float] = defaultdict(float)
        self.charts: list[str] = []
        self._stack = [ROOT_ID]
        self._next_id = ROOT_ID + 1

    def _new_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    def open(self, name: str) -> tuple[int, str, int, float]:
        sid = self._new_id()
        frame = (sid, name, self._stack[-1], self.clock())
        self._stack.append(sid)
        return frame

    def close(self, frame) -> None:
        end = self.clock()
        sid, name, parent, start = frame
        self._stack.pop()
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": parent, "run": self.run_id})

    def record(self, name: str, start: float, end: float) -> None:
        """Add an already-timed span under the current parent."""
        self.spans.append({"id": self._new_id(), "name": name, "start": start,
                           "end": end, "parent": self._stack[-1],
                           "run": self.run_id})

    def aggregate(self, name: str) -> list:
        """The [id, count, total] cell for `name` under the current parent."""
        key = (self._stack[-1], name)
        cell = self.aggregates.get(key)
        if cell is None:
            cell = self.aggregates[key] = [self._new_id(), 0, 0.0]
        return cell

    def dump(self, path) -> None:
        data = {
            "run": self.run_id,
            "spans": self.spans,
            "aggregates": [{"id": cell[0], "name": name, "parent": parent,
                            "count": cell[1], "total": cell[2],
                            "run": self.run_id}
                           for (parent, name), cell in self.aggregates.items()],
            "counters": dict(self.counters),
            "charts": self.charts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict], aggregates: list[dict]) -> dict[int, float]:
    """Self time of every span and aggregate, keyed by id.

    A span's self time is its duration minus the part of that interval its
    child spans cover, minus the total time of its child aggregates (hot
    calls run one after another, so their totals do not overlap). An
    aggregate's self time is its total minus its children's durations.
    """
    child_spans = defaultdict(list)
    for s in spans:
        child_spans[s["parent"]].append((s["start"], s["end"]))
    child_agg = defaultdict(float)
    for a in aggregates:
        child_agg[a["parent"]] += a["total"]
    out = {}
    for s in spans:
        dur = s["end"] - s["start"]
        out[s["id"]] = (dur - _covered(child_spans[s["id"]], s["start"], s["end"])
                        - child_agg[s["id"]])
    for a in aggregates:
        spanned = sum(b - a_ for a_, b in child_spans[a["id"]])
        out[a["id"]] = a["total"] - spanned - child_agg[a["id"]]
    return out


# -- wrappers ---------------------------------------------------------------

def _wrap_span(tracer: Tracer, fn, name: str, on_call=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if on_call is not None:
            on_call(*args, **kwargs)
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)
    return traced


def _wrap_hot(tracer: Tracer, fn, name: str):
    """Fold every call into the aggregate `name` under the caller's parent."""
    stack = tracer._stack
    clock = tracer.clock

    def traced(*args, **kwargs):
        cell = tracer.aggregate(name)
        stack.append(cell[0])
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            cell[2] += clock() - start
            cell[1] += 1
            stack.pop()
    return traced


def _wrap_rk4_step(tracer: Tracer, fn):
    @functools.wraps(fn)
    def rk4_step(deriv, *args, **kwargs):
        return fn(_wrap_hot(tracer, deriv, "engine.rhs"), *args, **kwargs)
    return _wrap_hot(tracer, rk4_step, "numerics.rk4_step")


def _wrap_trace_lines(tracer: Tracer, fn):
    """Time the iteration of the trace.csv line generator, not its call."""
    @functools.wraps(fn)
    def trace_csv_lines(*args, **kwargs):
        lines = fn(*args, **kwargs)
        frame = tracer.open("cli.trace_csv")
        nbytes = 0
        try:
            for line in lines:
                nbytes += len(line) + 1
                yield line
        finally:
            tracer.close(frame)
            tracer.counters["cli.trace_csv_bytes"] += nbytes
    return trace_csv_lines


def _expr_role(loaded_exprs: list[tuple[object, str]], expr) -> str:
    for known, role in loaded_exprs:
        if known is expr:
            return role
    return "other"


def install(tracer: Tracer, ftcsim_modules: dict) -> None:
    """Replace the traced public functions on the given ftcsim modules.

    `ftcsim_modules` maps short module names (`cli`, `engine`, ...) to the
    imported modules. A function the program no longer has is skipped with
    a note on stderr, and its metrics read 0.
    """
    roles: list[tuple[object, str]] = []

    def remember_roles(loaded):
        s = loaded.scenario
        roles.extend([(s.nl.f, "f"), (s.nl.g, "g"), (s.r_signal, "r")])
        roles.extend((ev.signal, "fault") for ev in s.schedule.events
                     if hasattr(ev, "signal"))

    def replace(module_name: str, attr: str, make):
        module = ftcsim_modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {module_name}.{attr} not found, not traced",
                  file=sys.stderr)
            return
        setattr(module, attr, make(fn))

    def record_chart(path, *args, **kwargs):
        tracer.charts.append(str(path))

    def traced_load(fn):
        span = _wrap_span(tracer, fn, "scenario_io.load")

        @functools.wraps(fn)
        def load(*args, **kwargs):
            loaded = span(*args, **kwargs)
            remember_roles(loaded)
            return loaded
        return load

    def traced_compile(fn):
        @functools.wraps(fn)
        def compile_expr(expr):
            name = f"exprlang.eval.{_expr_role(roles, expr)}"
            return _wrap_hot(tracer, fn(expr), name)
        return compile_expr

    replace("scenario_io", "load", traced_load)
    replace("verify", "synthesize_p",
            lambda fn: _wrap_span(tracer, fn, "verify.synthesize_p"))
    replace("verify", "check_condition",
            lambda fn: _wrap_span(tracer, fn, "verify.check_condition"))
    replace("controller", "gains_for",
            lambda fn: _wrap_span(tracer, fn, "controller.gains_for"))
    replace("engine", "run", lambda fn: _wrap_span(tracer, fn, "engine.run"))
    replace("engine", "metrics",
            lambda fn: _wrap_span(tracer, fn, "engine.metrics"))
    replace("numerics", "rk4_step", lambda fn: _wrap_rk4_step(tracer, fn))
    replace("exprlang", "compile_expr", traced_compile)
    replace("cli", "trace_csv_lines", lambda fn: _wrap_trace_lines(tracer, fn))
    replace("svgplot", "write_chart",
            lambda fn: _wrap_span(tracer, fn, "svgplot.write_chart",
                                  record_chart))
