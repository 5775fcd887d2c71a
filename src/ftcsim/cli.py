"""Command-line interface.

Verbs:
  run           simulate scenario file(s), write trace.csv, metrics.txt
                and the SVG chart set
  verify        print the Lyapunov condition reports for a scenario
  gains         print the model-matching gains and residuals
  emit-default  write the stock three-state actuator-fault study

Exit codes: 0 success (for verify: certified), 1 not certified / matching
failed, 2 scenario parse error or rejected override, 3 numerical abort,
4 I/O error. A batch run exits with the highest code of its scenarios.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import engine, scenario_io, svgplot, verify
from .controller import (InputGainTooSmall, MatchingConditionViolated,
                         synthesize_gains)
from .engine import Metrics, Scenario, SimTrace
from .exprlang import DomainError
from .numerics import NonFiniteDerivative
from .scenario_io import ScenarioError

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_CSV_CHUNK_ROWS = 1024


def trace_csv_lines(tr: SimTrace):
    """TraceCSV lines without newlines: the header, then one line per row
    in 17-significant-digit decimal, comma separated."""
    n = tr.x_d.shape[1]
    l = tr.y_d.shape[1]

    def block(prefix, count):
        if count == 1 and prefix in ("yd", "yhat", "yf"):
            return [prefix]
        return [f"{prefix}{i + 1}" for i in range(count)]

    header = (["t"] + block("xd", n) + block("xhat", n) + block("xf", n)
              + ["u", "uf"] + block("M", n) + ["N", "dhat"]
              + ["e_norm", "xtilde_norm"]
              + block("yd", l) + block("yhat", l) + block("yf", l))
    yield ",".join(header)

    e_norm = np.linalg.norm(tr.e, axis=1)
    xt_norm = np.linalg.norm(tr.x_tilde, axis=1)
    columns = [tr.t, tr.x_d, tr.x_hat, tr.x_f, tr.u, tr.u_f, tr.M, tr.N,
               tr.d_hat, e_norm, xt_norm, tr.y_d, tr.y_hat, tr.y_f]
    fmt = ",".join(["%.17g"] * len(header))
    rows = tr.t.shape[0]
    # convert a slice at a time: a whole trace as Python floats would
    # weigh several times the arrays it came from
    for start in range(0, rows, _CSV_CHUNK_ROWS):
        chunk = np.column_stack(
            [c[start:start + _CSV_CHUNK_ROWS] for c in columns])
        for row in chunk.tolist():
            yield fmt % tuple(row)


def render_metrics(m: Metrics) -> str:
    lines = [
        f"sup_e_tail      = {m.sup_e_tail:.6e}",
        f"sup_xtilde_tail = {m.sup_xtilde_tail:.6e}",
        f"uub_bound       = {m.uub_bound:.6e}",
        f"uub_satisfied   = {'yes' if m.uub_satisfied else 'no'}",
    ]
    for ev in m.events:
        rec = ("not-recovered" if ev.recovery_time is None
               else f"{ev.recovery_time:.6g} s")
        lines.append(f"event at={ev.at:g}s kind={ev.kind:<11s} "
                     f"peak={ev.peak:.6e}  recovery={rec}")
    return "\n".join(lines) + "\n"


def _write_run_outputs(tr: SimTrace, s: Scenario, m: Metrics, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "trace.csv", "w", encoding="utf-8", newline="\n") as fh:
        for line in trace_csv_lines(tr):
            fh.write(line)
            fh.write("\n")
    (out_dir / "metrics.txt").write_text(render_metrics(m), encoding="utf-8")

    t = tr.t
    l = tr.y_d.shape[1]
    out_series = []
    for j in range(l):
        suffix = "" if l == 1 else f" {j + 1}"
        out_series += [(f"desired{suffix}", t, tr.y_d[:, j]),
                       (f"nominal{suffix}", t, tr.y_hat[:, j]),
                       (f"faulty{suffix}", t, tr.y_f[:, j])]
    svgplot.write_chart(out_dir / "output.svg", out_series,
                        "Plant outputs", y_label="y")
    n = tr.x_d.shape[1]
    st_series = []
    for i in range(n):
        st_series += [(f"x{i + 1} nominal", t, tr.x_hat[:, i]),
                      (f"x{i + 1} faulty", t, tr.x_f[:, i])]
    svgplot.write_chart(out_dir / "states.svg", st_series,
                        "Nominal and faulty states", y_label="x")
    xt_series = [(f"xtilde{i + 1}", t, tr.x_tilde[:, i]) for i in range(n)]
    xt_series.append(("norm", t, np.linalg.norm(tr.x_tilde, axis=1)))
    svgplot.write_chart(out_dir / "xtilde.svg", xt_series,
                        "State difference faulty - nominal", y_label="xtilde")
    ad_series = [(f"M{i + 1}", t, tr.M[:, i]) for i in range(n)]
    ad_series += [("N", t, tr.N), ("dhat", t, tr.d_hat)]
    svgplot.write_chart(out_dir / "adaptation.svg", ad_series,
                        "Adaptive parameters", y_label="value")


def _run_one(path: str, mode: str | None, eps_band: float | None,
             out_dir: Path) -> int:
    """Run one scenario file; report a failure as `<path>: <error>`."""
    try:
        s = scenario_io.load(path).scenario
        try:
            if mode is not None:
                s = replace(s, mode=mode)
            if eps_band is not None:
                s = replace(s, eps_band=eps_band)
        except ValueError as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        tr = engine.run(s)
        m = engine.metrics(tr, s)
        _write_run_outputs(tr, s, m, out_dir)
    except ScenarioError as exc:
        print(f"{path}: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InputGainTooSmall, NonFiniteDerivative, DomainError,
            MatchingConditionViolated) as exc:
        print(f"{path}: numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"{path}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{path}: {len(tr.t)} rows -> {out_dir}")
    return EXIT_OK


def cmd_run(args) -> int:
    """Run every scenario, even after one fails; exit with the worst code."""
    out_root = Path(args.out)
    paths = args.scenario
    codes = []
    for path in paths:
        out_dir = out_root if len(paths) == 1 else out_root / Path(path).stem
        codes.append(_run_one(path, args.mode, args.eps_band, out_dir))
    return max(codes)


def cmd_verify(args) -> int:
    try:
        loaded = scenario_io.load(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    s = loaded.scenario
    P1 = loaded.P1 if loaded.P1 is not None else s.adaptation.P
    try:
        rep1 = verify.check_condition(s.core.A, P1, verify.LABEL_NOMINAL)
        rep2 = verify.check_condition(s.core.A, s.adaptation.P,
                                      verify.LABEL_RECONFIG)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(verify.render_report(rep1))
    print(verify.render_report(rep2))
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            rows = ["label,field,values"]
            rows += verify.report_csv_rows(rep1)
            rows += verify.report_csv_rows(rep2)
            (out_dir / "verify.csv").write_text("\n".join(rows) + "\n",
                                                encoding="utf-8")
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if (rep1.certified and rep2.certified) else EXIT_NOT_CERTIFIED


def cmd_gains(args) -> int:
    try:
        loaded = scenario_io.load(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    s = loaded.scenario
    try:
        g = synthesize_gains(s.core.A, s.core.b, s.ref.A_d, s.ref.B_d)
    except MatchingConditionViolated as exc:
        print("matching condition violated:")
        print(f"  residual_A = {exc.residual_A:.6e}")
        print(f"  residual_B = {exc.residual_B:.6e}")
        return EXIT_NOT_CERTIFIED
    print(f"k_x        = [{', '.join(format(v, '.12g') for v in g.k_x)}]")
    print(f"k_r        = {g.k_r:.12g}")
    print(f"residual_A = {g.residual_A:.6e}")
    print(f"residual_B = {g.residual_B:.6e}")
    return EXIT_OK


def cmd_emit_default(args) -> int:
    try:
        text = scenario_io.default_scenario_text()
        Path(args.path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ftcsim",
        description="Adaptive virtual-actuator fault-tolerant control "
                    "simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate scenario file(s)")
    run_p.add_argument("scenario", nargs="+", help="scenario file path(s)")
    run_p.add_argument("--mode", choices=engine.MODES, default=None,
                       help="override the scenario's run mode")
    run_p.add_argument("-o", "--out", default="out",
                       help="output directory (default: out)")
    run_p.add_argument("--eps-band", type=float, default=None,
                       help="override the recovery band")
    run_p.set_defaults(fn=cmd_run)

    ver_p = sub.add_parser("verify", help="check the Lyapunov conditions")
    ver_p.add_argument("scenario")
    ver_p.add_argument("-o", "--out", default=None,
                       help="also write verify.csv to this directory")
    ver_p.set_defaults(fn=cmd_verify)

    gain_p = sub.add_parser("gains", help="print model-matching gains")
    gain_p.add_argument("scenario")
    gain_p.set_defaults(fn=cmd_gains)

    emit_p = sub.add_parser("emit-default",
                            help="write the stock scenario file")
    emit_p.add_argument("path")
    emit_p.set_defaults(fn=cmd_emit_default)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
