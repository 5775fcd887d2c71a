"""Output checks for benchmark iterations.

Every run is checked for structure: the trace.csv header and row count,
finite values, the time column on the step grid, metrics.txt fields, the
four SVG charts, and `uub_satisfied = yes` on faulty_with_va runs; every
`verify` call must certify both conditions.

references/<workload>.json holds values recorded from the program on the
default seed, keyed by scenario file and applied to any run whose scenario
file is byte-identical (so `stock_va` is compared on every seed): a fixed sample of trace rows, metrics.txt and
verify.csv. They are compared with a tolerance tight enough that a wrong
result fails, while a refactor that only moves the last bits passes. The
sha256 of each trace is compared too, but only reported (byte identity is
a ROADMAP gate, not a correctness condition here).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from workloads import ScenarioRun, VerifyRun

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
CHARTS = ("output.svg", "states.svg", "xtilde.svg", "adaptation.svg")
SAMPLE_ROWS = 9
ROW_RTOL, ROW_ATOL = 1e-7, 1e-10
METRIC_RTOL, METRIC_ATOL = 1e-5, 1e-10
VERIFY_RTOL, VERIFY_ATOL = 1e-7, 1e-10


def expected_header(n: int, l: int) -> str:
    def block(prefix, count, single=False):
        if count == 1 and single:
            return [prefix]
        return [f"{prefix}{i + 1}" for i in range(count)]

    cols = (["t"] + block("xd", n) + block("xhat", n) + block("xf", n)
            + ["u", "uf"] + block("M", n) + ["N", "dhat", "e_norm",
                                             "xtilde_norm"]
            + block("yd", l, True) + block("yhat", l, True)
            + block("yf", l, True))
    return ",".join(cols)


def sample_indices(steps: int) -> list[int]:
    return sorted({round(i * steps / (SAMPLE_ROWS - 1))
                   for i in range(SAMPLE_ROWS)})


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


NO_REFERENCE = {"runs": {}, "verifies": {}}


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return NO_REFERENCE
    return json.loads(path.read_text(encoding="utf-8"))


def reference_for(entries: dict, scenario: Path) -> dict | None:
    """The recorded entry for this scenario, if its input is byte-identical."""
    entry = entries.get(scenario.name)
    if entry is None or entry["input_sha256"] != file_sha256(scenario):
        return None
    return entry


_EVENT = re.compile(r"^event at=(\S+)s kind=(\S+)\s+peak=(\S+)\s+"
                    r"recovery=(not-recovered|\S+ s)$")


def parse_metrics(text: str) -> dict:
    """metrics.txt -> {key: value, 'events': [(at, kind, peak, recovery)]}."""
    out: dict = {"events": []}
    for line in text.splitlines():
        m = _EVENT.match(line)
        if m:
            rec = m.group(4)
            out["events"].append((float(m.group(1)), m.group(2),
                                  float(m.group(3)),
                                  None if rec == "not-recovered"
                                  else float(rec[:-2])))
        elif "=" in line:
            key, _, value = line.partition("=")
            value = value.strip()
            out[key.strip()] = value if value in ("yes", "no") else float(value)
        else:
            raise ValueError(f"unrecognised metrics line {line!r}")
    return out


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def compare_metrics(actual: dict, ref: dict, h: float) -> list[str]:
    errors = []
    for key in ("sup_e_tail", "sup_xtilde_tail", "uub_bound"):
        if not _close(actual[key], ref[key], METRIC_RTOL, METRIC_ATOL):
            errors.append(f"{key} = {actual[key]!r}, reference {ref[key]!r}")
    if actual["uub_satisfied"] != ref["uub_satisfied"]:
        errors.append("uub_satisfied differs from the reference")
    if len(actual["events"]) != len(ref["events"]):
        return errors + ["event count differs from the reference"]
    for got, want in zip(actual["events"], ref["events"]):
        at, kind, peak, rec = got
        if (at != want[0] or kind != want[1]
                or not _close(peak, want[2], METRIC_RTOL, METRIC_ATOL)
                or (rec is None) != (want[3] is None)
                or (rec is not None and abs(rec - want[3]) > 2 * h)):
            errors.append(f"event {got} differs from reference {tuple(want)}")
    return errors


def _check_charts(out_dir: Path) -> list[str]:
    errors = []
    for name in CHARTS:
        path = out_dir / name
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            errors.append(f"{name}: {exc}")
            continue
        lines = [el for el in root.iter() if el.tag.endswith("polyline")]
        if not root.tag.endswith("svg") or not lines or not all(
                el.get("points", "").strip() for el in lines):
            errors.append(f"{name}: no drawn series")
    return errors


def check_run(run: ScenarioRun, h: float, ref: dict | None
              ) -> tuple[list[str], str | None]:
    """Errors found in one scenario's outputs, and its trace sha256."""
    trace = run.out_dir / "trace.csv"
    try:
        raw = trace.read_bytes()
        metrics_text = (run.out_dir / "metrics.txt").read_text(encoding="utf-8")
    except OSError as exc:
        return [f"missing output: {exc}"], None
    sha = hashlib.sha256(raw).hexdigest()
    errors = []
    columns = expected_header(run.n, run.l)
    header, _, body = raw.partition(b"\n")
    if header.decode(errors="replace") != columns:
        errors.append(f"trace.csv header {header[:80]!r}...")
    try:
        data = np.loadtxt(body.decode().splitlines(), delimiter=",", ndmin=2)
    except ValueError as exc:
        return errors + [f"trace.csv unreadable: {exc}"], sha
    if data.shape != (run.steps + 1, len(columns.split(","))):
        errors.append(f"trace.csv shape {data.shape}")
    elif not np.isfinite(data).all():
        errors.append("trace.csv has non-finite values")
    elif not np.allclose(data[:, 0], np.arange(run.steps + 1) * h,
                         rtol=0.0, atol=1e-9):
        errors.append("trace.csv time column is off the step grid")
    try:
        metrics = parse_metrics(metrics_text)
        if not all(math.isfinite(metrics[k]) for k in
                   ("sup_e_tail", "sup_xtilde_tail", "uub_bound")):
            errors.append("metrics.txt has non-finite values")
        if run.mode == "faulty_with_va" and metrics["uub_satisfied"] != "yes":
            errors.append("ultimate bound not satisfied")
    except (KeyError, ValueError) as exc:
        return errors + [f"metrics.txt: {exc}"], sha
    errors += _check_charts(run.out_dir)

    if ref is not None and not errors:
        want = np.array([[float(v) for v in line.split(",")]
                         for line in ref["rows"]])
        idx = sample_indices(run.steps)
        if want.shape != (len(idx), data.shape[1]):
            errors.append("reference rows do not match the trace shape")
        elif not np.allclose(data[idx], want, rtol=ROW_RTOL, atol=ROW_ATOL):
            worst = np.max(np.abs(data[idx] - want)
                           / (ROW_ATOL + ROW_RTOL * np.abs(want)))
            errors.append(f"trace rows differ from the reference "
                          f"({worst:.3g} x tolerance)")
        errors += compare_metrics(metrics, parse_metrics(ref["metrics"]), h)
    return errors, sha


def parse_verify_csv(text: str) -> dict[tuple[str, str], list[str]]:
    rows = text.splitlines()
    if not rows or rows[0] != "label,field,values":
        raise ValueError("verify.csv header")
    out = {}
    for row in rows[1:]:
        label, field, *values = row.split(",")
        out[(label, field)] = values
    return out


def check_verify(v: VerifyRun, ref: dict | None) -> list[str]:
    try:
        rows = parse_verify_csv((v.out_dir / "verify.csv").read_text(
            encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"verify.csv: {exc}"]
    errors = []
    for label in ("Theorem1", "Theorem5"):
        if rows.get((label, "verdict")) != ["certified"]:
            errors.append(f"{label} not certified")
        try:
            eig = [float(x) for x in rows.get((label, "eig_Q"), [])]
        except ValueError:
            eig = []
        if not eig or not all(math.isfinite(x) and x > 0 for x in eig):
            errors.append(f"{label} eig_Q not positive: {eig}")
        if ref is not None and not errors:
            want = [float(x) for x in
                    parse_verify_csv(ref["verify_csv"])[(label, "eig_Q")]]
            if len(eig) != len(want) or not np.allclose(
                    eig, want, rtol=VERIFY_RTOL, atol=VERIFY_ATOL):
                errors.append(f"{label} eig_Q {eig} differs from {want}")
    return errors
