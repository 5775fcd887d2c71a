"""Line-oriented scenario file format: load, emit, and the stock scenario.

Sections are introduced by bracketed headers; entries are `key = value`
lines. Matrices are row-major with `;` between rows and whitespace between
entries. Fault lines carry their own key-value pairs, e.g.

    [faults]
    at = 15 kind = loss theta = 0.65
    at = 25 kind = additive signal = 0.5*sin(2*t)

Unknown sections or keys are rejected. `P = auto` in [adaptation] solves
the Lyapunov equation A^T P + P A = -I for the weight instead of reading
rows. Lines starting with `#` are comments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import engine, exprlang, verify
from .engine import Scenario
from .exprlang import Expr, ExprError
from .faults import EVENT_KINDS, FaultSchedule, LossOfEffectiveness
from .plant import (DisturbanceChannel, LinearCore, NonlinearPair,
                    ReferenceModel)
from .virtual_actuator import AdaptationConfig


class ScenarioError(ValueError):
    """Scenario file problem; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_SECTIONS = {
    "system": {"n", "A", "b", "C"},
    "nonlinearity": {"f", "g", "g_min"},
    "reference": {"A_d", "B_d", "r"},
    "disturbance_channel": {"mode", "E", "scale"},
    "adaptation": {"gamma1", "gamma2", "gamma3", "P", "P1",
                   "theta_design", "d_tilde_max", "d_dot_max"},
    "faults": set(),
    "run": {"t_end", "h", "mode", "x0_hat", "x0_f", "x0_d", "eps_band"},
}

_FAULT_LINE = re.compile(
    r"^at\s*=\s*(?P<at>[^\s]+)\s+kind\s*=\s*(?P<kind>\w+)\s+"
    r"(?:theta\s*=\s*(?P<theta>[^\s]+)|signal\s*=\s*(?P<signal>.+))$")


@dataclass
class LoadedScenario:
    """A Scenario plus the extra per-file data that is not part of a run."""

    scenario: Scenario
    P1: np.ndarray | None  # optional separate weight for the nominal check
    p_auto: bool           # whether P came from `P = auto`


def _parse_number(text: str, line: int, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    # nan, inf and overflowing literals such as 1e999 are rejected as well
    if not math.isfinite(value):
        raise ScenarioError(line, f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_matrix(text: str, line: int, key: str) -> np.ndarray:
    rows = []
    for chunk in text.split(";"):
        entries = chunk.split()
        if not entries:
            raise ScenarioError(line, f"{key}: empty matrix row")
        rows.append([_parse_number(v, line, key) for v in entries])
    if len({len(r) for r in rows}) != 1:
        raise ScenarioError(line, f"{key}: ragged matrix rows")
    return np.array(rows)

def _parse_vector(text: str, line: int, key: str) -> np.ndarray:
    return _parse_matrix(text, line, key).reshape(-1)


def _parse_expr(text: str, n: int, line: int, key: str) -> Expr:
    try:
        return exprlang.parse(text, n)
    except ExprError as exc:
        raise ScenarioError(line, f"{key}: {exc}") from exc


class _Raw:
    """Sectioned key/value view of the file with line bookkeeping."""

    def __init__(self):
        self.values: dict[str, dict[str, tuple[str, int]]] = {
            name: {} for name in _SECTIONS}
        self.fault_lines: list[tuple[str, int]] = []
        self.section_lines: dict[str, int] = {}

    def get(self, section: str, key: str, default: str | None = None
            ) -> tuple[str, int]:
        if key in self.values[section]:
            return self.values[section][key]
        if default is not None:
            return default, self.section_lines.get(section, 0)
        line = self.section_lines.get(section, 0)
        raise ScenarioError(line, f"missing key {key!r} in [{section}]")

    def has(self, section: str, key: str) -> bool:
        return key in self.values[section]


def _scan(text: str) -> _Raw:
    raw = _Raw()
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            name = stripped.strip("[]").strip()
            if name not in _SECTIONS:
                raise ScenarioError(lineno, f"unknown section [{name}]")
            section = name
            raw.section_lines.setdefault(name, lineno)
            continue
        if section is None:
            raise ScenarioError(lineno, "content before any [section] header")
        if section == "faults":
            raw.fault_lines.append((stripped, lineno))
            continue
        if "=" not in stripped:
            raise ScenarioError(lineno, "expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTIONS[section]:
            raise ScenarioError(lineno, f"unknown key {key!r} in [{section}]")
        if key in raw.values[section]:
            raise ScenarioError(lineno, f"duplicate key {key!r} in [{section}]")
        raw.values[section][key] = (value, lineno)
    return raw


def loads(text: str) -> LoadedScenario:
    """Parse scenario text; raises ScenarioError with a line number."""
    raw = _scan(text)
    for required in ("system", "nonlinearity", "reference", "adaptation", "run"):
        if required not in raw.section_lines:
            raise ScenarioError(0, f"missing section [{required}]")

    val, line = raw.get("system", "n")
    n = int(_parse_number(val, line, "n"))
    if n <= 0:
        raise ScenarioError(line, "n must be a positive integer")

    def matrix(section, key):
        v, ln = raw.get(section, key)
        return _parse_matrix(v, ln, key), ln

    def vector(section, key):
        v, ln = raw.get(section, key)
        return _parse_vector(v, ln, key), ln

    def number(section, key, default=None):
        v, ln = raw.get(section, key, default)
        return _parse_number(v, ln, key), ln

    A, a_line = matrix("system", "A")
    b, _ = vector("system", "b")
    C, _ = matrix("system", "C")
    try:
        core = LinearCore(A=A, b=b, C=C)
    except ValueError as exc:
        raise ScenarioError(a_line, str(exc)) from exc
    if core.n != n:
        raise ScenarioError(a_line, f"A is {core.n}x{core.n} but n = {n}")

    f_src, f_line = raw.get("nonlinearity", "f")
    g_src, g_line = raw.get("nonlinearity", "g")
    g_min, _ = number("nonlinearity", "g_min", "1e-6")
    try:
        nl = NonlinearPair(f=_parse_expr(f_src, n, f_line, "f"),
                           g=_parse_expr(g_src, n, g_line, "g"),
                           g_min=g_min)
    except ValueError as exc:
        raise ScenarioError(g_line, str(exc)) from exc

    A_d, ad_line = matrix("reference", "A_d")
    B_d, _ = vector("reference", "B_d")
    try:
        ref = ReferenceModel(A_d=A_d, B_d=B_d)
    except ValueError as exc:
        raise ScenarioError(ad_line, str(exc)) from exc
    r_src, r_line = raw.get("reference", "r")
    r_signal = _parse_expr(r_src, 0, r_line, "r")

    if "disturbance_channel" in raw.section_lines:
        mode, mode_line = raw.get("disturbance_channel", "mode", "matched")
        if mode == "matched":
            scale, _ = number("disturbance_channel", "scale", "0")
            channel = DisturbanceChannel(mode="matched", scale=scale)
        elif mode == "constant":
            E, _ = vector("disturbance_channel", "E")
            channel = DisturbanceChannel(mode="constant", E=E)
        else:
            raise ScenarioError(mode_line, f"unknown channel mode {mode!r}")
    else:
        channel = DisturbanceChannel(mode="matched", scale=0.0)

    gamma1, _ = number("adaptation", "gamma1")
    gamma2, _ = number("adaptation", "gamma2")
    gamma3, _ = number("adaptation", "gamma3")
    p_src, p_line = raw.get("adaptation", "P")
    p_auto = p_src.strip() == "auto"
    if p_auto:
        try:
            P, _rep = verify.synthesize_p(core.A)
        except ValueError as exc:
            raise ScenarioError(p_line, f"P = auto failed: {exc}") from exc
    else:
        P = _parse_matrix(p_src, p_line, "P")
    theta_design, _ = number("adaptation", "theta_design", "0.5")
    d_tilde_max, _ = number("adaptation", "d_tilde_max", "0")
    d_dot_max, _ = number("adaptation", "d_dot_max", "0")
    try:
        adaptation = AdaptationConfig(
            gamma1=gamma1, gamma2=gamma2, gamma3=gamma3, P=P,
            theta_design=theta_design, d_tilde_max=d_tilde_max,
            d_dot_max=d_dot_max)
    except ValueError as exc:
        raise ScenarioError(p_line, str(exc)) from exc

    P1 = None
    if raw.has("adaptation", "P1"):
        p1_src, p1_line = raw.get("adaptation", "P1")
        P1 = _parse_matrix(p1_src, p1_line, "P1")

    events = []
    for text_line, lineno in raw.fault_lines:
        m = _FAULT_LINE.match(text_line)
        if not m:
            raise ScenarioError(
                lineno, f"expected 'at = <t> kind = <{'|'.join(EVENT_KINDS)}> "
                        "theta = <v> | signal = <expr>'")
        at = _parse_number(m.group("at"), lineno, "at")
        kind = m.group("kind")
        cls = EVENT_KINDS.get(kind)
        if cls is None:
            raise ScenarioError(lineno, f"unknown fault kind {kind!r}")
        if cls is LossOfEffectiveness:
            if m.group("theta") is None:
                raise ScenarioError(lineno, "loss event needs theta = <v>")
            value = {"theta": _parse_number(m.group("theta"), lineno, "theta")}
        else:
            if m.group("signal") is None:
                raise ScenarioError(lineno, f"{kind} event needs signal = <expr>")
            value = {"signal": _parse_expr(m.group("signal").strip(), 0, lineno,
                                           "signal")}
        try:
            events.append(cls(at=at, **value))
        except ValueError as exc:
            raise ScenarioError(lineno, str(exc)) from exc
    schedule = FaultSchedule(tuple(events))

    t_end, _ = number("run", "t_end")
    h, _ = number("run", "h")
    mode_val, mode_line = raw.get("run", "mode", engine.MODE_FAULTY_WITH_VA)
    x_hat0, _ = vector("run", "x0_hat")
    x_d0, _ = vector("run", "x0_d")
    if raw.has("run", "x0_f"):
        x_f0, _ = vector("run", "x0_f")
    else:
        x_f0 = x_hat0.copy()
    eps_band, _ = number("run", "eps_band", "0.05")

    try:
        scenario = Scenario(
            core=core, nl=nl, ref=ref, channel=channel, adaptation=adaptation,
            schedule=schedule, r_signal=r_signal, x_hat0=x_hat0, x_f0=x_f0,
            x_d0=x_d0, t_end=t_end, h=h, mode=mode_val, eps_band=eps_band)
    except ValueError as exc:
        raise ScenarioError(raw.section_lines["run"], str(exc)) from exc
    return LoadedScenario(scenario=scenario, P1=P1, p_auto=p_auto)


def load(path) -> LoadedScenario:
    """Load a scenario file from disk (I/O errors propagate as OSError)."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# Emission


def _fmt_num(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_matrix(M: np.ndarray) -> str:
    M = np.atleast_2d(M)
    return " ; ".join(" ".join(_fmt_num(v) for v in row) for row in M)


def _fmt_expr(e: Expr) -> str:
    return e.source if e.source else exprlang.format_expr(e)


def emit(loaded: LoadedScenario | Scenario) -> str:
    """Render a scenario back to file text; load(emit(load(f))) == load(f)."""
    if isinstance(loaded, Scenario):
        loaded = LoadedScenario(scenario=loaded, P1=None, p_auto=False)
    s = loaded.scenario
    out = []
    out.append("[system]")
    out.append(f"n = {s.core.n}")
    out.append(f"A = {_fmt_matrix(s.core.A)}")
    out.append(f"b = {' ; '.join(_fmt_num(v) for v in s.core.b)}")
    out.append(f"C = {_fmt_matrix(s.core.C)}")
    out.append("")
    out.append("[nonlinearity]")
    out.append(f"f = {_fmt_expr(s.nl.f)}")
    out.append(f"g = {_fmt_expr(s.nl.g)}")
    out.append(f"g_min = {repr(s.nl.g_min)}")
    out.append("")
    out.append("[reference]")
    out.append(f"A_d = {_fmt_matrix(s.ref.A_d)}")
    out.append(f"B_d = {' ; '.join(_fmt_num(v) for v in s.ref.B_d)}")
    out.append(f"r = {_fmt_expr(s.r_signal)}")
    out.append("")
    out.append("[disturbance_channel]")
    out.append(f"mode = {s.channel.mode}")
    if s.channel.mode == "matched":
        out.append(f"scale = {_fmt_num(s.channel.scale)}")
    else:
        out.append(f"E = {' ; '.join(_fmt_num(v) for v in s.channel.E)}")
    out.append("")
    out.append("[adaptation]")
    cfg = s.adaptation
    out.append(f"gamma1 = {_fmt_num(cfg.gamma1)}")
    out.append(f"gamma2 = {_fmt_num(cfg.gamma2)}")
    out.append(f"gamma3 = {_fmt_num(cfg.gamma3)}")
    out.append(f"P = {_fmt_matrix(cfg.P)}")
    if loaded.P1 is not None:
        out.append(f"P1 = {_fmt_matrix(loaded.P1)}")
    out.append(f"theta_design = {_fmt_num(cfg.theta_design)}")
    out.append(f"d_tilde_max = {_fmt_num(cfg.d_tilde_max)}")
    out.append(f"d_dot_max = {_fmt_num(cfg.d_dot_max)}")
    out.append("")
    out.append("[faults]")
    for ev in s.schedule.events:
        if isinstance(ev, LossOfEffectiveness):
            value = f"theta = {_fmt_num(ev.theta)}"
        else:
            value = f"signal = {_fmt_expr(ev.signal)}"
        out.append(f"at = {_fmt_num(ev.at)} kind = {ev.kind} {value}")
    out.append("")
    out.append("[run]")
    out.append(f"t_end = {_fmt_num(s.t_end)}")
    out.append(f"h = {repr(s.h)}")
    out.append(f"mode = {s.mode}")
    out.append(f"x0_hat = {' '.join(_fmt_num(v) for v in s.x_hat0)}")
    out.append(f"x0_f = {' '.join(_fmt_num(v) for v in s.x_f0)}")
    out.append(f"x0_d = {' '.join(_fmt_num(v) for v in s.x_d0)}")
    out.append(f"eps_band = {repr(s.eps_band)}")
    out.append("")
    return "\n".join(out)


def default_scenario_text() -> str:
    """The stock three-state study: loss of 35% actuator effectiveness at
    15 s, a unit-step matched disturbance at 20 s, and a persistent
    0.5*sin(2t) additive actuator fault at 25 s."""
    loaded = loads(_DEFAULT_TEMPLATE)
    return emit(loaded)


_DEFAULT_TEMPLATE = """
[system]
n = 3
A = 0 1 0 ; 0 0 1 ; -1 -2 -3
b = 0 ; 0 ; 1
C = 1 1 1

[nonlinearity]
f = 0.05*sin(x3)
g = 0.5*sin(t)+4
g_min = 1e-06

[reference]
A_d = 0 1 0 ; 0 0 1 ; -1 -2 -4
B_d = 0 ; 0 ; 1
r = step(t)

[disturbance_channel]
mode = matched
scale = 0.5

[adaptation]
gamma1 = 20
gamma2 = 200
gamma3 = 1000
P = 2.8 2.6 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1
theta_design = 0.5
d_tilde_max = 2.5
d_dot_max = 1

[faults]
at = 15 kind = loss theta = 0.65
at = 20 kind = disturbance signal = 1
at = 25 kind = additive signal = 0.5*sin(2*t)

[run]
t_end = 40
h = 0.001
mode = faulty_with_va
x0_hat = 0 0 0
x0_f = 0 0 0
x0_d = 0 0 0
eps_band = 0.05
"""
