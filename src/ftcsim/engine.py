"""Coupled closed-loop simulation and trace metrics.

One run integrates the augmented state

    z = [x_d; x_hat; x_f; M; N; d_hat]

with a single fixed-step RK4, so the continuous-time update laws keep the
integrator's order. Fault events must sit on the step grid; within a step
the schedule is evaluated at the stage times, which never straddle an
event interior.

Modes:
  * ``nominal_only``   no faulty plant (x_f mirrors x_hat),
  * ``faulty_no_va``   faulty plant driven directly by the nominal input,
  * ``faulty_with_va`` faulty plant behind the adaptive virtual actuator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import controller, exprlang, faults, numerics
from .controller import InputGainTooSmall, NominalGains
from .exprlang import DomainError, Expr
from .faults import (AdditiveActuator, ExternalDisturbance, FaultSchedule,
                     LossOfEffectiveness)
from .numerics import NonFiniteDerivative
from .plant import (DisturbanceChannel, LinearCore, NonlinearPair,
                    ReferenceModel)
from .virtual_actuator import AdaptationConfig, uub_radius

MODE_NOMINAL_ONLY = "nominal_only"
MODE_FAULTY_NO_VA = "faulty_no_va"
MODE_FAULTY_WITH_VA = "faulty_with_va"
MODES = (MODE_NOMINAL_ONLY, MODE_FAULTY_NO_VA, MODE_FAULTY_WITH_VA)


@dataclass(frozen=True)
class Scenario:
    """Complete description of one experiment."""

    core: LinearCore
    nl: NonlinearPair
    ref: ReferenceModel
    channel: DisturbanceChannel
    adaptation: AdaptationConfig
    schedule: FaultSchedule
    r_signal: Expr
    x_hat0: np.ndarray
    x_f0: np.ndarray
    x_d0: np.ndarray
    t_end: float
    h: float
    mode: str = MODE_FAULTY_WITH_VA
    eps_band: float = 0.05

    def __post_init__(self):
        n = self.core.n
        for name in ("x_hat0", "x_f0", "x_d0"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if v.shape != (n,):
                raise ValueError(f"{name} must have dimension {n}")
            object.__setattr__(self, name, v)
        if self.ref.A_d.shape != (n, n):
            raise ValueError("reference model dimension mismatch")
        if self.adaptation.P.shape != (n, n):
            raise ValueError("adaptation weight P must be n x n")
        if self.nl.f.n_states != n or self.nl.g.n_states != n:
            raise ValueError("f and g must be declared over n state variables")
        if self.r_signal.n_states != 0:
            raise ValueError("r(t) may reference t only")
        if self.channel.mode == "constant" and self.channel.E.shape != (n,):
            raise ValueError("disturbance column E must have dimension n")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # written so that NaN fails too
        if not (0.0 < self.t_end < math.inf and 0.0 < self.h < math.inf):
            raise ValueError("t_end and h must be positive and finite")
        ratio = self.t_end / self.h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError("t_end must be an integer multiple of h")
        if not 0.0 < self.eps_band < math.inf:
            raise ValueError("eps_band must be positive and finite")
        faults.check_grid_alignment(self.schedule, self.h)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.h))

    @cached_property
    def gains(self) -> NominalGains:
        """Model-matching gains, synthesized on first use and then shared
        by run and metrics; raises MatchingConditionViolated."""
        return controller.gains_for(self.core, self.ref)


@dataclass
class SimTrace:
    """Time-indexed record of one run; arrays share the leading axis."""

    t: np.ndarray        # (K+1,)
    x_d: np.ndarray      # (K+1, n)
    x_hat: np.ndarray
    x_f: np.ndarray
    u: np.ndarray        # (K+1,)
    u_f: np.ndarray
    M: np.ndarray        # (K+1, n)
    N: np.ndarray
    d_hat: np.ndarray
    e: np.ndarray        # x_hat - x_d
    x_tilde: np.ndarray  # x_f - x_hat
    y_d: np.ndarray      # (K+1, l)
    y_hat: np.ndarray
    y_f: np.ndarray


@dataclass
class EventMetrics:
    at: float
    kind: str
    peak: float                  # max ||y_f - y_d|| in the event's window
    recovery_time: float | None  # None means never re-entered the band


@dataclass
class Metrics:
    sup_e_tail: float
    sup_xtilde_tail: float
    events: list[EventMetrics]
    uub_bound: float
    uub_satisfied: bool


class _CompiledRhs:
    """The closed-loop dynamics: right-hand side of the augmented ODE.

    This is the one definition the simulation integrates:

        u      = (1/g(x_hat)) (-f(x_hat) + k_r r + k_x . x_hat)
        x_d'   = A_d x_d + B_d r
        x_hat' = A x_hat + b (f(x_hat) + g(x_hat) u)
        u_f    = M . x_tilde + N u - d_hat   (faulty_no_va: u_f = u)
        x_f'   = A x_f + b (f(x_f) + theta g(x_f) (u_f + d_f)) + E d
        M'     = -gamma1 s x_tilde,  N' = -gamma2 s u,  d_hat' = gamma3 s

    with x_tilde = x_f - x_hat and s = g(x_f) b^T P x_tilde. E is the
    constant column, or scale b g(x_f) for a matched channel. theta is
    that of the latest loss event with at <= t (1 before any), d_f and d
    the sums of the additive and disturbance signals with at <= t.
    nominal_only copies x_hat' into x_f'; the adaptive parameters move
    only in faulty_with_va. |g(x_hat)| below g_min raises
    InputGainTooSmall.

    At n ~ 3 interpreter overhead, not arithmetic, dominates, so these
    equations are generated once per scenario as one straight-line Python
    function over floats: z is unpacked into locals, the matrix products
    are unrolled with the model's numbers as constants, and f, g, r and
    the fault signals are inlined through exprlang.Codegen. Every product
    and sum is kept, in the order of a plain loop with 0.0-seeded
    accumulators, so the results are bit-identical to it (signed zeros
    included). `full(t, z)` returns (z', u, u_f), `deriv(t, z)` only z';
    `source` holds the generated code, which tracebacks show.
    """

    def __init__(self, s: Scenario):
        gen = exprlang.Codegen()
        gen.namespace["_InputGainTooSmall"] = InputGainTooSmall
        lines, z_dot = _rhs_lines(s, gen)
        body = "".join(f"    {line}\n" for line in lines)
        self.source = (f"def full(t, z):\n{body}    return {z_dot}, u, u_f\n\n"
                       f"def deriv(t, z):\n{body}    return {z_dot}\n")
        ns = gen.define(self.source, "rhs")
        self.full = ns["full"]
        self.deriv = ns["deriv"]


def _rhs_lines(s: Scenario, gen: exprlang.Codegen) -> tuple[list[str], str]:
    """Body of the generated right-hand side of s (see _CompiledRhs), ending
    with u and u_f assigned, and the source of the z' list it returns."""
    n = s.core.n
    c = gen.const
    A, b = s.core.A, s.core.b
    x_d, x_hat, x_f, M, x_t = ([f"{stem}{i}" for i in range(n)]
                               for stem in ("x_d", "x_hat", "x_f", "M", "x_t"))
    lines = [f"{', '.join(x_d + x_hat + x_f + M)}, N, d_hat = z"]

    def inline(expr: Expr, state: list[str], name: str, out=lines) -> None:
        result = gen.expr(expr.node, "t", lambda k: state[k - 1], out)
        out.append(f"{name} = {result}")

    def dot(seed: str, row, xs: list[str]) -> str:
        """seed + row[0] * xs[0] + ..., summed left to right."""
        return " + ".join([seed] + [f"{c(a)} * {x}" for a, x in zip(row, xs)])

    def assign(names: list[str], values: list[str]) -> None:
        lines.extend(f"{name} = {value}" for name, value in zip(names, values))

    inline(s.r_signal, [], "r")
    inline(s.nl.g, x_hat, "g_hat")
    g_min = c(s.nl.g_min)
    lines += [f"if abs(g_hat) < {g_min}:",
              f"    raise _InputGainTooSmall(f'|g|={{abs(g_hat):.3e}} below "
              f"floor {{{g_min}:.3e}} at t={{t!r}}')"]
    inline(s.nl.f, x_hat, "f_hat")
    gains = s.gains
    lines.append(f"u = ({dot(f'-f_hat + {c(gains.k_r)} * r', gains.k_x, x_hat)})"
                 " / g_hat")
    dx_d, dx_hat, dx_f = ([f"d{x}" for x in xs] for xs in (x_d, x_hat, x_f))
    assign(dx_d, [dot(f"{c(s.ref.B_d[i])} * r", s.ref.A_d[i], x_d)
                  for i in range(n)])
    lines.append("c_nom = f_hat + g_hat * u")
    assign(dx_hat, [dot(f"{c(b[i])} * c_nom", A[i], x_hat) for i in range(n)])

    zeros = ["0.0"] * n
    if s.mode == MODE_NOMINAL_ONLY:
        lines.append("u_f = u")
        return lines, f"[{', '.join(dx_d + dx_hat + dx_hat + zeros)}, 0.0, 0.0]"

    with_va = s.mode == MODE_FAULTY_WITH_VA
    if with_va:
        assign(x_t, [f"{xf} - {xh}" for xf, xh in zip(x_f, x_hat)])
        lines.append(" + ".join(["u_f = N * u - d_hat"]
                                + [f"{m} * {x}" for m, x in zip(M, x_t)]))
    else:
        lines.append("u_f = u")

    lines.append("theta = 1.0")
    for ev in s.schedule.events:
        if isinstance(ev, LossOfEffectiveness):
            lines.append(f"if not {c(ev.at)} > t: theta = {c(ev.theta)}")
    for total, kind in (("d_f", AdditiveActuator), ("d", ExternalDisturbance)):
        lines.append(f"{total} = 0.0")
        for ev in s.schedule.events:
            if isinstance(ev, kind):
                signal: list[str] = []
                inline(ev.signal, [], "sig", signal)
                lines.append(f"if {c(ev.at)} <= t:")
                lines += [f"    {line}" for line in signal]
                lines.append(f"    {total} += sig")
    inline(s.nl.f, x_f, "f_f")
    inline(s.nl.g, x_f, "g_f")
    lines.append("c_f = f_f + theta * g_f * (u_f + d_f)")
    if s.channel.mode == "matched":
        lines.append(f"md = {c(s.channel.scale)} * g_f * d")
        channel = [f"{c(b[i])} * md" for i in range(n)]
    else:
        channel = [f"{c(e)} * d" for e in s.channel.E]
    assign(dx_f, [dot(f"{c(b[i])} * c_f + {channel[i]}", A[i], x_f)
                  for i in range(n)])
    if not with_va:
        return lines, f"[{', '.join(dx_d + dx_hat + dx_f + zeros)}, 0.0, 0.0]"

    cfg = s.adaptation
    P_x_t = [f"({dot('0.0', row, x_t)})" for row in cfg.P]
    lines.append(f"sgn = ({dot('0.0', b, P_x_t)}) * g_f")
    lines.append(f"g1s = -{c(cfg.gamma1)} * sgn")
    dM = [f"g1s * {x}" for x in x_t]
    laws = [f"-{c(cfg.gamma2)} * sgn * u", f"{c(cfg.gamma3)} * sgn"]
    return lines, f"[{', '.join(dx_d + dx_hat + dx_f + dM + laws)}]"


def run(s: Scenario) -> SimTrace:
    """Simulate the scenario and return the full trace.

    Deterministic: the same scenario always produces the bit-identical
    trace. Raises InputGainTooSmall, NonFiniteDerivative or DomainError
    (each tagged with the time) if the run cannot continue.
    """
    n = s.core.n
    rhs = _CompiledRhs(s)
    steps = s.n_steps
    h = s.h

    x_f0 = s.x_hat0 if s.mode == MODE_NOMINAL_ONLY else s.x_f0
    # M = 0, N = 1, d_hat = 0: the virtual actuator starts transparent
    z = (s.x_d0.tolist() + s.x_hat0.tolist() + x_f0.tolist()
         + [0.0] * n + [1.0, 0.0])

    t_grid = np.arange(steps + 1) * h
    Z = np.empty((steps + 1, 4 * n + 2))
    U = np.empty(steps + 1)
    UF = np.empty(steps + 1)

    for k in range(steps + 1):
        t = k * h
        try:
            # the recorded derivative is RK4's first stage
            k1, u, u_f = rhs.full(t, z)
            Z[k] = z
            U[k] = u
            UF[k] = u_f
            if k < steps:
                z = numerics.rk4_step(rhs.deriv, t, z, h, k1)
        except DomainError as exc:
            raise DomainError(f"{exc} (during step starting at t={t})") from exc
        except NonFiniteDerivative as exc:
            raise NonFiniteDerivative(
                f"{exc} (during step starting at t={t})") from exc
        if not all(map(math.isfinite, z)):
            raise NonFiniteDerivative(f"state diverged during step at t={t}")

    x_d = Z[:, 0:n]
    x_hat = Z[:, n:2 * n]
    x_f = Z[:, 2 * n:3 * n]
    Ct = s.core.C.T
    return SimTrace(
        t=t_grid,
        x_d=x_d, x_hat=x_hat, x_f=x_f,
        u=U, u_f=UF,
        M=Z[:, 3 * n:4 * n], N=Z[:, 4 * n], d_hat=Z[:, 4 * n + 1],
        e=x_hat - x_d, x_tilde=x_f - x_hat,
        y_d=x_d @ Ct, y_hat=x_hat @ Ct, y_f=x_f @ Ct,
    )


def metrics(tr: SimTrace, s: Scenario, eps_band: float | None = None) -> Metrics:
    """Summarize a completed trace: tail errors, per-event recovery, and
    the ultimate bound computed with the trace-derived state bound."""
    if eps_band is None:
        eps_band = s.eps_band
    t = tr.t
    tail = t >= 0.8 * s.t_end
    e_norm = np.linalg.norm(tr.e, axis=1)
    xt_norm = np.linalg.norm(tr.x_tilde, axis=1)
    dev = np.linalg.norm(tr.y_f - tr.y_d, axis=1)

    events = []
    sched = s.schedule.events
    for i, ev in enumerate(sched):
        if ev.at > s.t_end:
            continue
        later = [x.at for x in sched[i + 1:] if x.at > ev.at]
        window_end = min(later) if later else s.t_end
        sel = (t >= ev.at) & (t <= window_end)
        idx = np.flatnonzero(sel)
        window = dev[idx]
        # earliest time from which the deviation stays inside the band
        # through the rest of the window
        inside = window <= eps_band
        suffix_ok = np.flip(np.logical_and.accumulate(np.flip(inside)))
        hits = np.flatnonzero(suffix_ok)
        recovery = float(t[idx[hits[0]]] - ev.at) if hits.size else None
        events.append(EventMetrics(at=ev.at, kind=ev.kind,
                                   peak=float(window.max()),
                                   recovery_time=recovery))

    r_fn = exprlang.compile_expr(s.r_signal)
    r_bound = max(abs(r_fn(float(tk), ())) for tk in t)
    x_hat_bound = float(np.linalg.norm(tr.x_hat, axis=1).max())
    bound = uub_radius(s.adaptation, s.core, s.gains, r_bound, x_hat_bound)
    sup_xt_tail = float(xt_norm[tail].max())
    return Metrics(
        sup_e_tail=float(e_norm[tail].max()),
        sup_xtilde_tail=sup_xt_tail,
        events=events,
        uub_bound=float(bound),
        uub_satisfied=bool(sup_xt_tail <= bound),
    )
