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
        if self.t_end <= 0.0 or self.h <= 0.0:
            raise ValueError("t_end and h must be positive")
        ratio = self.t_end / self.h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError("t_end must be an integer multiple of h")
        if self.eps_band <= 0.0:
            raise ValueError("eps_band must be positive")
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
    constant column, or scale b g(x_f) for a matched channel; theta, d_f
    and d come from the fault schedule at t (theta_at, signal_sum).
    nominal_only copies x_hat' into x_f'; the adaptive parameters move
    only in faulty_with_va.

    numpy's per-call overhead dominates at n ~ 3, so the hot loop runs on
    Python floats with precompiled expression closures: z and the
    derivative are lists, and rk4_step combines the stages on lists too.
    """

    def __init__(self, s: Scenario):
        gains = s.gains
        self.n = n = s.core.n
        self.mode = s.mode
        self.A = [[float(v) for v in row] for row in s.core.A]
        self.b = [float(v) for v in s.core.b]
        self.A_d = [[float(v) for v in row] for row in s.ref.A_d]
        self.B_d = [float(v) for v in s.ref.B_d]
        self.k_x = [float(v) for v in gains.k_x]
        self.k_r = float(gains.k_r)
        self.f = exprlang.compile_expr(s.nl.f)
        self.g = exprlang.compile_expr(s.nl.g)
        self.r = exprlang.compile_expr(s.r_signal)
        self.g_min = s.nl.g_min
        self.loss = [(e.at, e.theta) for e in s.schedule.events
                     if isinstance(e, LossOfEffectiveness)]
        self.additive = [(e.at, exprlang.compile_expr(e.signal))
                         for e in s.schedule.events
                         if isinstance(e, AdditiveActuator)]
        self.disturb = [(e.at, exprlang.compile_expr(e.signal))
                        for e in s.schedule.events
                        if isinstance(e, ExternalDisturbance)]
        self.matched = s.channel.mode == "matched"
        self.scale = float(s.channel.scale) if self.matched else 0.0
        self.E = None if self.matched else [float(v) for v in s.channel.E]
        cfg = s.adaptation
        self.gamma1, self.gamma2, self.gamma3 = cfg.gamma1, cfg.gamma2, cfg.gamma3
        self.P = [[float(v) for v in row] for row in cfg.P]

    def theta_at(self, t: float) -> float:
        theta = 1.0
        for at, th in self.loss:
            if at > t:
                break
            theta = th
        return theta

    def signal_sum(self, entries, t: float) -> float:
        total = 0.0
        for at, fn in entries:
            if at <= t:
                total += fn(t, ())
        return total

    def full(self, t: float, z: list[float]) -> tuple[list, float, float]:
        """Derivative of z plus the inputs (u, u_f) in effect at t."""
        n = self.n
        x_d = z[0:n]
        x_hat = z[n:2 * n]

        r = self.r(t, ())
        g_hat = self.g(t, x_hat)
        if abs(g_hat) < self.g_min:
            raise InputGainTooSmall(
                f"|g|={abs(g_hat):.3e} below floor {self.g_min:.3e} at t={t!r}")
        f_hat = self.f(t, x_hat)
        u = -f_hat + self.k_r * r
        k_x = self.k_x
        for i in range(n):
            u += k_x[i] * x_hat[i]
        u /= g_hat

        out = [0.0] * (4 * n + 2)
        for i in range(n):
            row = self.A_d[i]
            acc = self.B_d[i] * r
            for j in range(n):
                acc += row[j] * x_d[j]
            out[i] = acc
        c_nom = f_hat + g_hat * u
        for i in range(n):
            row = self.A[i]
            acc = self.b[i] * c_nom
            for j in range(n):
                acc += row[j] * x_hat[j]
            out[n + i] = acc

        if self.mode == MODE_NOMINAL_ONLY:
            out[2 * n:3 * n] = out[n:2 * n]
            return out, u, u

        x_f = z[2 * n:3 * n]
        M = z[3 * n:4 * n]
        N = z[4 * n]
        d_hat = z[4 * n + 1]
        x_t = [x_f[i] - x_hat[i] for i in range(n)]

        if self.mode == MODE_FAULTY_WITH_VA:
            u_f = N * u - d_hat
            for i in range(n):
                u_f += M[i] * x_t[i]
        else:
            u_f = u

        theta = self.theta_at(t)
        d_f = self.signal_sum(self.additive, t)
        d = self.signal_sum(self.disturb, t)
        f_f = self.f(t, x_f)
        g_f = self.g(t, x_f)
        c_f = f_f + theta * g_f * (u_f + d_f)
        if self.matched:
            md = self.scale * g_f * d
            for i in range(n):
                row = self.A[i]
                acc = self.b[i] * c_f + self.b[i] * md
                for j in range(n):
                    acc += row[j] * x_f[j]
                out[2 * n + i] = acc
        else:
            E = self.E
            for i in range(n):
                row = self.A[i]
                acc = self.b[i] * c_f + E[i] * d
                for j in range(n):
                    acc += row[j] * x_f[j]
                out[2 * n + i] = acc

        if self.mode == MODE_FAULTY_WITH_VA:
            P = self.P
            b = self.b
            sgn = 0.0
            for i in range(n):
                acc = 0.0
                row = P[i]
                for j in range(n):
                    acc += row[j] * x_t[j]
                sgn += b[i] * acc
            sgn *= g_f
            g1s = -self.gamma1 * sgn
            for i in range(n):
                out[3 * n + i] = g1s * x_t[i]
            out[4 * n] = -self.gamma2 * sgn * u
            out[4 * n + 1] = self.gamma3 * sgn
        return out, u, u_f

    def __call__(self, t: float, z: list[float]) -> list[float]:
        out, _, _ = self.full(t, z)
        return out


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
                z = numerics.rk4_step(rhs, t, z, h, k1)
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
        kind = {LossOfEffectiveness: "loss", AdditiveActuator: "additive",
                ExternalDisturbance: "disturbance"}[type(ev)]
        events.append(EventMetrics(at=ev.at, kind=kind,
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
