"""Coupled closed-loop simulation and trace metrics.

One run integrates the augmented state

    z = [x_d; x_hat; x_f; M; N; d_hat]

with a single fixed-step RK4, so the continuous-time update laws keep the
integrator's order. The whole loop is Python generated per scenario (see
_CompiledRhs and run). Fault events must sit on the step grid; within a
step the schedule is evaluated at the stage times, which never straddle an
event interior.

Modes:
  * ``nominal_only``   no faulty plant (x_f mirrors x_hat),
  * ``faulty_no_va``   faulty plant driven directly by the nominal input,
  * ``faulty_with_va`` faulty plant behind the adaptive virtual actuator.
"""

from __future__ import annotations

import linecache
import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import controller, exprlang, faults
from .controller import InputGainTooSmall, NominalGains
from .exprlang import Expr
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


class TraceTooLarge(ArithmeticError):
    """A run's trace would not fit in the machine's physical memory."""


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
        if not faults.on_grid(self.t_end, self.h) or self.n_steps < 1:
            raise ValueError("t_end must be a positive integer multiple of h")
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
    equations are generated once per scenario as straight-line Python over
    floats: the matrix products are unrolled with the model's numbers as
    constants, and f, g, r and the fault signals are inlined through
    exprlang.Codegen. Every product and sum is kept, in the order of a
    plain loop with 0.0-seeded accumulators, so the results are
    bit-identical to it, signed zeros, inf and NaN included: a 0.0 * x
    term stays, since it turns an infinite x into NaN and can set the sign
    of a zero sum. Only exact rewrites are made: 1.0 * x is written x, and
    a + (-1.0) * x is written a - x.

    `integrate(z, steps, h, rec)` is run's whole RK4 loop in
    numerics.rk4_step's operation order, the state in locals and the four
    stages inlined: stage 1 reads z itself, and each stage writes its
    derivative straight into k1_, k2_, k3_ or k4_. The loop body is
    value-numbered as one function (see Codegen), every stage under its
    own names, so stage 3, which runs at the same t = tk + h/2 as stage
    2, reuses what stage 2 computed from t alone: r, theta, the signal
    sums, the time-only parts of f and g, and the |g| test when g depends
    on t alone. `full(t, z)`, the same body once, returns (z', u, u_f);
    run does not call it, so it is compiled on first use. Tracebacks show
    `source`, which holds what has been compiled.
    """

    def __init__(self, s: Scenario):
        self._scenario = s
        gen = _codegen()
        join = ", ".join
        names = _state_names(s.core.n)
        zs = [f"z{i}" for i in range(len(names))]
        loop, ks = [], []
        for stage, t, step in ((1, "tk", ""), (2, "t2", "h2"), (3, "t2", "h2"),
                               (4, "t4", "h")):
            inputs = zs if stage == 1 else [
                gen.let(f"{z} + {step} * {k}", loop, f"{name}_{stage}")
                for z, k, name in zip(zs, ks[-1], names)]
            lines, dk, u, u_f = _rhs_lines(
                s, gen, t, inputs, [f"k{stage}_{i}" for i in range(len(zs))],
                f"_{stage}")
            loop += lines
            ks.append(dk)
            if stage == 1:
                loop += [f"extend(({join(zs)}, {u}, {u_f}))",
                         "if k == steps:", "    break", "t2 = tk + h2"]
            elif stage == 3:
                loop.append("t4 = tk + h")
        loop += [f"{z} = {z} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
                 for z, a, b, c, d in zip(zs, *ks)]
        self.source = (
            f"def integrate(z, steps, h, rec):\n    {join(zs)} = z\n"
            "    h2 = h / 2.0\n    h6 = h / 6.0\n    extend = rec.extend\n"
            "    for k in range(steps + 1):\n        tk = k * h\n        try:\n"
            + "".join(f"            {line}\n" for line in loop)
            + "        except _DomainError as exc:\n            raise _DomainError("
            "f'{exc} (during step starting at t={tk})') from exc\n"
            f"        if not _isfinite({' + '.join(zs)}):\n"
            f"            _diverged(tk, [{join(zs)}], [{join(sum(ks, []))}])\n")
        self.integrate = gen.define(self.source, "rhs")["integrate"]

    @cached_property
    def full(self):
        """full(t, z) -> (z', u, u_f)."""
        gen = _codegen()
        names = _state_names(self._scenario.core.n)
        body, dz, u, u_f = _rhs_lines(self._scenario, gen, "t", names,
                                      [f"d{name}" for name in names], "")
        source = (f"def full(t, z):\n    {', '.join(names)} = z\n"
                  + "".join(f"    {line}\n" for line in body)
                  + f"    return [{', '.join(dz)}], {u}, {u_f}\n")
        self.source += "\n" + source
        return gen.define(source, "rhs")["full"]


def _codegen() -> exprlang.Codegen:
    gen = exprlang.Codegen()
    gen.namespace.update(_InputGainTooSmall=InputGainTooSmall, _diverged=_diverged)
    return gen


def _state_names(n: int) -> list[str]:
    """The names the generated code gives the elements of z."""
    return ([f"{stem}{i}" for stem in ("x_d", "x_hat", "x_f", "M")
             for i in range(n)] + ["N", "d_hat"])


def _diverged(t: float, z: list[float], stages: list[float]) -> None:
    """Cold branch of the generated loop's test of sum(z) after the step
    from t: all of z finite means the sum overflowed and the run goes on;
    else a non-finite stage, or if none the state, is reported."""
    if all(map(math.isfinite, z)):
        return
    if all(map(math.isfinite, stages)):
        raise NonFiniteDerivative(f"state diverged during step at t={t}")
    raise NonFiniteDerivative(f"non-finite derivative near t={t!r} "
                              f"(during step starting at t={t})")


def _rhs_lines(s: Scenario, gen: exprlang.Codegen, t: str, zs: list[str],
               ks: list[str], tag: str) -> tuple[list[str], list[str], str, str]:
    """The generated right-hand side of s (see _CompiledRhs) at time t and
    the state held in the names zs: its lines, which assign z' to the names
    ks, the source of each element of z' (a name of ks, or the constant or
    name of an element it copies) and those of u and u_f. The names it
    makes end in tag; what it computes and tests stays known to gen."""
    n = s.core.n
    c = gen.const
    # as Python floats: codegen compares and prints every coefficient
    A, b, A_d, B_d, k_x, P = (m.tolist() for m in (
        s.core.A, s.core.b, s.ref.A_d, s.ref.B_d, s.gains.k_x, s.adaptation.P))
    x_d, x_hat, x_f, M = (zs[i * n:(i + 1) * n] for i in range(4))
    N, d_hat = zs[4 * n:]
    lines: list[str] = []

    def let(name: str, src: str) -> str:
        return gen.let(src, lines, name + tag)

    def inline(expr: Expr, state: list[str], out=lines) -> str:
        return gen.expr(expr.node, t, lambda k: state[k - 1], out)

    def dot(seed: list, row, xs: list[str]) -> str:
        """The terms of seed, then row[0] * xs[0] + ..., summed left to
        right; a term (a, x) is a * x, or x for a None. 1.0 * x is written
        x, and a later (-1.0) * x is subtracted as x: both are exact."""
        out = ""
        for a, x in seed + list(zip(row, xs)):
            if a is None or a == 1.0:
                out += f" + {x}" if out else x
            elif a == -1.0 and out:
                out += f" - {x}"
            else:
                out += f" + {c(a)} * {x}" if out else f"{c(a)} * {x}"
        return out

    def derivatives(first: int, values: list[str]) -> list[str]:
        return [gen.let(v, lines, k) for k, v in zip(ks[first:], values)]

    def signal_sum(stem: str, kind) -> str:
        """The sum of the signals of kind switched on at t: a name whose
        lines are emitted once for each t (a signal's own lines run only
        once it is switched on), or 0.0 if there is no such signal."""
        events = [ev for ev in s.schedule.events if isinstance(ev, kind)]
        key = (stem, t)
        if events and key not in gen.values:
            gen.values[key] = total = stem + tag
            lines.append(f"{total} = 0.0")
            for ev in events:
                signal: list[str] = []
                with gen.branch():
                    sig = inline(ev.signal, [], signal)
                lines.append(f"if {c(ev.at)} <= {t}:")
                lines.extend(f"    {line}" for line in signal)
                lines.append(f"    {total} += {sig}")
        return gen.values.get(key, "0.0")

    r = inline(s.r_signal, [])
    g_hat = inline(s.nl.g, x_hat)
    g_min = c(s.nl.g_min)
    gen.check(f"abs({g_hat}) < {g_min}",
              f"raise _InputGainTooSmall(f'|g|={{abs({g_hat}):.3e}} below "
              f"floor {{{g_min}:.3e}} at t={{{t}!r}}')", lines)
    f_hat = inline(s.nl.f, x_hat)
    u = let("u", f"({dot([(None, f'-{f_hat}'), (s.gains.k_r, r)], k_x, x_hat)})"
                 f" / {g_hat}")
    dz = derivatives(0, [dot([(B_d[i], r)], A_d[i], x_d) for i in range(n)])
    c_nom = let("c_nom", f"{f_hat} + {g_hat} * {u}")
    dz += derivatives(n, [dot([(b[i], c_nom)], A[i], x_hat) for i in range(n)])

    zeros = ["0.0"] * (n + 2)
    if s.mode == MODE_NOMINAL_ONLY:
        return lines, dz + dz[n:] + zeros, u, u

    with_va = s.mode == MODE_FAULTY_WITH_VA
    if with_va:
        x_t = [let(f"x_t{i}", f"{xf} - {xh}")
               for i, (xf, xh) in enumerate(zip(x_f, x_hat))]
        u_f = let("u_f", " + ".join([f"{N} * {u} - {d_hat}"]
                                    + [f"{m} * {x}" for m, x in zip(M, x_t)]))
    else:
        u_f = u

    # the latest loss switched on wins, so the events are tested from the last
    theta = "1.0"
    for ev in s.schedule.events:
        if isinstance(ev, LossOfEffectiveness):
            theta = f"{c(ev.theta)} if not {c(ev.at)} > {t} else {theta}"
    if theta != "1.0":
        theta = let("theta", theta)
    d_f = signal_sum("d_f", AdditiveActuator)
    d = signal_sum("d", ExternalDisturbance)
    f_f = inline(s.nl.f, x_f)
    g_f = inline(s.nl.g, x_f)
    c_f = let("c_f", f"{f_f} + {theta} * {g_f} * ({u_f} + {d_f})")
    if s.channel.mode == "matched":
        md = let("md", f"{c(s.channel.scale)} * {g_f} * {d}")
        channel = [(bi, md) for bi in b]
    else:
        channel = [(e, d) for e in s.channel.E.tolist()]
    dz += derivatives(2 * n, [dot([(b[i], c_f), channel[i]], A[i], x_f)
                              for i in range(n)])
    if not with_va:
        return lines, dz + zeros, u, u_f

    cfg = s.adaptation
    P_x_t = [f"({dot([(None, '0.0')], row, x_t)})" for row in P]
    sgn = let("sgn", f"({dot([(None, '0.0')], b, P_x_t)}) * {g_f}")
    g1s = let("g1s", f"-{c(cfg.gamma1)} * {sgn}")
    dz += derivatives(3 * n, [f"{g1s} * {x}" for x in x_t]
                      + [f"-{c(cfg.gamma2)} * {sgn} * {u}",
                         f"{c(cfg.gamma3)} * {sgn}"])
    return lines, dz, u, u_f


def run(s: Scenario) -> SimTrace:
    """Simulate the scenario and return the full trace.

    The generated `integrate` (see _CompiledRhs) runs the loop: each step
    appends the row (z, u, u_f) of its first stage to one flat buffer, of
    which the trace arrays are views, runs three more stages and tests the
    new state once; 4K+1 evaluations in all, the last row's unchecked.

    Deterministic: the same scenario always produces the bit-identical
    trace. Raises InputGainTooSmall (at the stage time), DomainError
    "<reason> (during step starting at t=<t>)", or NonFiniteDerivative
    "non-finite derivative near t=<t> (during step starting at t=<t>)" if a
    stage is not finite and "state diverged during step at t=<t>" if only
    the new state is not. A run whose row buffer would not fit in physical
    memory raises TraceTooLarge before it starts.
    """
    n = s.core.n
    steps = s.n_steps
    size = (steps + 1) * (4 * n + 4) * 8
    memory = _physical_memory()
    if size > memory:
        raise TraceTooLarge(f"{steps + 1} trace rows need {size} bytes, more "
                            f"than the {memory} bytes of physical memory")
    x_f0 = s.x_hat0 if s.mode == MODE_NOMINAL_ONLY else s.x_f0
    # M = 0, N = 1, d_hat = 0: the virtual actuator starts transparent
    z = (s.x_d0.tolist() + s.x_hat0.tolist() + x_f0.tolist()
         + [0.0] * n + [1.0, 0.0])
    rec = array("d")
    rhs = _CompiledRhs(s)
    rhs.integrate(z, steps, s.h, rec)
    # kept on an abort only, so that its traceback shows the generated line
    linecache.cache.pop(rhs.integrate.__code__.co_filename, None)
    rows = np.frombuffer(rec).reshape(steps + 1, 4 * n + 4)
    x_d, x_hat, x_f, M = (rows[:, i * n:(i + 1) * n] for i in range(4))
    Ct = s.core.C.T
    return SimTrace(
        t=np.arange(steps + 1) * s.h,
        x_d=x_d, x_hat=x_hat, x_f=x_f,
        u=rows[:, 4 * n + 2], u_f=rows[:, 4 * n + 3],
        M=M, N=rows[:, 4 * n], d_hat=rows[:, 4 * n + 1],
        e=x_hat - x_d, x_tilde=x_f - x_hat,
        y_d=x_d @ Ct, y_hat=x_hat @ Ct, y_f=x_f @ Ct,
    )


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the system does not tell."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return size if size > 0 else math.inf


def metrics(tr: SimTrace, s: Scenario) -> Metrics:
    """Summarize a completed trace: tail errors, per-event recovery within
    s.eps_band, and the ultimate bound computed with the trace-derived
    state bound."""
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
        inside = window <= s.eps_band
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
