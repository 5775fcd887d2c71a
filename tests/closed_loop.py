"""Helpers for tests that evaluate the engine's closed-loop right-hand side
(engine._CompiledRhs) on hand-built augmented states
z = [x_d; x_hat; x_f; M; N; d_hat]."""

import dataclasses

import numpy as np

import ftcsim as F
from ftcsim import engine
from ftcsim.faults import (AdditiveActuator, ExternalDisturbance,
                           FaultSchedule, LossOfEffectiveness)
from ftcsim.plant import DisturbanceChannel, LinearCore, NonlinearPair, ReferenceModel


def rhs_for(s, **changes):
    """The right-hand side the engine integrates for s with changes applied;
    event lists and signals given as sources are built here."""
    if "events" in changes:
        changes["schedule"] = FaultSchedule(tuple(changes.pop("events")))
    if isinstance(changes.get("r_signal"), str):
        changes["r_signal"] = F.parse(changes["r_signal"], 0)
    return engine._CompiledRhs(dataclasses.replace(s, **changes))


def pack(x_hat, x_f=None, M=None, N=1.0, d_hat=0.0, x_d=None):
    """z from its parts; defaults: x_f = x_hat, x_d = 0 and a transparent
    virtual actuator (M = 0, N = 1, d_hat = 0)."""
    x_hat = [float(v) for v in x_hat]
    n = len(x_hat)
    x_f = x_hat if x_f is None else [float(v) for v in x_f]
    M = [0.0] * n if M is None else [float(v) for v in M]
    x_d = [0.0] * n if x_d is None else [float(v) for v in x_d]
    return x_d + x_hat + x_f + M + [float(N), float(d_hat)]


def split(out, n):
    """Named blocks of a derivative of z."""
    out = np.asarray(out, dtype=float)
    return dict(x_d=out[0:n], x_hat=out[n:2 * n], x_f=out[2 * n:3 * n],
                M=out[3 * n:4 * n], N=out[4 * n], d_hat=out[4 * n + 1])


def schedule_at(sched, t):
    """(theta, d_f, d) of a fault schedule at t, read straight from its
    events: the latest triggered loss wins, triggered signals add up."""
    theta, d_f, d = 1.0, 0.0, 0.0
    for ev in sched.events:
        if ev.at > t:
            continue
        if isinstance(ev, LossOfEffectiveness):
            theta = ev.theta
        elif isinstance(ev, AdditiveActuator):
            d_f += F.evaluate(ev.signal, t)
        else:
            d += F.evaluate(ev.signal, t)
    return theta, d_f, d


def applied_schedule(s, t, events=None):
    """(theta, d_f, d) that the engine's right-hand side applies at t for
    the fault events of s (or the given events), read off the x_f rows of
    full() on probe copies of s.

    The probes keep the events but set f = 0, g = 1, x = 0 and a constant
    disturbance column E = e1, in faulty_no_va mode. With b = e_n and
    k_r = 1, as in the stock system, the last x_f row is then exactly
    theta * (u + d_f) and the first is d. With r = 1 (so u = 1) and only
    the loss events, the last row is theta; with r = 0 (u = 0) and only the
    additive events, it is d_f.
    """
    n = s.core.n
    events = s.schedule.events if events is None else tuple(events)
    probe = dict(nl=NonlinearPair(f=F.parse("0", n), g=F.parse("1", n)),
                 channel=DisturbanceChannel(mode="constant", E=np.eye(n)[0]),
                 mode="faulty_no_va")

    def x_f_rates(r, kinds):
        rhs = rhs_for(s, r_signal=r, events=[e for e in events
                                             if isinstance(e, kinds)], **probe)
        out, u, _ = rhs.full(t, pack(np.zeros(n)))
        assert u == float(r)
        return split(out, n)["x_f"]

    theta = x_f_rates("1", LossOfEffectiveness)[-1]
    d_f = x_f_rates("0", AdditiveActuator)[-1]
    d = x_f_rates("0", ExternalDisturbance)[0]
    return float(theta), float(d_f), float(d)


def scalar_decay_scenario(**kw):
    """x' = -x with unit gain and no drift; closed form is exp(-t)."""
    core = LinearCore(A=[[-1.0]], b=[1.0], C=[[1.0]])
    nl = NonlinearPair(f=F.parse("0", 1), g=F.parse("1", 1))
    ref = ReferenceModel(A_d=[[-1.0]], B_d=[1.0])
    cfg = F.AdaptationConfig(gamma1=1, gamma2=1, gamma3=1, P=np.eye(1),
                             theta_design=0.5)
    base = dict(core=core, nl=nl, ref=ref,
                channel=DisturbanceChannel(mode="matched", scale=0.0),
                adaptation=cfg, schedule=FaultSchedule(),
                r_signal=F.parse("0", 0), x_hat0=np.array([1.0]),
                x_f0=np.array([1.0]), x_d0=np.array([0.0]),
                t_end=5.0, h=1e-3, mode="nominal_only")
    base.update(kw)
    return F.Scenario(**base)
