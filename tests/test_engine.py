import dataclasses
import math

import numpy as np
import pytest

import ftcsim as F
from ftcsim import engine, exprlang
from ftcsim.controller import InputGainTooSmall
from ftcsim.exprlang import DomainError, parse
from ftcsim.faults import (AdditiveActuator, ExternalDisturbance,
                           FaultSchedule, LossOfEffectiveness)
from ftcsim.numerics import NonFiniteDerivative
from ftcsim.plant import LinearCore, NonlinearPair, ReferenceModel

from closed_loop import scalar_decay_scenario, schedule_at


class TestRunBasics:
    def test_scalar_decay_matches_closed_form(self):
        s = scalar_decay_scenario()
        tr = F.run(s)
        exact = np.exp(-tr.t)
        assert np.max(np.abs(tr.x_hat[:, 0] - exact)) <= 1e-8
        assert np.array_equal(tr.x_f, tr.x_hat)  # nominal mode mirrors

    def test_row_count_and_grid(self):
        s = scalar_decay_scenario(t_end=2.0, h=0.01)
        tr = F.run(s)
        assert tr.t.shape == (201,)
        assert tr.t[1] - tr.t[0] == 0.01
        assert tr.t[-1] == 2.0

    def test_determinism(self, stock):
        s = dataclasses.replace(stock, t_end=3.0)
        a, b = F.run(s), F.run(s)
        for name in ("x_d", "x_hat", "x_f", "u", "u_f", "M", "N", "d_hat"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_fault_hiding_identity(self, stock):
        # healthy plant + transparent adaptive init keeps the difference
        # state pinned at zero
        s = dataclasses.replace(stock, schedule=FaultSchedule(), t_end=5.0,
                                mode="faulty_with_va")
        tr = F.run(s)
        assert np.max(np.linalg.norm(tr.x_tilde, axis=1)) <= 1e-9

    def test_mode_coherence_without_faults(self, stock):
        s0 = dataclasses.replace(stock, schedule=FaultSchedule(), t_end=2.0,
                                 mode="faulty_no_va")
        s1 = dataclasses.replace(s0, mode="faulty_with_va")
        a, b = F.run(s0), F.run(s1)
        assert np.array_equal(a.x_f, b.x_f)
        assert np.array_equal(a.u_f, b.u_f)

    def test_modes_diverge_after_fault(self, stock):
        sched = FaultSchedule((LossOfEffectiveness(at=1.0, theta=0.5),))
        s0 = dataclasses.replace(stock, schedule=sched, t_end=2.0,
                                 mode="faulty_no_va")
        s1 = dataclasses.replace(s0, mode="faulty_with_va")
        a, b = F.run(s0), F.run(s1)
        pre = a.t < 1.0
        assert np.array_equal(a.x_f[pre], b.x_f[pre])
        assert not np.array_equal(a.x_f[-1], b.x_f[-1])


def numpy_rk4_run(s):
    """The engine loop as it was on numpy arrays: a recording call plus four
    RK4 stages per step, each stage state built as an array expression."""
    n = s.core.n
    rhs = engine._CompiledRhs(s)

    def deriv(t, z):
        return np.asarray(rhs.full(t, z.tolist())[0], dtype=float)

    steps, h = s.n_steps, s.h
    x_f0 = s.x_hat0 if s.mode == "nominal_only" else s.x_f0
    z = np.concatenate([s.x_d0, s.x_hat0, x_f0, np.zeros(n), [1.0, 0.0]])
    Z = np.empty((steps + 1, 4 * n + 2))
    U = np.empty(steps + 1)
    UF = np.empty(steps + 1)
    for k in range(steps + 1):
        t = k * h
        _, U[k], UF[k] = rhs.full(t, z.tolist())
        Z[k] = z
        if k < steps:
            k1 = deriv(t, z)
            k2 = deriv(t + h / 2.0, z + (h / 2.0) * k1)
            k3 = deriv(t + h / 2.0, z + (h / 2.0) * k2)
            k4 = deriv(t + h, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    x_d, x_hat, x_f = Z[:, 0:n], Z[:, n:2 * n], Z[:, 2 * n:3 * n]
    Ct = s.core.C.T
    return engine.SimTrace(
        t=np.arange(steps + 1) * h, x_d=x_d, x_hat=x_hat, x_f=x_f,
        u=U, u_f=UF, M=Z[:, 3 * n:4 * n], N=Z[:, 4 * n],
        d_hat=Z[:, 4 * n + 1], e=x_hat - x_d, x_tilde=x_f - x_hat,
        y_d=x_d @ Ct, y_hat=x_hat @ Ct, y_f=x_f @ Ct)


class TestAgainstNumpyLoop:
    @pytest.mark.parametrize("mode", engine.MODES)
    def test_bit_identical_across_all_fault_kinds(self, stock, mode):
        sched = FaultSchedule((
            LossOfEffectiveness(at=0.1, theta=0.65),
            ExternalDisturbance(at=0.2, signal=parse("1", 0)),
            AdditiveActuator(at=0.3, signal=parse("0.5*sin(2*t)", 0))))
        s = dataclasses.replace(stock, schedule=sched, t_end=0.5, mode=mode)
        got, want = F.run(s), numpy_rk4_run(s)
        for field in dataclasses.fields(engine.SimTrace):
            assert np.array_equal(getattr(got, field.name),
                                  getattr(want, field.name)), field.name

    def test_four_rhs_calls_per_step(self, stock, monkeypatch):
        # one recording evaluation per row plus three more stages per step:
        # RK4 reuses the recorded derivative as its first stage. With g and
        # r free of sin and f = 0.05 sin(x3), which nominal_only evaluates
        # at x_hat alone, each evaluation calls sin once. (A sin of t alone
        # would not count them: the stages at tk + h/2 share it.)
        calls = 0

        def counting_sin(a):
            nonlocal calls
            calls += 1
            return math.sin(a)

        monkeypatch.setitem(exprlang._FUNCTIONS, "sin", counting_sin)
        nl = NonlinearPair(f=parse("0.05*sin(x3)", 3), g=parse("4 + 0.5*t", 3))
        s = dataclasses.replace(stock, nl=nl, r_signal=parse("step(t)", 0),
                                mode="nominal_only", t_end=0.25)
        F.run(s)
        assert calls == 4 * s.n_steps + 1


    def test_stages_two_and_three_share_values_of_t(self, stock, monkeypatch):
        # r = sin(t) depends on t alone, and stages 2 and 3 of a step run
        # at the same t = tk + h/2, so sin runs three times per step, plus
        # once for the last row
        calls = 0

        def counting_sin(a):
            nonlocal calls
            calls += 1
            return math.sin(a)

        monkeypatch.setitem(exprlang._FUNCTIONS, "sin", counting_sin)
        nl = NonlinearPair(f=parse("0.05*x3", 3), g=parse("4 + 0.5*t", 3))
        s = dataclasses.replace(stock, nl=nl, r_signal=parse("sin(t)", 0),
                                t_end=0.25)
        F.run(s)
        assert calls == 3 * s.n_steps + 1


class TestDifferenceSystemConsistency:
    def test_recorded_xtilde_satisfies_difference_dynamics(self, stock, p2):
        # moderate adaptation rates keep the third derivative of x_tilde
        # small, so the centred-difference truncation term stays well under
        # the tolerance over the whole trajectory, transients included
        gentle = F.AdaptationConfig(gamma1=2.0, gamma2=3.0, gamma3=5.0,
                                    P=p2, theta_design=0.5)
        sched = FaultSchedule((LossOfEffectiveness(at=1.0, theta=0.65),))
        s = dataclasses.replace(stock, schedule=sched, t_end=3.0,
                                mode="faulty_with_va", adaptation=gentle,
                                x_f0=np.array([0.1, 0.0, -0.1]))
        tr = F.run(s)
        h = s.h
        A, b = s.core.A, s.core.b
        worst = 0.0
        for k in range(1, len(tr.t) - 1):
            t = float(tr.t[k])
            # skip the stencil rows whose neighbours straddle the event
            if abs(t - 1.0) <= 2 * h:
                continue
            fd = (tr.x_tilde[k + 1] - tr.x_tilde[k - 1]) / (2 * h)
            # the difference dynamics rebuilt in numpy from recorded
            # signals, independently of the engine's right-hand side
            theta, d_f, d = schedule_at(s.schedule, t)
            x_f, x_hat = tr.x_f[k], tr.x_hat[k]
            g_f = F.evaluate(s.nl.g, t, x_f)
            faulty = A @ x_f + b * (F.evaluate(s.nl.f, t, x_f)
                                    + theta * g_f * (tr.u_f[k] + d_f)
                                    + s.channel.scale * g_f * d)
            nominal = A @ x_hat + b * (F.evaluate(s.nl.f, t, x_hat)
                                       + F.evaluate(s.nl.g, t, x_hat) * tr.u[k])
            worst = max(worst, float(np.max(np.abs(fd - (faulty - nominal)))))
        assert worst <= 1e-4


class TestAborts:
    def test_input_gain_singularity_reports_time(self):
        core = LinearCore(A=[[-1.0]], b=[1.0], C=[[1.0]])
        nl = NonlinearPair(f=F.parse("0", 1), g=F.parse("1 - t", 1))
        s = scalar_decay_scenario(core=core, nl=nl, t_end=2.0)
        with pytest.raises(InputGainTooSmall) as exc_info:
            F.run(s)
        assert "t=" in str(exc_info.value)

    def test_domain_error_reports_time(self):
        nl = NonlinearPair(f=F.parse("log(2 - t)", 1), g=F.parse("1", 1))
        s = scalar_decay_scenario(nl=nl, t_end=3.0)
        with pytest.raises(DomainError) as exc_info:
            F.run(s)
        assert "t=" in str(exc_info.value)

    def test_divergence_detected(self):
        core = LinearCore(A=[[50.0]], b=[1.0], C=[[1.0]])
        ref = ReferenceModel(A_d=[[-1.0]], B_d=[1.0])
        s = scalar_decay_scenario(core=core, ref=ref, t_end=2.0,
                                  mode="faulty_no_va",
                                  x_f0=np.array([1e300]))
        with pytest.raises(NonFiniteDerivative):
            F.run(s)


class TestScenarioValidation:
    def test_grid_divisibility(self):
        with pytest.raises(ValueError):
            scalar_decay_scenario(t_end=1.0, h=0.3)

    def test_unaligned_event_rejected(self, stock):
        sched = FaultSchedule((LossOfEffectiveness(at=1.00005, theta=0.5),))
        with pytest.raises(ValueError):
            dataclasses.replace(stock, schedule=sched)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            scalar_decay_scenario(mode="telepathy")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scalar_decay_scenario(x_hat0=np.array([1.0, 2.0]))


class TestMetrics:
    def test_zero_error_trace(self, stock):
        sched = FaultSchedule((LossOfEffectiveness(at=1.0, theta=0.5),))
        s = dataclasses.replace(stock, schedule=sched, t_end=2.0,
                                mode="nominal_only",
                                r_signal=F.parse("0", 0))
        m = F.metrics(F.run(s), s)
        assert m.sup_e_tail == 0.0
        assert m.events[0].recovery_time == 0.0
        assert m.events[0].peak == 0.0

    def test_uub_bound_fields(self, stock):
        s = dataclasses.replace(stock, t_end=2.0)
        m = F.metrics(F.run(s), s)
        assert math.isfinite(m.uub_bound) and m.uub_bound > 0.0
        assert m.uub_satisfied == (m.sup_xtilde_tail <= m.uub_bound)

    def test_unrecovered_event_flagged(self, stock):
        sched = FaultSchedule((LossOfEffectiveness(at=1.0, theta=0.3),))
        s = dataclasses.replace(stock, schedule=sched, t_end=4.0,
                                mode="faulty_no_va", eps_band=1e-6)
        m = F.metrics(F.run(s), s)
        assert m.events[0].recovery_time is None
        assert m.events[0].peak > 1e-6


class TestGridRefinement:
    def test_halving_h_converges_at_order_four(self, stock):
        # pre-fault smooth segment of the stock loop
        terminal = []
        for h in (4e-3, 2e-3, 1e-3):
            s = dataclasses.replace(stock, t_end=8.0, h=h)
            terminal.append(F.run(s).x_f[-1])
        d1 = np.linalg.norm(terminal[0] - terminal[1])
        d2 = np.linalg.norm(terminal[1] - terminal[2])
        assert math.log2(d1 / d2) >= 3.5
