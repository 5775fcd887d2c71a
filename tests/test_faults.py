import math

import numpy as np
import pytest

import ftcsim as F
from ftcsim.faults import (EVENT_KINDS, AdditiveActuator, ExternalDisturbance,
                           FaultSchedule, LossOfEffectiveness, ScheduleError,
                           check_grid_alignment)

from closed_loop import applied_schedule


# The schedule is checked where the engine applies it: in the faulty-plant
# rows of engine._CompiledRhs.full (see applied_schedule).


def theta_at(s, t, events=None):
    return applied_schedule(s, t, events)[0]


def d_f_at(s, t, events=None):
    return applied_schedule(s, t, events)[1]


def d_at(s, t, events=None):
    return applied_schedule(s, t, events)[2]


class TestEffectiveTheta:
    def test_before_fault(self, stock):
        assert theta_at(stock, 14.999) == 1.0

    def test_at_fault_instant(self, stock):
        assert theta_at(stock, 15.0) == 0.65

    def test_empty_schedule(self, stock):
        assert theta_at(stock, 123.0, events=()) == 1.0

    def test_later_event_overrides(self, stock):
        events = (LossOfEffectiveness(at=5.0, theta=0.9),
                  LossOfEffectiveness(at=10.0, theta=0.4))
        assert theta_at(stock, 7.0, events) == 0.9
        assert theta_at(stock, 10.0, events) == 0.4

    def test_right_continuity(self, stock):
        for ev in stock.schedule.events:
            a = ev.at
            before = applied_schedule(stock, a - 1e-9)
            at = applied_schedule(stock, a)
            just_after = applied_schedule(stock, a + 1e-9)
            assert at[0] == just_after[0]
            if isinstance(ev, LossOfEffectiveness):
                assert before[0] != at[0]
                continue
            # a signal is already in the sum at its trigger instant
            k = 1 if isinstance(ev, AdditiveActuator) else 2
            assert at[k] - before[k] == pytest.approx(
                F.evaluate(ev.signal, a), abs=1e-8)


class TestSignals:
    def test_additive_before_trigger(self, stock):
        assert d_f_at(stock, 24.9) == 0.0

    def test_additive_at_trigger(self, stock):
        # 0.5*sin(2t) evaluated at t = 25
        assert d_f_at(stock, 25.0) == pytest.approx(
            -0.13118742685196438, rel=1e-15)

    def test_additive_empty(self, stock):
        assert d_f_at(stock, 30.0, events=()) == 0.0

    def test_disturbance_before_trigger(self, stock):
        assert d_at(stock, 19.9) == 0.0

    def test_disturbance_at_trigger(self, stock):
        assert d_at(stock, 20.0) == 1.0

    def test_disturbance_empty(self, stock):
        assert d_at(stock, 5.0, events=()) == 0.0

    def test_multiple_signals_sum(self, stock):
        events = (AdditiveActuator(at=1.0, signal=F.parse("2", 0)),
                  AdditiveActuator(at=3.0, signal=F.parse("t", 0)))
        assert d_f_at(stock, 2.0, events) == 2.0
        assert d_f_at(stock, 4.0, events) == 6.0


class TestValidation:
    def test_theta_range(self):
        with pytest.raises(ScheduleError):
            LossOfEffectiveness(at=1.0, theta=0.0)
        with pytest.raises(ScheduleError):
            LossOfEffectiveness(at=1.0, theta=1.5)

    def test_negative_time(self):
        with pytest.raises(ScheduleError):
            LossOfEffectiveness(at=-1.0, theta=0.5)

    @pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda at: LossOfEffectiveness(at=at, theta=0.5),
        lambda at: AdditiveActuator(at=at, signal=F.parse("1", 0)),
        lambda at: ExternalDisturbance(at=at, signal=F.parse("1", 0)),
    ], ids=["loss", "additive", "disturbance"])
    def test_non_finite_time_rejected(self, make, at):
        with pytest.raises(ScheduleError, match="at="):
            make(at)

    def test_kind_names(self):
        assert EVENT_KINDS == {"loss": LossOfEffectiveness,
                               "additive": AdditiveActuator,
                               "disturbance": ExternalDisturbance}
        assert LossOfEffectiveness(at=1.0, theta=0.5).kind == "loss"
        one = F.parse("1", 0)
        assert ExternalDisturbance(at=1.0, signal=one).kind == "disturbance"

    def test_state_dependent_signal_rejected(self):
        with pytest.raises(ScheduleError):
            AdditiveActuator(at=1.0, signal=F.parse("x1", 3))

    def test_events_sorted_on_construction(self):
        sched = FaultSchedule((LossOfEffectiveness(at=9.0, theta=0.5),
                               LossOfEffectiveness(at=2.0, theta=0.8)))
        assert sched.times == [2.0, 9.0]

    def test_grid_alignment(self):
        sched = FaultSchedule((LossOfEffectiveness(at=0.0015, theta=0.5),))
        with pytest.raises(ScheduleError):
            check_grid_alignment(sched, 1e-3)
        check_grid_alignment(sched, 5e-4)


class TestScheduleEquivalence:
    def test_events_after_horizon_match_empty_schedule(self, stock):
        import dataclasses
        late = FaultSchedule((
            LossOfEffectiveness(at=50.0, theta=0.5),
            ExternalDisturbance(at=60.0, signal=F.parse("1", 0)),
        ))
        short = dict(t_end=2.0, h=1e-3, mode="faulty_with_va")
        a = F.run(dataclasses.replace(stock, schedule=late, **short))
        b = F.run(dataclasses.replace(stock, schedule=FaultSchedule(), **short))
        assert np.array_equal(a.x_f, b.x_f)
        assert np.array_equal(a.u_f, b.u_f)
        assert np.array_equal(a.M, b.M)
