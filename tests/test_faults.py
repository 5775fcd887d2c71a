import numpy as np
import pytest

import ftcsim as F
from ftcsim.faults import (AdditiveActuator, ExternalDisturbance,
                           FaultSchedule, LossOfEffectiveness, ScheduleError,
                           check_grid_alignment)

from closed_loop import rhs_for


# The schedule is evaluated where the engine evaluates it: theta_at and
# signal_sum of engine._CompiledRhs.


@pytest.fixture
def stock_rhs(stock):
    return rhs_for(stock)


class TestEffectiveTheta:
    def test_before_fault(self, stock_rhs):
        assert stock_rhs.theta_at(14.999) == 1.0

    def test_at_fault_instant(self, stock_rhs):
        assert stock_rhs.theta_at(15.0) == 0.65

    def test_empty_schedule(self, stock):
        assert rhs_for(stock, events=()).theta_at(123.0) == 1.0

    def test_later_event_overrides(self, stock):
        rhs = rhs_for(stock, events=(LossOfEffectiveness(at=5.0, theta=0.9),
                                     LossOfEffectiveness(at=10.0, theta=0.4)))
        assert rhs.theta_at(7.0) == 0.9
        assert rhs.theta_at(10.0) == 0.4

    def test_right_continuity(self, stock, stock_rhs):
        for ev in stock.schedule.events:
            a = ev.at
            before = stock_rhs.theta_at(a - 1e-9)
            at = stock_rhs.theta_at(a)
            just_after = stock_rhs.theta_at(a + 1e-9)
            assert at == just_after
            if isinstance(ev, LossOfEffectiveness):
                assert before != at
                continue
            # a signal is already in the sum at its trigger instant
            signals = (stock_rhs.additive if isinstance(ev, AdditiveActuator)
                       else stock_rhs.disturb)
            jump = (stock_rhs.signal_sum(signals, a)
                    - stock_rhs.signal_sum(signals, a - 1e-9))
            assert jump == pytest.approx(F.evaluate(ev.signal, a), abs=1e-8)


class TestSignals:
    def test_additive_before_trigger(self, stock_rhs):
        assert stock_rhs.signal_sum(stock_rhs.additive, 24.9) == 0.0

    def test_additive_at_trigger(self, stock_rhs):
        # 0.5*sin(2t) evaluated at t = 25
        assert stock_rhs.signal_sum(stock_rhs.additive, 25.0) == pytest.approx(
            -0.13118742685196438, rel=1e-15)

    def test_additive_empty(self, stock):
        rhs = rhs_for(stock, events=())
        assert rhs.signal_sum(rhs.additive, 30.0) == 0.0

    def test_disturbance_before_trigger(self, stock_rhs):
        assert stock_rhs.signal_sum(stock_rhs.disturb, 19.9) == 0.0

    def test_disturbance_at_trigger(self, stock_rhs):
        assert stock_rhs.signal_sum(stock_rhs.disturb, 20.0) == 1.0

    def test_disturbance_empty(self, stock):
        rhs = rhs_for(stock, events=())
        assert rhs.signal_sum(rhs.disturb, 5.0) == 0.0

    def test_multiple_signals_sum(self, stock):
        rhs = rhs_for(stock, events=(
            AdditiveActuator(at=1.0, signal=F.parse("2", 0)),
            AdditiveActuator(at=3.0, signal=F.parse("t", 0)),
        ))
        assert rhs.signal_sum(rhs.additive, 2.0) == 2.0
        assert rhs.signal_sum(rhs.additive, 4.0) == 6.0


class TestValidation:
    def test_theta_range(self):
        with pytest.raises(ScheduleError):
            LossOfEffectiveness(at=1.0, theta=0.0)
        with pytest.raises(ScheduleError):
            LossOfEffectiveness(at=1.0, theta=1.5)

    def test_negative_time(self):
        with pytest.raises(ScheduleError):
            LossOfEffectiveness(at=-1.0, theta=0.5)

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
