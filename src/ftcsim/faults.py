"""Time-triggered actuator faults and external disturbances.

Three event kinds, all right-continuous (active from their trigger time
onward, including the instant itself):

  * loss of effectiveness: the input channel is scaled by theta in (0, 1];
    the latest triggered event wins,
  * additive actuator fault d_f(t): time signals, summed once triggered,
  * external disturbance d(t): likewise.

Signals are expressions of t only (no state variables). The engine
evaluates the schedule in ``engine._CompiledRhs`` (``theta_at`` and
``signal_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exprlang import Expr


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class LossOfEffectiveness:
    at: float
    theta: float

    def __post_init__(self):
        if self.at < 0.0:
            raise ScheduleError("event time must be nonnegative")
        if not 0.0 < self.theta <= 1.0:
            raise ScheduleError(f"theta must be in (0, 1], got {self.theta}")


@dataclass(frozen=True)
class AdditiveActuator:
    at: float
    signal: Expr

    def __post_init__(self):
        _check_time_signal(self)


@dataclass(frozen=True)
class ExternalDisturbance:
    at: float
    signal: Expr

    def __post_init__(self):
        _check_time_signal(self)


def _check_time_signal(ev) -> None:
    if ev.at < 0.0:
        raise ScheduleError("event time must be nonnegative")
    if ev.signal.n_states != 0:
        raise ScheduleError("fault signals may reference t only")


FaultEvent = LossOfEffectiveness | AdditiveActuator | ExternalDisturbance


@dataclass(frozen=True)
class FaultSchedule:
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=lambda e: e.at))
        object.__setattr__(self, "events", ordered)

    @property
    def times(self) -> list[float]:
        return [e.at for e in self.events]


def check_grid_alignment(sched: FaultSchedule, h: float) -> None:
    """Event times must sit on the integration grid (integer multiples of h)."""
    for ev in sched.events:
        ratio = ev.at / h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ScheduleError(
                f"event at t={ev.at} is not an integer multiple of the step "
                f"h={h}; align events to the integration grid")
