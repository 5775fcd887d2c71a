"""Time-triggered actuator faults and external disturbances.

Three event kinds, all right-continuous (active from their trigger time
onward, including the instant itself), each with the ``kind`` name that
scenario files and metrics.txt use:

  * ``loss``: loss of effectiveness, the input channel is scaled by theta
    in (0, 1]; the latest triggered event wins,
  * ``additive``: additive actuator fault d_f(t), time signals summed once
    triggered,
  * ``disturbance``: external disturbance d(t), likewise.

Signals are expressions of t only (no state variables). The engine
evaluates the schedule inside its generated right-hand side
(``engine._CompiledRhs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exprlang import Expr


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class LossOfEffectiveness:
    at: float
    theta: float
    kind = "loss"

    def __post_init__(self):
        _check_time(self.at)
        if not 0.0 < self.theta <= 1.0:
            raise ScheduleError(f"theta must be in (0, 1], got {self.theta}")


@dataclass(frozen=True)
class _SignalEvent:
    at: float
    signal: Expr

    def __post_init__(self):
        _check_time(self.at)
        if self.signal.n_states != 0:
            raise ScheduleError("fault signals may reference t only")


class AdditiveActuator(_SignalEvent):
    kind = "additive"


class ExternalDisturbance(_SignalEvent):
    kind = "disturbance"


def _check_time(at: float) -> None:
    # written so that NaN fails too
    if not 0.0 <= at < math.inf:
        raise ScheduleError(f"event time at={at} must be nonnegative and finite")


FaultEvent = LossOfEffectiveness | AdditiveActuator | ExternalDisturbance
EVENT_KINDS = {cls.kind: cls for cls in
               (LossOfEffectiveness, AdditiveActuator, ExternalDisturbance)}


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
