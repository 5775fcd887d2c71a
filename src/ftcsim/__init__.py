"""Adaptive virtual-actuator fault-tolerant control simulation toolkit.

Builds and simulates the closed loop of a feedback-linearized single-input
affine nonlinear plant, its reference model, a faulty copy subject to
scheduled actuator faults and disturbances, and an adaptive fault-hiding
virtual actuator, with Lyapunov-based verification of the stability
certificates involved.
"""

from .controller import (InputGainTooSmall, MatchingConditionViolated,
                         NominalGains, synthesize_gains)
from .engine import (MODE_FAULTY_NO_VA, MODE_FAULTY_WITH_VA,
                     MODE_NOMINAL_ONLY, Metrics, Scenario, SimTrace,
                     TraceTooLarge, metrics, run)
from .exprlang import (DomainError, Expr, ExprError, compile_expr, evaluate,
                       format_expr, parse)
from .faults import (AdditiveActuator, ExternalDisturbance, FaultSchedule,
                     LossOfEffectiveness)
from .numerics import (NonFiniteDerivative, NotSymmetric, SingularSystem,
                       ZeroColumn, eig_symmetric, is_positive_definite,
                       left_pinv_col, rk4_step, solve_lyapunov)
from .plant import (DisturbanceChannel, LinearCore, NonlinearPair,
                    ReferenceModel)
from .verify import ConditionReport, check_condition, synthesize_p
from .virtual_actuator import AdaptationConfig, uub_radius

__version__ = "0.1.0"
