"""Model-matching gains of the feedback-linearizing nominal controller.

The control law, evaluated in ``engine._CompiledRhs``,

    u = (1/g(x)) * (-f(x) + k_r r + k_x . x)

cancels the nonlinearity and assigns the reference dynamics, which is
possible exactly when (A_d - A) and B_d lie in the range of b. The gain
built from (A_d - A) multiplies the state and the gain built from B_d
multiplies the reference; with that assignment the tracking error obeys
e' = A_d e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import left_pinv_col
from .plant import LinearCore, ReferenceModel

MATCHING_TOL = 1e-8


class MatchingConditionViolated(ValueError):
    """(A_d - A) or B_d is not in the range of b; exact matching fails."""

    def __init__(self, residual_A: float, residual_B: float):
        super().__init__(
            f"model matching fails: residual_A={residual_A:.3e}, "
            f"residual_B={residual_B:.3e} (tolerance {MATCHING_TOL:.0e})")
        self.residual_A = residual_A
        self.residual_B = residual_B


class InputGainTooSmall(ArithmeticError):
    """|g(x)| fell below its floor; feedback linearization is singular."""


@dataclass(frozen=True)
class NominalGains:
    k_x: np.ndarray      # multiplies the state
    k_r: float           # multiplies the reference input
    residual_A: float    # max |A - A_d + b k_x|
    residual_B: float    # max |b k_r - B_d|


def synthesize_gains(A: np.ndarray, b: np.ndarray,
                     A_d: np.ndarray, B_d: np.ndarray) -> NominalGains:
    """Gains k_x = (b^T b)^-1 b^T (A_d - A) and k_r = (b^T b)^-1 b^T B_d.

    Raises MatchingConditionViolated when either residual exceeds 1e-8,
    i.e. when exact model matching is impossible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    A_d = np.asarray(A_d, dtype=float)
    B_d = np.asarray(B_d, dtype=float).reshape(-1)

    pinv = left_pinv_col(b)
    k_x = pinv @ (A_d - A)
    k_r = float(pinv @ B_d)
    residual_A = float(np.max(np.abs(A - A_d + np.outer(b, k_x))))
    residual_B = float(np.max(np.abs(b * k_r - B_d)))
    if residual_A > MATCHING_TOL or residual_B > MATCHING_TOL:
        raise MatchingConditionViolated(residual_A, residual_B)
    return NominalGains(k_x=k_x, k_r=k_r, residual_A=residual_A,
                        residual_B=residual_B)


def gains_for(core: LinearCore, ref: ReferenceModel) -> NominalGains:
    return synthesize_gains(core.A, core.b, ref.A_d, ref.B_d)

