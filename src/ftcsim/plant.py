"""Model data of the reference model, nominal plant and faulty plant.

The plant family is single-input affine:

    nominal    x_hat' = A x_hat + b (f(x_hat) + g(x_hat) u)
    faulty     x_f'   = A x_f + b f(x_f) + b theta g(x_f) (u_f + d_f) + E d
    reference  x_d'   = A_d x_d + B_d r

with scalar input, scalar drift nonlinearity f, scalar input gain g, and a
loss-of-effectiveness factor theta in (0, 1]. The disturbance channel E is
either a constant column or "matched": E(t) = scale * b * g along the
trajectory. The dataclasses here hold and validate the model; the
right-hand sides themselves live in ``engine._CompiledRhs``, the one
definition the simulation integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprlang, numerics
from .exprlang import Expr


class ModelError(ValueError):
    """A model definition violates one of its structural requirements."""


@dataclass(frozen=True)
class LinearCore:
    """Known linear part (A, b, C) of the plant; (A, b) must be controllable."""

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ModelError("A must be square")
        if b.shape != (n,):
            raise ModelError("b must be a length-n column")
        if C.shape[1] != n:
            raise ModelError("C must have n columns")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "C", C)
        ctrb = np.column_stack([np.linalg.matrix_power(A, k) @ b for k in range(n)])
        if np.linalg.matrix_rank(ctrb, tol=1e-9 * np.linalg.norm(ctrb, 2)) != n:
            raise ModelError("(A, b) is not controllable")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def l(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class NonlinearPair:
    """Scalar drift f(x, t) and input gain g(x, t) with a runtime floor on g.

    g must be bounded away from zero at the origin (|g(0, 0)| > g_min),
    matching the feedback-linearization requirement g(0) != 0.
    """

    f: Expr
    g: Expr
    g_min: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.g_min < math.inf:
            raise ModelError("g_min must be positive and finite")
        x0 = [0.0] * self.g.n_states
        if abs(exprlang.evaluate(self.g, 0.0, x0)) <= self.g_min:
            raise ModelError("input gain g vanishes at the origin")


@dataclass(frozen=True)
class ReferenceModel:
    """Target dynamics x_d' = A_d x_d + B_d r; A_d must be Hurwitz."""

    A_d: np.ndarray
    B_d: np.ndarray

    def __post_init__(self):
        A_d = np.atleast_2d(np.asarray(self.A_d, dtype=float))
        B_d = np.asarray(self.B_d, dtype=float).reshape(-1)
        n = A_d.shape[0]
        if A_d.shape != (n, n) or B_d.shape != (n,):
            raise ModelError("reference model dimensions are inconsistent")
        object.__setattr__(self, "A_d", A_d)
        object.__setattr__(self, "B_d", B_d)
        try:
            P = numerics.solve_lyapunov(A_d, np.eye(n))
        except numerics.SingularSystem as exc:
            raise ModelError(f"A_d is not Hurwitz: {exc}") from exc
        if not numerics.is_positive_definite(P):
            raise ModelError("A_d is not Hurwitz (Lyapunov test failed)")


@dataclass(frozen=True)
class DisturbanceChannel:
    """How the external disturbance d(t) enters the faulty plant.

    mode "constant": through a fixed column E.
    mode "matched":  through scale * b * g(x_f, t), i.e. the input channel.
    """

    mode: str = "matched"
    E: np.ndarray | None = None
    scale: float = 0.0

    def __post_init__(self):
        if self.mode not in ("constant", "matched"):
            raise ModelError(f"unknown disturbance channel mode {self.mode!r}")
        if not math.isfinite(self.scale):
            raise ModelError("disturbance scale must be finite")
        if self.mode == "constant":
            if self.E is None:
                raise ModelError("constant disturbance channel needs E")
            object.__setattr__(self, "E", np.asarray(self.E, dtype=float).reshape(-1))
            if not np.all(np.isfinite(self.E)):
                raise ModelError("disturbance column E must be finite")

