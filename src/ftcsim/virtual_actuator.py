"""Adaptive virtual actuator: fault-hiding reconfiguration block.

Sits between the nominal controller and the faulty plant. The applied
input is

    u_f = M . x_tilde + N u - d_hat,        x_tilde = x_f - x_hat,

and the adjustable parameters follow gradient-type laws driven by the
shared scalar s = g(x_f) * b^T P x_tilde:

    M' = -gamma1 s x_tilde^T,   N' = -gamma2 s u,   d_hat' = gamma3 s.

With M = 0, N = 1, d_hat = 0 the block is transparent, so before any
fault the faulty plant behaves exactly like the nominal one. The block and
its laws are integrated in ``engine._CompiledRhs``; this module holds
their configuration and the ultimate bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import NominalGains
from .numerics import is_positive_definite
from .plant import LinearCore


@dataclass(frozen=True)
class AdaptationConfig:
    """Rates, Lyapunov weight and bound data for the update laws."""

    gamma1: float
    gamma2: float
    gamma3: float
    P: np.ndarray
    theta_design: float = 0.5
    d_tilde_max: float = 0.0
    d_dot_max: float = 0.0

    def __post_init__(self):
        # written so that NaN fails too
        for name in ("gamma1", "gamma2", "gamma3"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.theta_design < 1.0:
            raise ValueError("theta_design must lie in (0, 1)")
        for name in ("d_tilde_max", "d_dot_max"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", P)
        if not is_positive_definite(P):
            raise ValueError("adaptation weight P must be positive definite")


def uub_radius(cfg: AdaptationConfig, core: LinearCore, gains: NominalGains,
               r_bound: float, x_hat_bound: float) -> float:
    """Ultimate-bound radius for ||x_tilde||.

    beta collects the worst-case forcing of the difference system by the
    nominal loop, mu the disturbance-rate term over the N-law rate gamma2;
    the radius is the larger root of theta r^2 - beta r + mu = 0:

        radius = (beta + sqrt(beta^2 - 4 theta mu)) / (2 theta)

    A negative discriminant (possible for large mu) is clamped to zero,
    which conservatively returns the vertex beta / (2 theta).
    """
    Pb = cfg.P @ core.b
    norm_Pb = float(np.linalg.norm(Pb))
    # operator norm of the rank-1 matrix (P b) k_x^T
    norm_Pbkx = norm_Pb * float(np.linalg.norm(gains.k_x))
    beta = norm_Pb * abs(gains.k_r) * r_bound + norm_Pbkx * x_hat_bound
    mu = cfg.d_tilde_max * cfg.d_dot_max / cfg.gamma2
    theta = cfg.theta_design
    disc = max(beta * beta - 4.0 * theta * mu, 0.0)
    return (beta + float(np.sqrt(disc))) / (2.0 * theta)
