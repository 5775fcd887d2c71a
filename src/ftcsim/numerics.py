"""Small dense linear algebra and fixed-step integration.

The linear algebra works on plain numpy float arrays: vectors are 1-d
arrays, matrices 2-d. Sizes are tiny (n <= 10), so the routines favour
verifiable code over asymptotic cleverness: the Lyapunov equation is solved
through its Kronecker vectorization (numpy has no Lyapunov routine), and
definiteness is read off the smallest eigenvalue from numpy.linalg.eigvalsh.
The RK4 step works on float sequences instead, because at these sizes
numpy's per-call overhead costs more than the arithmetic.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

SYMMETRY_TOL = 1e-9
PD_TOL = 1e-12
ZERO_COLUMN_TOL = 1e-14


class NonFiniteDerivative(ArithmeticError):
    """A derivative evaluation produced NaN or infinity."""


class SingularSystem(ArithmeticError):
    """The vectorized Lyapunov system is numerically singular."""


class NotSymmetric(ValueError):
    """Matrix asymmetry exceeds the symmetry tolerance."""


class ZeroColumn(ValueError):
    """Column vector has (numerically) zero norm."""


def rk4_step(deriv: Callable[[float, Sequence[float]], Sequence[float]],
             t: float, x: Sequence[float], h: float,
             k1: Sequence[float] | None = None) -> list[float]:
    """Advance x by one classical 4th-order Runge-Kutta step of size h.

    x and the derivatives are float sequences; the new state is returned as
    a list. Pass k1 = deriv(t, x) when the caller has already evaluated it,
    which saves one of the four evaluations. Each element is combined in
    the order the array expressions x + (h/2)*k and
    x + (h/6)*(k1 + 2*k2 + 2*k3 + k4) use, so the result is bit-identical
    to the numpy form.

    Raises NonFiniteDerivative if any of the four stage evaluations is
    non-finite; the state itself then stays untouched.
    """
    if k1 is None:
        k1 = deriv(t, x)
    h2 = h / 2.0
    k2 = deriv(t + h2, [a + h2 * b for a, b in zip(x, k1)])
    k3 = deriv(t + h2, [a + h2 * b for a, b in zip(x, k2)])
    k4 = deriv(t + h, [a + h * b for a, b in zip(x, k3)])
    for k in (k1, k2, k3, k4):
        if not all(map(math.isfinite, k)):
            raise NonFiniteDerivative(f"non-finite derivative near t={t!r}")
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def solve_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A = -Q for symmetric P.

    Vectorizes to the n^2 x n^2 system (I (x) A^T + A^T (x) I) vec(P) =
    -vec(Q) and solves it densely with partial pivoting. Fine for the
    small n used here; requires no eigenvalue pair of A summing to zero
    (always true for Hurwitz A).
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape != (n, n):
        raise ValueError("A and Q must be square with matching size")
    _require_symmetric(Q, "Q")

    eye = np.eye(n)
    K = np.kron(eye, A.T) + np.kron(A.T, eye)
    try:
        vec_p = np.linalg.solve(K, -Q.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    P = vec_p.reshape((n, n), order="F")
    P = 0.5 * (P + P.T)

    residual = np.max(np.abs(A.T @ P + P @ A + Q))
    if not np.isfinite(residual) or residual > 1e-10:
        raise SingularSystem(
            f"Lyapunov solve residual {residual:.3e} exceeds 1e-10; "
            "system is numerically singular")
    return P


def is_positive_definite(M: np.ndarray) -> bool:
    """True iff the smallest eigenvalue of (the symmetrized) M exceeds 1e-12.

    Raises NotSymmetric when the asymmetry of M is larger than 1e-9.
    """
    return bool(eig_symmetric(M)[0] > PD_TOL)


def eig_symmetric(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Raises NotSymmetric if M is not symmetric to 1e-9; otherwise the
    symmetrized matrix goes to LAPACK's symmetric eigensolver.
    """
    M = np.asarray(M, dtype=float)
    _require_symmetric(M, "M")
    return np.linalg.eigvalsh(0.5 * (M + M.T))


def left_pinv_col(b: np.ndarray) -> np.ndarray:
    """Left pseudo-inverse b^T / (b^T b) of a nonzero column vector."""
    b = np.asarray(b, dtype=float).reshape(-1)
    nrm2 = float(np.dot(b, b))
    if np.sqrt(nrm2) < ZERO_COLUMN_TOL:
        raise ZeroColumn("column vector is numerically zero")
    return b / nrm2


def _require_symmetric(M: np.ndarray, name: str) -> None:
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"{name} is not symmetric (max asymmetry {asym:.3e})")
