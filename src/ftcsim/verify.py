"""Lyapunov certificates: check a supplied weight, or construct one.

A positive definite P certifies stability of A when

    Q = -(A^T P + P A)

is itself positive definite. check_condition evaluates that test for a
given P and reports the eigenvalues of Q; synthesize_p builds a certified
P directly from the Lyapunov equation A^T P + P A = -I, which exists
exactly when A is Hurwitz.

A failed check is a report, not an error: a P that only yields a
semidefinite Q can still serve as an adaptation weight, it just carries
no strict certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics

LABEL_NOMINAL = "Theorem1"    # e' = A_d e stability of the nominal loop
LABEL_RECONFIG = "Theorem5"   # ultimate boundedness of the reconfigured loop


@dataclass(frozen=True)
class ConditionReport:
    label: str
    Q: np.ndarray
    eig_Q: np.ndarray
    Q_pd: bool
    P_pd: bool

    @property
    def verdict(self) -> str:
        return "certified" if (self.Q_pd and self.P_pd) else "not_certified"

    @property
    def certified(self) -> bool:
        return self.Q_pd and self.P_pd


def check_condition(A: np.ndarray, P: np.ndarray,
                    label: str = LABEL_NOMINAL) -> ConditionReport:
    """Evaluate the certificate Q = -(A^T P + P A) > 0, P > 0 for given P."""
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    if A.shape != P.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A and P must be square matrices of the same size")
    P_pd = numerics.is_positive_definite(P)  # raises NotSymmetric
    P = 0.5 * (P + P.T)
    Q = -(A.T @ P + P @ A)
    Q = 0.5 * (Q + Q.T)
    eig_Q = numerics.eig_symmetric(Q)
    # the verdict is read off the reported spectrum, so the two agree
    return ConditionReport(
        label=label,
        Q=Q,
        eig_Q=eig_Q,
        Q_pd=bool(eig_Q[0] > numerics.PD_TOL),
        P_pd=P_pd,
    )


def synthesize_p(A: np.ndarray) -> tuple[np.ndarray, ConditionReport]:
    """Solve A^T P + P A = -I for P and report the resulting certificate.

    Raises numerics.SingularSystem when A is not Hurwitz-compatible.
    """
    A = np.asarray(A, dtype=float)
    P = numerics.solve_lyapunov(A, np.eye(A.shape[0]))
    return P, check_condition(A, P)


def render_report(rep: ConditionReport) -> str:
    """Aligned, human-readable rendering of a ConditionReport."""
    lines = [f"condition {rep.label}: verdict {rep.verdict}"]
    lines.append(f"  P positive definite : {'yes' if rep.P_pd else 'no'}")
    lines.append(f"  Q positive definite : {'yes' if rep.Q_pd else 'no'}")
    lines.append("  eig(Q) ascending    : "
                 + ", ".join(f"{v: .9g}" for v in rep.eig_Q))
    lines.append("  Q = -(A^T P + P A) =")
    for row in rep.Q:
        lines.append("      " + "  ".join(f"{v: 12.6g}" for v in row))
    return "\n".join(lines)


def report_csv_rows(rep: ConditionReport) -> list[str]:
    """Machine-readable CSV rows (label, field, values...) for a report."""
    rows = [f"{rep.label},verdict,{rep.verdict}"]
    rows.append(f"{rep.label},P_pd,{int(rep.P_pd)}")
    rows.append(f"{rep.label},Q_pd,{int(rep.Q_pd)}")
    rows.append(f"{rep.label},eig_Q," + ",".join(format(v, ".17g") for v in rep.eig_Q))
    return rows
