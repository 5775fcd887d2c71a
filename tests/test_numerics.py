import math

import numpy as np
import pytest

from ftcsim import numerics
from ftcsim.numerics import (NonFiniteDerivative, NotSymmetric, SingularSystem,
                             ZeroColumn, eig_symmetric, is_positive_definite,
                             left_pinv_col, rk4_step, solve_lyapunov)

from oracles import exact_positive_definite, exact_rank


# --- independent oracle: rebuild and solve the vectorized Lyapunov system
# with hand-rolled elimination, no numpy linear algebra involved

def gauss_solve(A_rows, rhs):
    A = [list(map(float, row)) for row in A_rows]
    b = [float(v) for v in rhs]
    n = len(A)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if abs(A[piv][col]) < 1e-300:
            raise ZeroDivisionError("singular")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            factor = A[r][col] / A[col][col]
            if factor == 0.0:
                continue
            for c in range(col, n):
                A[r][c] -= factor * A[col][c]
            b[r] -= factor * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= A[r][c] * x[c]
        x[r] = acc / A[r][r]
    return x


def lyapunov_oracle(A, Q):
    """Solve A^T P + P A = -Q by building the n^2 x n^2 system entry by
    entry (column-major unknown ordering) and eliminating by hand."""
    n = len(A)
    N = n * n
    K = [[0.0] * N for _ in range(N)]
    rhs = [0.0] * N
    for i in range(n):
        for j in range(n):
            row = j * n + i
            for k in range(n):
                K[row][j * n + k] += A[k][i]   # (A^T P)_ij term
                K[row][k * n + i] += A[k][j]   # (P A)_ij term
            rhs[row] = -Q[i][j]
    x = gauss_solve(K, rhs)
    return np.array([[x[c * n + r] for c in range(n)] for r in range(n)])


def random_hurwitz(rng, n):
    """Companion matrix of a polynomial with stable roots."""
    roots = []
    while len(roots) < n:
        if n - len(roots) >= 2 and rng.random() < 0.5:
            re = -0.2 - 2.0 * rng.random()
            im = 2.0 * rng.random()
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(complex(-0.2 - 2.0 * rng.random(), 0.0))
    coeffs = np.real(np.poly(np.array(roots)))
    n = len(coeffs) - 1
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -coeffs[1:][::-1]
    return A


class TestRk4:
    def test_zero_field_fixed_point(self):
        x = rk4_step(lambda t, x: np.zeros_like(x), 0.0, np.array([1.0, 2.0]), 0.01)
        assert np.array_equal(x, [1.0, 2.0])

    def test_constant_field_exact(self):
        x = rk4_step(lambda t, x: np.ones_like(x), 0.0, np.array([0.0]), 0.5)
        assert x[0] == 0.5

    def test_exponential_single_step(self):
        x = rk4_step(lambda t, x: np.negative(x), 0.0, np.array([1.0]), 0.1)
        assert x[0] == pytest.approx(0.9048375, abs=1e-12)
        assert abs(x[0] - math.exp(-0.1)) < 0.1 ** 5

    def test_nonfinite_stage_detected(self):
        with pytest.raises(NonFiniteDerivative):
            rk4_step(lambda t, x: np.multiply(x, float("inf")), 0.0,
                     np.array([1.0]), 0.1)

    def test_given_k1_saves_one_evaluation(self):
        calls = []

        def deriv(t, x):
            calls.append(t)
            return [-v for v in x]

        plain = rk4_step(deriv, 0.0, [1.0, -2.0], 0.1)
        assert len(calls) == 4
        reused = rk4_step(deriv, 0.0, [1.0, -2.0], 0.1, k1=[-1.0, 2.0])
        assert len(calls) == 7
        assert reused == plain

    def test_convergence_order(self):
        errs = []
        for h in (0.1, 0.05, 0.025):
            x = np.array([1.0])
            steps = round(1.0 / h)
            for k in range(steps):
                x = rk4_step(lambda t, x: np.negative(x), k * h, x, h)
            errs.append(abs(x[0] - math.exp(-1.0)))
        for a, b in zip(errs, errs[1:]):
            assert math.log2(a / b) >= 3.9


class TestSolveLyapunov:
    def test_scalar(self):
        P = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert P == pytest.approx(np.array([[1.0]]))

    def test_three_state_against_elimination_oracle(self, core):
        Q = np.eye(3)
        P = solve_lyapunov(core.A, Q)
        P_ora = lyapunov_oracle(core.A.tolist(), Q.tolist())
        assert np.max(np.abs(P - P_ora)) < 1e-10
        assert is_positive_definite(P)

    def test_eigenvalue_sum_zero_is_singular(self):
        with pytest.raises(SingularSystem):
            solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))

    def test_random_hurwitz_solutions(self):
        rng = np.random.RandomState(7)
        for _ in range(25):
            n = rng.randint(1, 6)
            A = random_hurwitz(rng, n)
            P = solve_lyapunov(A, np.eye(n))
            assert np.max(np.abs(P - P.T)) <= 1e-12
            assert np.max(np.abs(A.T @ P + P @ A + np.eye(n))) <= 1e-10
            assert is_positive_definite(P)


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_semidefinite_boundary(self):
        assert not is_positive_definite(np.diag([1.0, 0.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            is_positive_definite(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_q1_of_stock_system_is_indefinite(self, core, p1):
        # Q1 = -(A^T p1 + p1 A) has a zero (3,3) entry with nonzero
        # off-diagonals in that row, hence cannot be definite.
        Q1 = -(core.A.T @ p1 + p1 @ core.A)
        assert Q1[2, 2] == 0.0
        assert not is_positive_definite(Q1)

    def test_matches_eigensolver_on_random_matrices(self):
        # The reference is exact: rational elimination on the float
        # entries. Only matrices whose smallest eigenvalue is at least 1e-9
        # away from zero are kept, so the 1e-12 threshold never decides.
        rng = np.random.RandomState(11)
        verdicts = []
        for k in range(600):
            n = rng.randint(1, 6)
            R = rng.standard_normal((n, n))
            if k % 3 == 0:
                M = R @ R.T + 1e-3 * np.eye(n)   # definitely PD
            elif k % 3 == 1:
                M = R @ R.T                      # PD unless nearly singular
            else:
                M = R + R.T                      # usually indefinite
            M = 0.5 * (M + M.T)
            if abs(np.linalg.eigvalsh(M)[0]) <= 1e-9:
                continue
            expected = exact_positive_definite(M)
            assert is_positive_definite(M) == expected
            verdicts.append(expected)
        assert verdicts.count(True) > 300 and verdicts.count(False) > 150

    def test_integer_factors_against_exact_oracle(self):
        # V V^T with integer V of rank < n is exactly singular: rounding
        # in a factorization must not make it positive definite.
        rng = np.random.RandomState(13)
        singular = 0
        for _ in range(3000):
            n = rng.randint(2, 6)
            r = rng.randint(1, n + 1)
            V = rng.randint(-5, 6, size=(n, r))
            M = (V @ V.T).astype(float)
            expected = exact_positive_definite(M)
            if expected and np.linalg.eigvalsh(M)[0] <= 1e-9:
                continue
            assert is_positive_definite(M) == expected
            singular += exact_rank(M) < n
        assert singular > 2000

    def test_singular_integer_factor_rejected(self, singular_p):
        assert exact_rank(singular_p) == 2
        assert not is_positive_definite(singular_p)


class TestEigSymmetric:
    def test_diagonal(self):
        assert eig_symmetric(np.diag([3.0, 1.0, 2.0])) == pytest.approx([1, 2, 3])

    def test_exchange_matrix(self):
        assert eig_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx([-1, 1])

    def test_lyapunov_solution_spectrum_positive(self, core):
        P = solve_lyapunov(core.A, np.eye(3))
        assert eig_symmetric(P).min() > 0

    def test_against_analytic_spectrum(self, core, p1):
        # eigenvalues of Q1 solve (1 - y)(y^2 - y - 5/2) = 0
        Q1 = -(core.A.T @ p1 + p1 @ core.A)
        expected = sorted([1.0, (1 - math.sqrt(11)) / 2, (1 + math.sqrt(11)) / 2])
        assert eig_symmetric(Q1) == pytest.approx(expected, abs=1e-10)

    def test_trace_and_determinant_on_random(self):
        # the eigenvalues sum to the trace and multiply to the determinant
        # (an LU product, independent of the eigensolver)
        rng = np.random.RandomState(3)
        for _ in range(30):
            n = rng.randint(2, 7)
            M = rng.standard_normal((n, n))
            M = 0.5 * (M + M.T)
            ev = eig_symmetric(M)
            assert np.all(np.diff(ev) >= 0.0)
            assert abs(ev.sum() - np.trace(M)) <= 1e-9 * np.abs(ev).sum()
            det = np.linalg.det(M)
            assert abs(np.prod(ev) - det) <= 1e-9 * abs(det)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLeftPinvCol:
    def test_unit_column(self):
        assert np.array_equal(left_pinv_col([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])

    def test_scaled_column(self):
        assert np.array_equal(left_pinv_col([0.0, 0.0, 2.0]), [0.0, 0.0, 0.5])

    def test_ones_column(self):
        assert np.array_equal(left_pinv_col([1.0, 1.0, 1.0, 1.0]), [0.25] * 4)

    def test_composition_is_identity(self):
        rng = np.random.RandomState(5)
        for _ in range(50):
            b = rng.standard_normal(rng.randint(1, 8))
            if np.linalg.norm(b) < 1e-12:
                continue
            assert abs(float(left_pinv_col(b) @ b) - 1.0) <= 1e-14

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumn):
            left_pinv_col([0.0, 0.0, 0.0])

