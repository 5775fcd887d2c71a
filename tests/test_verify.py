import math

import numpy as np
import pytest

from ftcsim import numerics, verify
from ftcsim.numerics import SingularSystem
from ftcsim.verify import check_condition, synthesize_p

from test_numerics import random_hurwitz


class TestCheckCondition:
    def test_diagonal_certificate(self):
        rep = check_condition(-np.eye(3), np.eye(3))
        assert np.allclose(rep.Q, 2.0 * np.eye(3))
        assert rep.certified and rep.verdict == "certified"

    def test_supplied_weight_only_semidefinite(self, core, p1):
        # the (3,3) entry of A^T p1 + p1 A cancels exactly, so Q1 has a
        # zero diagonal entry with nonzero off-diagonals: indefinite,
        # eigenvalues {(1 - sqrt 11)/2, 1, (1 + sqrt 11)/2}
        rep = check_condition(core.A, p1, verify.LABEL_NOMINAL)
        assert rep.P_pd                      # p1 itself is fine
        assert not rep.Q_pd                  # the strict inequality fails
        assert rep.verdict == "not_certified"
        expected = sorted([1.0, (1 - math.sqrt(11)) / 2, (1 + math.sqrt(11)) / 2])
        assert rep.eig_Q == pytest.approx(expected, abs=1e-10)

    def test_supplied_weight_certified(self, core, p2):
        rep = check_condition(core.A, p2, verify.LABEL_RECONFIG)
        assert rep.certified
        assert rep.eig_Q == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)

    def test_q_recomputed_independently(self, core, p2):
        rep = check_condition(core.A, p2)
        Q = -(core.A.T @ p2 + p2 @ core.A)
        assert np.max(np.abs(rep.Q - Q)) <= 1e-12

    def test_singular_p_not_certified(self, core, singular_p):
        rep = check_condition(core.A, singular_p)
        assert not rep.P_pd
        assert not rep.certified

    def test_asymmetric_p_rejected(self, core):
        with pytest.raises(numerics.NotSymmetric):
            check_condition(core.A, np.array([[1.0, 1.0, 0.0],
                                              [0.0, 1.0, 0.0],
                                              [0.0, 0.0, 1.0]]))


class TestSynthesizeP:
    def test_scalar(self):
        P, rep = synthesize_p(np.array([[-1.0]]))
        assert P[0, 0] == pytest.approx(0.5)
        assert rep.certified

    def test_stock_system_certified(self, core):
        # char poly s^3 + 3 s^2 + 2 s + 1 is Hurwitz (Routh: 3*2 > 1)
        P, rep = synthesize_p(core.A)
        assert np.max(np.abs(P - P.T)) <= 1e-12
        assert np.max(np.abs(core.A.T @ P + P @ core.A + np.eye(3))) <= 1e-10
        assert rep.certified

    def test_double_integrator_rejected(self):
        with pytest.raises(SingularSystem):
            synthesize_p(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_hurwitz_always_certified(self):
        rng = np.random.RandomState(23)
        for _ in range(20):
            A = random_hurwitz(rng, rng.randint(1, 6))
            P, rep = synthesize_p(A)
            assert rep.certified
            assert check_condition(A, P).certified


class TestReportRendering:
    def test_text_contains_verdict_and_spectrum(self, core, p2):
        rep = check_condition(core.A, p2)
        text = verify.render_report(rep)
        assert "certified" in text
        assert "eig(Q)" in text

    def test_csv_rows(self, core, p1):
        rep = check_condition(core.A, p1)
        rows = verify.report_csv_rows(rep)
        assert rows[0].endswith("not_certified")
        assert any(r.startswith(f"{rep.label},eig_Q,") for r in rows)
