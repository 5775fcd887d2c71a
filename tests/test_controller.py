import math

import numpy as np
import pytest

import ftcsim as F
from ftcsim.controller import (InputGainTooSmall, MatchingConditionViolated,
                               synthesize_gains)
from ftcsim.numerics import rk4_step
from ftcsim.plant import NonlinearPair

from closed_loop import pack, rhs_for, scalar_decay_scenario


class TestSynthesizeGains:
    def test_stock_system(self, core, ref):
        g = synthesize_gains(core.A, core.b, ref.A_d, ref.B_d)
        assert np.array_equal(g.k_x, [0.0, 0.0, -1.0])
        assert g.k_r == 1.0
        assert g.residual_A == 0.0
        assert g.residual_B == 0.0

    def test_identity_matching(self, core):
        g = synthesize_gains(core.A, core.b, core.A, core.b)
        assert np.array_equal(g.k_x, np.zeros(3))
        assert g.k_r == 1.0

    def test_out_of_range_target_rejected(self, core):
        A_d = core.A.copy()
        A_d[0, 0] += 1.0  # first row not reachable through b = e3
        with pytest.raises(MatchingConditionViolated) as exc_info:
            synthesize_gains(core.A, core.b, A_d, np.array([0.0, 0.0, 1.0]))
        assert exc_info.value.residual_A > 1e-8


class TestNominalControl:
    """u = (1/g)(-f + k_r r + k_x . x_hat), as the engine's closed loop
    (engine._CompiledRhs) computes it."""

    def test_step_reference_at_origin(self, stock):
        _, u, _ = rhs_for(stock, r_signal="1").full(0.0, pack(np.zeros(3)))
        assert u == 0.25

    def test_rest_is_zero(self, stock):
        _, u, _ = rhs_for(stock, r_signal="0").full(0.0, pack(np.zeros(3)))
        assert u == 0.0

    def test_drift_cancellation_value(self, stock):
        z = pack([0.0, 0.0, math.pi / 2])
        _, u, _ = rhs_for(stock, r_signal="0").full(0.0, z)
        assert u == pytest.approx(-(0.05 + math.pi / 2) / 4.0, rel=1e-14)

    def test_gain_floor_enforced(self):
        nl = NonlinearPair(f=F.parse("0", 1), g=F.parse("1 - x1", 1))
        rhs = rhs_for(scalar_decay_scenario(), nl=nl)
        with pytest.raises(InputGainTooSmall):
            rhs.full(0.0, pack([1.0]))


class TestClosedLoopLinearization:
    def test_matches_assigned_linear_dynamics(self, stock):
        # nominal closed loop must be indistinguishable from
        # z' = (A + b k_x) z + b k_r r
        import dataclasses
        s = dataclasses.replace(stock, mode="nominal_only", t_end=10.0,
                                x_hat0=np.array([0.5, -0.2, 0.1]),
                                x_d0=np.zeros(3))
        tr = F.run(s)
        g = F.synthesize_gains(s.core.A, s.core.b, s.ref.A_d, s.ref.B_d)
        A_cl = s.core.A + np.outer(s.core.b, g.k_x)
        r_fn = F.compile_expr(s.r_signal)

        def lin(t, z):
            return A_cl @ z + s.core.b * (g.k_r * r_fn(t, ()))

        z = s.x_hat0.copy()
        worst = 0.0
        for k in range(s.n_steps):
            worst = max(worst, float(np.max(np.abs(z - tr.x_hat[k]))))
            z = rk4_step(lin, k * s.h, z, s.h)
        worst = max(worst, float(np.max(np.abs(z - tr.x_hat[-1]))))
        assert worst <= 1e-6

    def test_error_obeys_reference_dynamics(self, stock):
        # e = x_hat - x_d follows e' = A_d e when matching is exact
        import dataclasses
        s = dataclasses.replace(stock, mode="nominal_only", t_end=10.0,
                                x_hat0=np.array([1.0, 0.0, -0.5]),
                                x_d0=np.array([0.2, 0.1, 0.0]))
        tr = F.run(s)
        e = s.x_hat0 - s.x_d0
        worst = 0.0
        for k in range(s.n_steps):
            worst = max(worst, float(np.max(np.abs(e - tr.e[k]))))
            e = rk4_step(lambda t, v: s.ref.A_d @ v, k * s.h, e, s.h)
        worst = max(worst, float(np.max(np.abs(e - tr.e[-1]))))
        assert worst <= 1e-6
        # and the error decays at least at the slowest reference-model
        # rate (dominant pole pair of A_d sits near Re s = -0.25)
        e_norm = np.linalg.norm(tr.e, axis=1)
        assert e_norm[-1] < 2.0 * math.exp(-0.25 * s.t_end) * e_norm[0]
