import math

import numpy as np
import pytest

import ftcsim as F
from ftcsim.plant import DisturbanceChannel, LinearCore, NonlinearPair, ReferenceModel
from ftcsim.virtual_actuator import AdaptationConfig, uub_radius

from closed_loop import pack, rhs_for, split


def make_config(p2, **kw):
    defaults = dict(gamma1=20.0, gamma2=200.0, gamma3=1000.0, P=p2,
                    theta_design=0.5, d_tilde_max=2.5, d_dot_max=1.0)
    defaults.update(kw)
    return AdaptationConfig(**defaults)


# The reconfiguration block and its update laws are checked on the
# engine's closed loop (engine._CompiledRhs) at hand-built states z. With
# x_hat = 0 and f(0) = 0 the control law gives u = k_r r / g = r / 4, so
# each case picks r to get the nominal input it needs.


def u_f_at(stock, x_tilde, u, **va):
    rhs = rhs_for(stock, r_signal=repr(4.0 * u), mode="faulty_with_va")
    _, u_nom, u_f = rhs.full(0.0, pack(np.zeros(3), x_f=x_tilde, **va))
    assert u_nom == u
    return u_f


class TestReconfigure:
    def test_identity_passthrough(self, stock):
        for u in (-2.0, 0.0, 9.0):
            assert u_f_at(stock, [1.0, -4.0, 2.0], u) == u

    def test_state_projection(self, stock):
        got = u_f_at(stock, [2.0, 5.0, 7.0], 9.0, M=[1.0, 0.0, 0.0], N=0.0)
        assert got == 2.0

    def test_combined(self, stock):
        got = u_f_at(stock, [0.0, 0.0, 2.0], 4.0, M=[0.0, 0.0, -1.0],
                     N=0.5, d_hat=0.1)
        assert got == pytest.approx(-0.1, abs=1e-15)

    def test_affine_superposition(self, stock):
        # u_f + d_hat is linear in (x_tilde, u); r = t with a constant
        # gain g = 4 gives u = t / 4
        nl = NonlinearPair(f=stock.nl.f, g=F.parse("4", 3))
        rhs = rhs_for(stock, nl=nl, r_signal="t", events=(),
                      mode="faulty_with_va")
        rng = np.random.RandomState(8)
        M, N, d_hat = rng.standard_normal(3), 0.7, -0.4

        def shifted(x_tilde, u):
            z = pack(np.zeros(3), x_f=x_tilde, M=M, N=N, d_hat=d_hat)
            return rhs.full(4.0 * u, z)[2] + d_hat

        for _ in range(20):
            xa, xb = rng.standard_normal(3), rng.standard_normal(3)
            ua, ub = rng.standard_normal(2)
            lhs = shifted(xa + xb, ua + ub)
            rhs_sum = shifted(xa, ua) + shifted(xb, ub)
            assert lhs == pytest.approx(rhs_sum, rel=1e-12, abs=1e-12)


class TestAdaptDeriv:
    def test_zero_difference_freezes_all_laws(self, stock):
        rhs = rhs_for(stock, mode="faulty_with_va")
        rng = np.random.RandomState(12)
        for _ in range(20):
            z = pack(rng.standard_normal(3), M=rng.standard_normal(3),
                     N=float(rng.standard_normal()))
            parts = split(rhs.full(1.0, z)[0], 3)
            assert np.array_equal(parts["M"], np.zeros(3))
            assert parts["N"] == 0.0 and parts["d_hat"] == 0.0

    def test_stock_values(self, stock, p2):
        # stock rates 20 / 200 / 1000 and weight p2; r = 4 gives u = 1
        assert np.array_equal(stock.adaptation.P, p2)
        rhs = rhs_for(stock, r_signal="4", mode="faulty_with_va")
        parts = split(rhs.full(0.0, pack(np.zeros(3), x_f=[0.0, 0.0, 1.0]))[0], 3)
        # b^T p2 x_tilde = 1.1, g(0) = 4, so the shared scalar is 4.4
        assert parts["M"] == pytest.approx([0.0, 0.0, -88.0], rel=1e-12)
        assert parts["N"] == pytest.approx(-880.0, rel=1e-12)
        assert parts["d_hat"] == pytest.approx(4400.0, rel=1e-12)

    def test_rate_proportionality(self, stock, p2):
        # each law scales linearly with its own rate
        x_f = np.array([1.0, 0.0, -1.0])
        z = pack(x_f - np.array([0.3, -0.2, 0.9]), x_f=x_f)
        full = split(rhs_for(stock, adaptation=make_config(p2),
                             mode="faulty_with_va").full(2.0, z)[0], 3)
        half = split(rhs_for(stock, adaptation=make_config(p2, gamma3=500.0),
                             mode="faulty_with_va").full(2.0, z)[0], 3)
        assert half["d_hat"] == pytest.approx(0.5 * full["d_hat"], rel=1e-12)
        assert np.array_equal(half["M"], full["M"]) and half["N"] == full["N"]


class TestUubRadius:
    def make_unit_parts(self):
        core = LinearCore(A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -3.0]],
                          b=[0.0, 0.0, 1.0], C=[[1.0, 1.0, 1.0]])
        gains = F.NominalGains(k_x=np.zeros(3), k_r=1.0,
                               residual_A=0.0, residual_B=0.0)
        return core, gains

    def test_disturbance_free_reduces_to_beta_over_theta(self):
        core, gains = self.make_unit_parts()
        cfg = AdaptationConfig(gamma1=1, gamma2=1, gamma3=1, P=np.eye(3),
                               theta_design=0.5, d_tilde_max=0.0, d_dot_max=0.0)
        # beta = ||P b|| |k_r| r_bound = 1
        assert uub_radius(cfg, core, gains, 1.0, 0.0) == pytest.approx(2.0)

    def test_zero_everything(self):
        core, gains = self.make_unit_parts()
        cfg = AdaptationConfig(gamma1=1, gamma2=1, gamma3=1, P=np.eye(3),
                               theta_design=0.5)
        assert uub_radius(cfg, core, gains, 0.0, 0.0) == 0.0

    def test_with_disturbance_term(self):
        core, gains = self.make_unit_parts()
        cfg = AdaptationConfig(gamma1=1, gamma2=4.0, gamma3=1, P=np.eye(3),
                               theta_design=0.5, d_tilde_max=2.0, d_dot_max=2.0)
        # beta = 2 (r_bound = 2), mu = 2*2/4 = 1, disc = 4 - 2 = 2
        got = uub_radius(cfg, core, gains, 2.0, 0.0)
        assert got == pytest.approx((2.0 + math.sqrt(2.0)) / 1.0, rel=1e-12)

    def test_negative_discriminant_clamped(self):
        core, gains = self.make_unit_parts()
        cfg = AdaptationConfig(gamma1=1, gamma2=1, gamma3=1, P=np.eye(3),
                               theta_design=0.9, d_tilde_max=10.0, d_dot_max=10.0)
        got = uub_radius(cfg, core, gains, 0.1, 0.0)
        assert got == pytest.approx(0.1 / (2 * 0.9))


class TestConfigValidation:
    def test_rates_must_be_positive(self, p2):
        with pytest.raises(ValueError):
            make_config(p2, gamma3=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma1", "gamma2", "gamma3",
                                       "d_tilde_max", "d_dot_max"])
    def test_non_finite_rejected(self, p2, field, value):
        with pytest.raises(ValueError, match=field):
            make_config(p2, **{field: value})

    def test_weight_must_be_pd(self):
        with pytest.raises(ValueError):
            make_config(np.diag([1.0, 1.0, 0.0]))

    def test_theta_design_in_open_interval(self, p2):
        with pytest.raises(ValueError):
            make_config(p2, theta_design=1.0)


class TestLyapunovCancellation:
    """The update laws must make the adaptation energy drain exactly as the
    closed-form derivative says, once the weight of each parameter error is
    rate-paired with its own law and scaled by the (constant) effectiveness.

    Construction with zero drift, constant gain and a known effectiveness
    theta0: the ideal parameters are M* = 0, N* = 0, the lumped disturbance
    is zero, and

        V = 1/2 xt' P xt + theta0/(2 g1) |M|^2 + theta0/(2 g2) N^2
            + theta0/(2 g3) d_hat^2
        V' = -1/2 xt' Q xt - xt' P b (k_r r) - xt' P b (k_x . x_hat)

    holds exactly along trajectories, so a centred finite difference of V
    must match the right side to discretization accuracy.
    """

    def test_energy_derivative_two_ways(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        b = np.array([0.0, 1.0])
        core = LinearCore(A=A, b=b, C=[[1.0, 0.0]])
        nl = NonlinearPair(f=F.parse("0", 2), g=F.parse("2", 2))
        ref = ReferenceModel(A_d=[[0.0, 1.0], [-4.0, -4.0]], B_d=[0.0, 3.0])
        P = F.solve_lyapunov(A, np.eye(2))
        g1, g2, g3 = 2.0, 3.0, 5.0
        theta0 = 0.5
        cfg = AdaptationConfig(gamma1=g1, gamma2=g2, gamma3=g3, P=P,
                               theta_design=0.5)
        sched = F.FaultSchedule((F.LossOfEffectiveness(at=0.0, theta=theta0),))
        s = F.Scenario(
            core=core, nl=nl, ref=ref,
            channel=DisturbanceChannel(mode="matched", scale=0.0),
            adaptation=cfg, schedule=sched, r_signal=F.parse("sin(t)", 0),
            x_hat0=np.array([0.5, 0.0]), x_f0=np.array([0.2, -0.3]),
            x_d0=np.zeros(2), t_end=2.0, h=1e-4, mode="faulty_with_va")
        tr = F.run(s)

        gains = F.synthesize_gains(A, b, ref.A_d, ref.B_d)
        Q = -(A.T @ P + P @ A)
        r_fn = F.compile_expr(s.r_signal)
        r = np.array([r_fn(float(t), ()) for t in tr.t])

        V = (0.5 * np.einsum("ki,ij,kj->k", tr.x_tilde, P, tr.x_tilde)
             + theta0 / (2 * g1) * np.einsum("ki,ki->k", tr.M, tr.M)
             + theta0 / (2 * g2) * tr.N ** 2
             + theta0 / (2 * g3) * tr.d_hat ** 2)
        fd = (V[2:] - V[:-2]) / (2 * s.h)

        xtPb = tr.x_tilde @ (P @ b)
        alg = (-0.5 * np.einsum("ki,ij,kj->k", tr.x_tilde, Q, tr.x_tilde)
               - xtPb * (gains.k_r * r)
               - xtPb * (tr.x_hat @ gains.k_x))
        alg = alg[1:-1]

        scale = np.max(np.abs(alg))
        assert scale > 1e-6  # the test must actually exercise the laws
        assert np.max(np.abs(fd - alg)) <= 1e-3 * scale
