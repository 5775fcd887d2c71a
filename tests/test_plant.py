import dataclasses
import math

import numpy as np
import pytest

import ftcsim as F
from ftcsim.faults import (AdditiveActuator, ExternalDisturbance,
                           LossOfEffectiveness)
from ftcsim.plant import (DisturbanceChannel, LinearCore, ModelError,
                          NonlinearPair, ReferenceModel)

from closed_loop import pack, rhs_for, scalar_decay_scenario, split
from oracles import exact_rank


class TestLinearCore:
    def test_stock_system_loads(self, core):
        assert core.n == 3 and core.l == 1

    def test_uncontrollable_pair_rejected(self):
        # b lies in the A-invariant subspace span{e1}
        with pytest.raises(ModelError):
            LinearCore(A=np.diag([-1.0, -2.0]), b=[1.0, 0.0], C=[[1.0, 1.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError):
            LinearCore(A=np.eye(2), b=[1.0, 0.0, 0.0], C=[[1.0, 0.0]])

    @pytest.mark.parametrize("field", ["A", "b", "C"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, field, value):
        # rejected by name before the controllability test, whose SVD
        # fails on NaN with numpy's LinAlgError
        parts = dict(A=[[0.0, 1.0], [-2.0, -3.0]], b=[0.0, 1.0], C=[[1.0, 0.0]])
        parts[field] = np.array(parts[field])
        parts[field].flat[0] = value
        with pytest.raises(ModelError, match=f"^{field} must be finite$"):
            LinearCore(**parts)

    def test_controllability_matches_exact_rank(self):
        # integer (A, b); every other pair is made uncontrollable: A block
        # upper triangular with b zero in the lower block, then permuted
        rng = np.random.RandomState(17)
        verdicts = []
        for k in range(400):
            n = rng.randint(1, 6)
            A = rng.randint(-2, 3, size=(n, n)) * (rng.random_sample((n, n)) < 0.6)
            b = rng.randint(-1, 2, size=n)
            if k % 2 and n > 1:
                m = rng.randint(1, n)
                A[m:, :m] = 0
                b[m:] = 0
                p = rng.permutation(n)
                A, b = A[p][:, p], b[p]
            ctrb = np.column_stack(
                [np.linalg.matrix_power(A, j) @ b for j in range(n)])
            controllable = exact_rank(ctrb) == n
            try:
                LinearCore(A=A.astype(float), b=b.astype(float), C=np.ones((1, n)))
            except ModelError:
                assert not controllable, (A, b)
            else:
                assert controllable, (A, b)
            verdicts.append(controllable)
        assert verdicts.count(True) > 100 and verdicts.count(False) > 150


class TestReferenceModel:
    def test_stock_reference_is_hurwitz(self, ref):
        assert ref.A_d.shape == (3, 3)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(ModelError):
            ReferenceModel(A_d=[[0.0, 1.0], [0.0, 0.0]], B_d=[0.0, 1.0])

    def test_marginally_unstable_rejected(self):
        with pytest.raises(ModelError):
            ReferenceModel(A_d=[[1.0]], B_d=[1.0])


class TestNonlinearPair:
    def test_gain_vanishing_at_origin_rejected(self):
        with pytest.raises(ModelError):
            NonlinearPair(f=F.parse("0", 1), g=F.parse("x1", 1))

    def test_runtime_floor_positive(self):
        with pytest.raises(ModelError):
            NonlinearPair(f=F.parse("0", 1), g=F.parse("1", 1), g_min=0.0)

    @pytest.mark.parametrize("g_min", [math.nan, math.inf])
    def test_runtime_floor_finite(self, g_min):
        with pytest.raises(ModelError, match="g_min"):
            NonlinearPair(f=F.parse("0", 1), g=F.parse("1", 1), g_min=g_min)


class TestDisturbanceChannel:
    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ModelError, match="scale"):
            DisturbanceChannel(mode="matched", scale=scale)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_column_rejected(self, entry):
        with pytest.raises(ModelError, match="column E"):
            DisturbanceChannel(mode="constant", E=[1.0, entry, 0.0])


# The plant right-hand sides are checked on the engine's closed loop
# (engine._CompiledRhs) at hand-built states z; u and r follow from the
# control law, so each case picks r(t) to get the input it needs.


class TestReferenceDeriv:
    def test_rest_at_origin(self, stock):
        out, _, _ = rhs_for(stock, r_signal="0").full(0.0, pack(np.zeros(3)))
        assert np.array_equal(split(out, 3)["x_d"], np.zeros(3))

    def test_unit_reference(self, stock):
        out, _, _ = rhs_for(stock, r_signal="1").full(0.0, pack(np.zeros(3)))
        assert np.array_equal(split(out, 3)["x_d"], [0, 0, 1])

    def test_first_basis_state(self, stock):
        z = pack(np.zeros(3), x_d=[1.0, 0.0, 0.0])
        out, _, _ = rhs_for(stock, r_signal="0").full(0.0, z)
        assert np.array_equal(split(out, 3)["x_d"], [0, 0, -1])


class TestNominalDeriv:
    def test_origin_unforced(self, stock):
        out, u, _ = rhs_for(stock, r_signal="0").full(0.0, pack(np.zeros(3)))
        assert u == 0.0
        assert np.array_equal(split(out, 3)["x_hat"], np.zeros(3))

    def test_unit_input_at_origin(self, stock):
        # g(0) = 4 and k_r = 1, so r = 4 gives u = 1
        out, u, _ = rhs_for(stock, r_signal="4").full(0.0, pack(np.zeros(3)))
        assert u == 1.0
        assert split(out, 3)["x_hat"] == pytest.approx([0.0, 0.0, 4.0])

    def test_zero_drift_zero_everything(self, stock):
        nl0 = NonlinearPair(f=F.parse("0", 3), g=F.parse("1", 3))
        rhs = rhs_for(stock, nl=nl0, r_signal="0")
        out, _, _ = rhs.full(1.0, pack(np.zeros(3)))
        assert np.array_equal(split(out, 3)["x_hat"], np.zeros(3))


class TestFaultyDeriv:
    def test_healthy_reduction_is_exact(self, stock):
        # theta = 1, no signals and a transparent virtual actuator: the
        # faulty rows must equal the nominal rows bit for bit
        rhs = rhs_for(stock, events=(), mode="faulty_with_va")
        rng = np.random.RandomState(2)
        for _ in range(50):
            t = float(10.0 * rng.random())
            z = pack(rng.standard_normal(3), x_d=rng.standard_normal(3))
            parts = split(rhs.full(t, z)[0], 3)
            assert np.array_equal(parts["x_f"], parts["x_hat"])

    def test_loss_of_effectiveness_scaling(self, stock):
        # u_f = u = 0 at rest with r = 0; theta = 0.65, d_f = 1, g(0) = 4
        rhs = rhs_for(stock, r_signal="0", mode="faulty_no_va", events=(
            LossOfEffectiveness(at=0.0, theta=0.65),
            AdditiveActuator(at=0.0, signal=F.parse("1", 0))))
        out, _, u_f = rhs.full(0.0, pack(np.zeros(3)))
        assert u_f == 0.0
        assert split(out, 3)["x_f"] == pytest.approx([0.0, 0.0, 2.6])

    def test_matched_disturbance_injection(self, stock):
        # matched channel, scale 0.5: b * 0.5 * g(0) * d with d = 1
        rhs = rhs_for(stock, r_signal="0", mode="faulty_no_va", events=(
            ExternalDisturbance(at=0.0, signal=F.parse("1", 0)),))
        out, _, _ = rhs.full(0.0, pack(np.zeros(3)))
        assert split(out, 3)["x_f"] == pytest.approx([0.0, 0.0, 2.0])

    def test_constant_channel(self, stock):
        ch = DisturbanceChannel(mode="constant", E=[1.0, 0.0, 0.0])
        rhs = rhs_for(stock, channel=ch, r_signal="0", mode="faulty_no_va",
                      events=(ExternalDisturbance(at=0.0,
                                                  signal=F.parse("2", 0)),))
        out, _, _ = rhs.full(0.0, pack(np.zeros(3)))
        assert split(out, 3)["x_f"] == pytest.approx([2.0, 0.0, 0.0])

    def test_linearity_in_disturbance(self, stock):
        rng = np.random.RandomState(4)
        z = pack(rng.standard_normal(3), x_f=rng.standard_normal(3),
                 M=rng.standard_normal(3), N=0.7, d_hat=-0.2)

        def x_f_rate(d):
            rhs = rhs_for(stock, mode="faulty_with_va", events=(
                LossOfEffectiveness(at=0.0, theta=0.8),
                AdditiveActuator(at=0.0, signal=F.parse("0.1", 0)),
                ExternalDisturbance(at=0.0, signal=F.parse(d, 0))))
            return split(rhs.full(1.0, z)[0], 3)["x_f"]

        base, d1, d2 = x_f_rate("0"), x_f_rate("1"), x_f_rate("2")
        assert d2 - base == pytest.approx(2.0 * (d1 - base), rel=1e-12)


class TestOutput:
    """y = C x on the rows the engine records."""

    def test_row_sum(self, stock):
        s = dataclasses.replace(stock, t_end=0.01, mode="nominal_only",
                                x_hat0=np.array([1.0, 2.0, 3.0]))
        assert F.run(s).y_hat[0] == pytest.approx([6.0])

    def test_zero(self, stock):
        s = dataclasses.replace(stock, t_end=0.01, x_d0=np.zeros(3))
        assert np.array_equal(F.run(s).y_d[0], [0.0])

    def test_identity_output(self):
        core = LinearCore(A=[[0.0, 1.0], [-1.0, -1.0]], b=[0.0, 1.0],
                          C=np.eye(2))
        s = scalar_decay_scenario(
            core=core, nl=NonlinearPair(f=F.parse("0", 2), g=F.parse("1", 2)),
            ref=ReferenceModel(A_d=[[0.0, 1.0], [-1.0, -2.0]], B_d=[0.0, 1.0]),
            adaptation=F.AdaptationConfig(gamma1=1, gamma2=1, gamma3=1,
                                          P=np.eye(2)),
            x_hat0=np.array([0.3, -0.7]), x_f0=np.array([0.3, -0.7]),
            x_d0=np.zeros(2), t_end=0.1, mode="faulty_no_va")
        tr = F.run(s)
        assert np.array_equal(tr.y_f, tr.x_f)
        assert np.array_equal(tr.y_hat, tr.x_hat)
