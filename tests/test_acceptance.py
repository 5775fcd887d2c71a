"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
All tolerances are fixed here; the stock scenario file is the single
source of the system under test.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import ftcsim as F
from ftcsim import cli, scenario_io, verify
from ftcsim.faults import FaultSchedule
from ftcsim.numerics import rk4_step

from closed_loop import schedule_at
from test_exprlang import CORPUS, MALFORMED


@pytest.fixture(scope="module")
def timed_runs(stock):
    """Full-length runs of the stock scenario in all three modes."""
    out = {}
    for mode in ("nominal_only", "faulty_no_va", "faulty_with_va"):
        s = dataclasses.replace(stock, mode=mode)
        t0 = time.perf_counter()
        tr = F.run(s)
        out[mode] = (s, tr, time.perf_counter() - t0)
    return out


def test_criterion_01_gain_matching(stock):
    t0 = time.perf_counter()
    g = F.synthesize_gains(stock.core.A, stock.core.b,
                           stock.ref.A_d, stock.ref.B_d)
    elapsed = time.perf_counter() - t0
    assert g.residual_A <= 1e-12
    assert g.residual_B <= 1e-12
    assert np.array_equal(g.k_x, [0.0, 0.0, -1.0])
    assert g.k_r == 1.0
    assert elapsed < 1e-3
    print(f"\nACCEPTANCE 1 PASS gain matching: k_x=[0,0,-1], k_r=1, "
          f"residuals=({g.residual_A:.1e},{g.residual_B:.1e}), "
          f"runtime={elapsed * 1e6:.0f}us")


def test_criterion_02_nominal_tracking(timed_runs):
    s, tr, elapsed = timed_runs["nominal_only"]
    e_norm = np.linalg.norm(tr.e, axis=1)
    tail = tr.t >= 10.0
    worst = float(e_norm[tail].max())
    assert worst <= 1e-3
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS nominal tracking: sup||e|| for t>=10 is "
          f"{worst:.3e} <= 1e-3, runtime={elapsed:.2f}s")


def test_criterion_03_unreconfigured_loop_degrades(timed_runs):
    s, tr, _ = timed_runs["faulty_no_va"]
    dev = np.abs(tr.y_f[:, 0] - tr.y_d[:, 0])
    post = float(dev[(tr.t >= 16.0) & (tr.t <= 40.0)].max())
    pre = float(dev[tr.t < 15.0].max())
    assert post > 10.0 * pre
    # frozen after the first oracle run of this deterministic scenario
    assert post == pytest.approx(2.4266035928700607, rel=1e-6)
    print(f"\nACCEPTANCE 3 PASS un-reconfigured degradation: "
          f"sup|y_f - y_d| over [16,40] = {post:.6f} "
          f"(pre-fault {pre:.1e}, ratio {post / max(pre, 1e-300):.1e})")


def test_criterion_04_virtual_actuator_recovers(timed_runs):
    s, tr, elapsed = timed_runs["faulty_with_va"]
    m = F.metrics(tr, s, eps_band=0.05)
    by_time = {ev.at: ev for ev in m.events}
    for at in (15.0, 20.0):
        ev = by_time[at]
        assert ev.recovery_time is not None, f"no recovery after t={at}"
    dev = np.abs(tr.y_f[:, 0] - tr.y_d[:, 0])
    sel = (tr.t >= 30.0) & (tr.t <= 40.0)
    rms = float(np.sqrt(np.mean(dev[sel] ** 2)))
    assert rms <= 0.05
    assert elapsed < 10.0
    rec = {at: by_time[at].recovery_time for at in (15.0, 20.0, 25.0)}
    print(f"\nACCEPTANCE 4 PASS virtual-actuator recovery: "
          f"recovery times {rec}, RMS[30,40]={rms:.5f} <= 0.05, "
          f"runtime={elapsed:.2f}s")


def test_criterion_05_fault_hiding_identity(stock):
    s = dataclasses.replace(stock, schedule=FaultSchedule(),
                            mode="faulty_with_va")
    tr = F.run(s)
    worst = float(np.linalg.norm(tr.x_tilde, axis=1).max())
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 5 PASS fault-hiding identity: healthy plant keeps "
          f"sup||x_tilde|| = {worst:.1e} <= 1e-9 over the full run")


def test_criterion_06_ultimate_bound(timed_runs):
    s, tr, _ = timed_runs["faulty_with_va"]
    m = F.metrics(tr, s)
    assert math.isfinite(m.uub_bound) and m.uub_bound > 0.0
    sel = (tr.t >= 32.0) & (tr.t <= 40.0)
    sup_xt = float(np.linalg.norm(tr.x_tilde, axis=1)[sel].max())
    assert sup_xt <= m.uub_bound
    assert m.uub_satisfied
    print(f"\nACCEPTANCE 6 PASS ultimate bound: sup||x_tilde|| over [32,40] "
          f"= {sup_xt:.3e} <= bound {m.uub_bound:.3f}")


def test_criterion_07_lyapunov_machinery(stock, p1, p2):
    A = stock.core.A
    P, rep = verify.synthesize_p(A)
    residual = float(np.max(np.abs(A.T @ P + P @ A + np.eye(3))))
    assert np.max(np.abs(P - P.T)) <= 1e-12
    assert residual <= 1e-10
    assert rep.certified

    rep1 = verify.check_condition(A, p1, verify.LABEL_NOMINAL)
    expected1 = sorted([1.0, (1 - math.sqrt(11)) / 2, (1 + math.sqrt(11)) / 2])
    assert rep1.eig_Q == pytest.approx(expected1, abs=1e-9)
    assert not rep1.certified  # strict inequality genuinely fails for p1

    rep2 = verify.check_condition(A, p2, verify.LABEL_RECONFIG)
    assert rep2.eig_Q == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
    assert rep2.certified
    print(f"\nACCEPTANCE 7 PASS Lyapunov machinery: synthesized P residual "
          f"{residual:.1e}; p1 verdict {rep1.verdict} "
          f"(min eig {rep1.eig_Q[0]:.4f}); p2 verdict {rep2.verdict} "
          f"eig(Q2)={np.round(rep2.eig_Q, 9).tolist()}")


def test_criterion_08_integrator_order(stock):
    # scalar exponential against the closed form
    errs = []
    for h in (0.1, 0.05, 0.025):
        x = np.array([1.0])
        for k in range(round(1.0 / h)):
            x = rk4_step(lambda t, v: np.negative(v), k * h, x, h)
        errs.append(abs(float(x[0]) - math.exp(-1.0)))
    orders_exp = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders_exp) >= 3.9

    # pre-fault stock closed loop, Richardson ratios of trajectory
    # differences on the shared coarse grid (terminal-only differences sit
    # on the round-off floor because the loop is this smooth)
    runs = {}
    for h in (2e-3, 1e-3, 5e-4):
        s = dataclasses.replace(stock, t_end=10.0, h=h)
        runs[h] = F.run(s).x_f
    d1 = float(np.max(np.linalg.norm(runs[2e-3] - runs[1e-3][::2], axis=1)))
    d2 = float(np.max(np.linalg.norm(runs[1e-3][::2] - runs[5e-4][::4], axis=1)))
    order_loop = math.log2(d1 / d2)
    assert order_loop >= 3.5
    print(f"\nACCEPTANCE 8 PASS integrator order: exponential orders "
          f"{[round(o, 2) for o in orders_exp]} >= 3.9; closed-loop order "
          f"{order_loop:.2f} >= 3.5")


def test_criterion_09_difference_system_consistency(timed_runs):
    # Central differences of the recorded x_tilde against the difference
    # dynamics rebuilt from recorded signals. The centred-difference
    # truncation term grows with the adaptation loop's fast ringing right
    # after each event (its decay time is about 1.5 s), so the check runs
    # on steps at least 5 s past the latest event; all fault and
    # disturbance terms are still active there.
    s, tr, _ = timed_runs["faulty_with_va"]
    h = s.h
    t = tr.t

    theta, d_f, d = np.array([schedule_at(s.schedule, float(tk))
                              for tk in t]).T
    g_f = np.array([F.evaluate(s.nl.g, float(tk), tr.x_f[k])
                    for k, tk in enumerate(t)])
    f_f = np.array([F.evaluate(s.nl.f, float(tk), tr.x_f[k])
                    for k, tk in enumerate(t)])
    g_h = np.array([F.evaluate(s.nl.g, float(tk), tr.x_hat[k])
                    for k, tk in enumerate(t)])
    f_h = np.array([F.evaluate(s.nl.f, float(tk), tr.x_hat[k])
                    for k, tk in enumerate(t)])
    A, b = s.core.A, s.core.b
    scale = s.channel.scale
    rhs = (tr.x_f @ A.T
           + np.outer(f_f + theta * g_f * (tr.u_f + d_f) + scale * g_f * d, b)
           - tr.x_hat @ A.T - np.outer(f_h + g_h * tr.u, b))
    fd = (tr.x_tilde[2:] - tr.x_tilde[:-2]) / (2.0 * h)
    err = np.max(np.abs(fd - rhs[1:-1]), axis=1)

    tt = t[1:-1]
    settled = np.ones_like(tt, dtype=bool)
    for at in s.schedule.times:
        settled &= (tt < at - 2 * h) | (tt >= at + 5.0)
    worst = float(err[settled].max())
    assert worst <= 1e-4
    print(f"\nACCEPTANCE 9 PASS difference-system consistency: max "
          f"|d/dt x_tilde - rhs| = {worst:.2e} <= 1e-4 on "
          f"{int(settled.sum())} settled interior steps")


def test_criterion_10_expression_corpus():
    for src, t, x, expected in CORPUS:
        got = F.evaluate(F.parse(src, 3), t, x)
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0), src
    for src, offset, cls in MALFORMED:
        with pytest.raises(cls) as exc_info:
            F.parse(src, 3)
        assert exc_info.value.offset == offset, src
    print(f"\nACCEPTANCE 10 PASS expression corpus: {len(CORPUS)} valid "
          f"expressions within 1e-15 relative, {len(MALFORMED)} malformed "
          f"inputs with correct offsets")


def test_criterion_11_reproducibility(tmp_path):
    scn = tmp_path / "stock.scn"
    assert cli.main(["emit-default", str(scn)]) == 0
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", str(scn), "-o", str(out1)]) == 0
    assert cli.main(["run", str(scn), "-o", str(out2)]) == 0
    b1 = (out1 / "trace.csv").read_bytes()
    b2 = (out2 / "trace.csv").read_bytes()
    assert b1 == b2
    print(f"\nACCEPTANCE 11 PASS reproducibility: two runs wrote "
          f"byte-identical trace.csv ({len(b1)} bytes)")
