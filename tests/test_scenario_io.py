import numpy as np
import pytest

import ftcsim as F
from ftcsim import scenario_io
from ftcsim.scenario_io import ScenarioError, default_scenario_text, emit, loads


def scenarios_equal(a, b):
    """Structural equality of two Scenario values."""
    checks = [
        np.array_equal(a.core.A, b.core.A),
        np.array_equal(a.core.b, b.core.b),
        np.array_equal(a.core.C, b.core.C),
        a.nl.f.node == b.nl.f.node,
        a.nl.g.node == b.nl.g.node,
        a.nl.g_min == b.nl.g_min,
        np.array_equal(a.ref.A_d, b.ref.A_d),
        np.array_equal(a.ref.B_d, b.ref.B_d),
        a.r_signal.node == b.r_signal.node,
        a.channel.mode == b.channel.mode,
        a.channel.scale == b.channel.scale,
        np.array_equal(a.adaptation.P, b.adaptation.P),
        (a.adaptation.gamma1, a.adaptation.gamma2, a.adaptation.gamma3)
        == (b.adaptation.gamma1, b.adaptation.gamma2, b.adaptation.gamma3),
        a.adaptation.theta_design == b.adaptation.theta_design,
        a.adaptation.d_tilde_max == b.adaptation.d_tilde_max,
        a.adaptation.d_dot_max == b.adaptation.d_dot_max,
        len(a.schedule.events) == len(b.schedule.events),
        np.array_equal(a.x_hat0, b.x_hat0),
        np.array_equal(a.x_f0, b.x_f0),
        np.array_equal(a.x_d0, b.x_d0),
        (a.t_end, a.h, a.mode, a.eps_band) == (b.t_end, b.h, b.mode, b.eps_band),
    ]
    for ea, eb in zip(a.schedule.events, b.schedule.events):
        checks.append(type(ea) is type(eb) and ea.at == eb.at)
        if hasattr(ea, "theta"):
            checks.append(ea.theta == eb.theta)
        else:
            checks.append(ea.signal.node == eb.signal.node)
    return all(checks)


class TestDefaultScenario:
    def test_loads(self, stock):
        assert stock.core.n == 3
        assert stock.t_end == 40.0 and stock.h == 1e-3

    def test_pinned_lines(self):
        text = default_scenario_text()
        assert "gamma1 = 20" in text
        assert "gamma2 = 200" in text
        assert "gamma3 = 1000" in text
        assert "at = 15 kind = loss theta = 0.65" in text
        assert "at = 20 kind = disturbance signal = 1" in text
        assert "at = 25 kind = additive signal = 0.5*sin(2*t)" in text
        assert "g = 0.5*sin(t)+4" in text
        assert "f = 0.05*sin(x3)" in text
        assert "r = step(t)" in text
        assert "theta_design = 0.5" in text
        assert "scale = 0.5" in text

    def test_round_trip(self):
        first = loads(default_scenario_text())
        second = loads(emit(first))
        assert scenarios_equal(first.scenario, second.scenario)
        # emission is a fixed point
        assert emit(first) == emit(second)


class TestLoadErrors:
    def base(self):
        return default_scenario_text()

    def test_unknown_section(self):
        with pytest.raises(ScenarioError) as e:
            loads("[clowns]\nn = 1\n")
        assert e.value.line == 1

    def test_unknown_key(self):
        text = self.base().replace("g_min = 1e-06", "gmin = 1e-06")
        with pytest.raises(ScenarioError) as e:
            loads(text)
        assert "unknown key" in str(e.value)

    def test_bad_number_reports_line(self):
        text = self.base().replace("t_end = 40", "t_end = soon")
        with pytest.raises(ScenarioError) as e:
            loads(text)
        assert "t_end" in str(e.value) and e.value.line > 0

    @pytest.mark.parametrize("old,new,key", [
        ("gamma1 = 20", "gamma1 = nan", "gamma1"),
        ("t_end = 40", "t_end = inf", "t_end"),
        ("eps_band = 0.05", "eps_band = nan", "eps_band"),
        ("h = 0.001", "h = -inf", "h"),
        ("g_min = 1e-06", "g_min = 1e999", "g_min"),
        ("A = 0 1 0 ;", "A = 0 NaN 0 ;", "A"),
        ("theta = 0.65", "theta = nan", "theta"),
        ("at = 20 kind", "at = inf kind", "at"),
    ])
    def test_non_finite_number_reports_line(self, old, new, key):
        text = self.base().replace(old, new)
        line = next(i for i, ln in enumerate(text.splitlines(), 1)
                    if new in ln)
        with pytest.raises(ScenarioError) as e:
            loads(text)
        assert f"{key}: expected a finite number" in str(e.value)
        assert e.value.line == line

    def test_asymmetric_p_rejected(self):
        text = self.base().replace(
            "P = 2.8 2.6 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1",
            "P = 2.8 9.9 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1")
        with pytest.raises(ScenarioError):
            loads(text)

    def test_singular_p_rejected(self, singular_p):
        rows = " ; ".join(" ".join(f"{v:g}" for v in row) for row in singular_p)
        text = self.base().replace(
            "P = 2.8 2.6 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1", f"P = {rows}")
        with pytest.raises(ScenarioError, match="positive definite"):
            loads(text)

    def test_unaligned_event_rejected(self):
        text = self.base().replace("at = 15 kind", "at = 15.0005 kind")
        with pytest.raises(ScenarioError):
            loads(text)

    def test_bad_expression_offset_reported(self):
        text = self.base().replace("f = 0.05*sin(x3)", "f = 0.05*sin(x9)")
        with pytest.raises(ScenarioError) as e:
            loads(text)
        assert "offset" in str(e.value)

    def test_missing_section(self):
        text = self.base().replace("[adaptation]", "#")
        with pytest.raises(ScenarioError):
            loads(text)

    def test_missing_key(self):
        text = self.base().replace("h = 0.001", "")
        with pytest.raises(ScenarioError) as e:
            loads(text)
        assert "h" in str(e.value)

    def test_duplicate_key(self):
        text = self.base().replace("t_end = 40", "t_end = 40\nt_end = 41")
        with pytest.raises(ScenarioError) as e:
            loads(text)
        assert "duplicate" in str(e.value)

    def test_bad_fault_line(self):
        text = self.base().replace("at = 15 kind = loss theta = 0.65",
                                   "at = 15 kind = loss")
        with pytest.raises(ScenarioError):
            loads(text)


class TestFeatures:
    def test_x0_f_defaults_to_x0_hat(self):
        text = default_scenario_text().replace("x0_f = 0 0 0\n", "")
        text = text.replace("x0_hat = 0 0 0", "x0_hat = 1 2 3")
        loaded = loads(text)
        assert np.array_equal(loaded.scenario.x_f0, [1.0, 2.0, 3.0])

    def test_p_auto_synthesizes_certified_weight(self):
        text = default_scenario_text().replace(
            "P = 2.8 2.6 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1", "P = auto")
        loaded = loads(text)
        assert loaded.p_auto
        A = loaded.scenario.core.A
        P = loaded.scenario.adaptation.P
        assert np.max(np.abs(A.T @ P + P @ A + np.eye(3))) <= 1e-10

    def test_constant_channel(self):
        text = default_scenario_text().replace(
            "mode = matched\nscale = 0.5", "mode = constant\nE = 0 ; 0 ; 2")
        loaded = loads(text)
        assert loaded.scenario.channel.mode == "constant"
        assert np.array_equal(loaded.scenario.channel.E, [0.0, 0.0, 2.0])
        # constant channel round-trips too
        again = loads(emit(loaded))
        assert np.array_equal(again.scenario.channel.E, [0.0, 0.0, 2.0])

    def test_separate_p1_round_trips(self, p1):
        text = default_scenario_text().replace(
            "theta_design = 0.5",
            "P1 = 2.5 2.5 0.5 ; 2.5 6.5 1.5 ; 0.5 1.5 0.5\ntheta_design = 0.5")
        loaded = loads(text)
        assert np.array_equal(loaded.P1, p1)
        again = loads(emit(loaded))
        assert np.array_equal(again.P1, p1)

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + default_scenario_text()
        loads(text)
