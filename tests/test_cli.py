import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ftcsim import cli, scenario_io
from ftcsim.scenario_io import default_scenario_text


@pytest.fixture
def short_scenario(tmp_path):
    """Stock system trimmed to 2 s with an early fault, for fast CLI runs."""
    text = default_scenario_text()
    text = text.replace("t_end = 40", "t_end = 2")
    text = text.replace("at = 15 kind = loss theta = 0.65",
                        "at = 1 kind = loss theta = 0.65")
    text = text.replace("at = 20 kind = disturbance signal = 1",
                        "at = 1.5 kind = disturbance signal = 1")
    text = text.replace("at = 25 kind = additive signal = 0.5*sin(2*t)", "")
    path = tmp_path / "short.scn"
    path.write_text(text)
    return path


class TestRun:
    def test_artifacts_written(self, short_scenario, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", str(short_scenario), "-o", str(out)])
        assert code == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 2002  # header + t_end/h + 1 rows
        header = lines[0].split(",")
        assert header == [
            "t", "xd1", "xd2", "xd3", "xhat1", "xhat2", "xhat3",
            "xf1", "xf2", "xf3", "u", "uf", "M1", "M2", "M3", "N", "dhat",
            "e_norm", "xtilde_norm", "yd", "yhat", "yf"]
        assert (out / "metrics.txt").exists()
        for name in ("output.svg", "states.svg", "xtilde.svg", "adaptation.svg"):
            tree = ET.parse(out / name)
            body = (out / name).read_text()
            assert "http://" not in body.replace(
                "http://www.w3.org/2000/svg", "")  # no external resources

    def test_time_column_strictly_increasing(self, short_scenario, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", str(short_scenario), "-o", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        t = np.array([float(r.split(",", 1)[0]) for r in rows])
        dt = np.diff(t)
        assert (dt > 0).all()
        assert np.allclose(dt, 0.001, rtol=0, atol=1e-12)

    def test_reproducible_byte_identical(self, short_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(short_scenario), "-o", str(out1)]) == 0
        assert cli.main(["run", str(short_scenario), "-o", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_mode_override(self, short_scenario, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", str(short_scenario), "--mode", "nominal_only",
                         "-o", str(out)])
        assert code == 0
        # nominal mode records x_f identical to x_hat
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        cells = rows[-1].split(",")
        assert cells[4:7] == cells[7:10]

    def test_missing_file_is_io_error(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.scn")]) == cli.EXIT_IO

    def test_parse_error_exit(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text("[system]\nn = banana\n")
        assert cli.main(["run", str(p)]) == cli.EXIT_PARSE

    def test_numerical_abort_exit(self, tmp_path):
        text = default_scenario_text()
        text = text.replace("g = 0.5*sin(t)+4", "g = 1 - t")
        text = text.replace("t_end = 40", "t_end = 2")
        p = tmp_path / "sing.scn"
        p.write_text(text)
        assert cli.main(["run", str(p), "-o", str(tmp_path / "o")]) == cli.EXIT_NUMERIC

    def test_failing_scenario_does_not_stop_batch(self, short_scenario,
                                                  tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[system]\nn = banana\n")
        out = tmp_path / "batch"
        code = cli.main(["run", str(bad), str(short_scenario), "-o", str(out)])
        assert code == cli.EXIT_PARSE
        assert f"{bad}: " in capsys.readouterr().err
        for name in ("trace.csv", "metrics.txt", "output.svg"):
            assert (out / "short" / name).exists()

    def test_batch_exits_with_worst_code(self, short_scenario, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[system]\nn = banana\n")
        code = cli.main(["run", str(bad), str(tmp_path / "nope.scn"),
                         str(short_scenario), "-o", str(tmp_path / "b")])
        assert code == cli.EXIT_IO

    def test_rejected_override_is_parse_error(self, short_scenario,
                                              tmp_path, capsys):
        code = cli.main(["run", str(short_scenario), "--eps-band", "-1",
                         "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{short_scenario}: error: eps_band must be positive" in err

    def test_matching_violation_is_numerical_abort(self, tmp_path, capsys):
        text = default_scenario_text().replace(
            "A_d = 0 1 0 ; 0 0 1 ; -1 -2 -4",
            "A_d = -1 1 0 ; 0 -1 1 ; -1 -2 -4")
        p = tmp_path / "bad_match.scn"
        p.write_text(text)
        assert cli.main(["run", str(p), "-o", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
        assert f"{p}: numerical abort: model matching fails" in capsys.readouterr().err

    def test_multiple_scenarios_in_subdirs(self, short_scenario, tmp_path):
        other = tmp_path / "other.scn"
        other.write_text(short_scenario.read_text())
        out = tmp_path / "batch"
        code = cli.main(["run", str(short_scenario), str(other),
                         "-o", str(out)])
        assert code == 0
        assert (out / "short" / "trace.csv").exists()
        assert (out / "other" / "trace.csv").exists()
        assert ((out / "short" / "trace.csv").read_bytes()
                == (out / "other" / "trace.csv").read_bytes())


class TestVerify:
    def test_certified_scenario_exits_zero(self, short_scenario, tmp_path):
        out = tmp_path / "v"
        code = cli.main(["verify", str(short_scenario), "-o", str(out)])
        assert code == 0
        csv = (out / "verify.csv").read_text()
        assert "Theorem1,verdict,certified" in csv
        assert "Theorem5,verdict,certified" in csv

    def test_semidefinite_p1_not_certified(self, tmp_path):
        text = default_scenario_text().replace(
            "theta_design = 0.5",
            "P1 = 2.5 2.5 0.5 ; 2.5 6.5 1.5 ; 0.5 1.5 0.5\ntheta_design = 0.5")
        p = tmp_path / "p1.scn"
        p.write_text(text)
        assert cli.main(["verify", str(p)]) == cli.EXIT_NOT_CERTIFIED

    def test_auto_weight_certified(self, tmp_path):
        text = default_scenario_text().replace(
            "P = 2.8 2.6 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1", "P = auto")
        p = tmp_path / "auto.scn"
        p.write_text(text)
        assert cli.main(["verify", str(p)]) == 0

    def test_asymmetric_p_is_parse_error(self, tmp_path):
        text = default_scenario_text().replace(
            "P = 2.8 2.6 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1",
            "P = 2.8 9.9 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1")
        p = tmp_path / "asym.scn"
        p.write_text(text)
        assert cli.main(["verify", str(p)]) == cli.EXIT_PARSE


class TestGains:
    def test_stock_gains(self, short_scenario, capsys):
        assert cli.main(["gains", str(short_scenario)]) == 0
        out = capsys.readouterr().out
        assert "k_x" in out and "-1" in out
        assert "residual_A = 0.000000e+00" in out

    def test_matching_violation_exits_one(self, tmp_path, capsys):
        text = default_scenario_text().replace(
            "A_d = 0 1 0 ; 0 0 1 ; -1 -2 -4",
            "A_d = -1 1 0 ; 0 -1 1 ; -1 -2 -4")
        p = tmp_path / "bad_match.scn"
        p.write_text(text)
        assert cli.main(["gains", str(p)]) == cli.EXIT_NOT_CERTIFIED
        assert "residual" in capsys.readouterr().out


class TestEmitDefault:
    def test_round_trips_through_loader(self, tmp_path):
        p = tmp_path / "stock.scn"
        assert cli.main(["emit-default", str(p)]) == 0
        loaded = scenario_io.load(p)
        assert loaded.scenario.t_end == 40.0
        assert p.read_text() == scenario_io.emit(loaded)

    def test_unwritable_path_is_io_error(self, tmp_path):
        assert cli.main(["emit-default",
                         str(tmp_path / "no" / "dir" / "x.scn")]) == cli.EXIT_IO
