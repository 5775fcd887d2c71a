import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ftcsim import cli, scenario_io
from ftcsim.scenario_io import default_scenario_text


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

    def test_oversized_run_does_not_stop_batch(self, short_scenario,
                                               tmp_path, capsys):
        # 1e12 steps: the row buffer would take 1.28e14 bytes, so the run
        # is refused before it starts instead of growing until killed
        text = default_scenario_text().replace("t_end = 40", "t_end = 1e9")
        huge = tmp_path / "huge.scn"
        huge.write_text(text)
        out = tmp_path / "batch"
        code = cli.main(["run", str(huge), str(short_scenario), "-o", str(out)])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert (f"{huge}: numerical abort: 1000000000001 trace rows need "
                "128000000000128 bytes, more than the ") in err
        assert not (out / "huge").exists()
        for name in ("trace.csv", "metrics.txt", "output.svg", "states.svg",
                     "xtilde.svg", "adaptation.svg"):
            assert (out / "short" / name).exists()

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

    def test_diverging_scenario_does_not_stop_batch(self, short_scenario,
                                                    tmp_path, capsys):
        # a disturbance at t = 1 with h = 0.02 drives the virtual actuator
        # unstable, and its state reaches sin() as +-inf
        text = default_scenario_text()
        for old, new in (("t_end = 40", "t_end = 2"), ("h = 0.001", "h = 0.02"),
                         ("at = 15 kind = loss theta = 0.65\n", ""),
                         ("at = 20 kind = disturbance", "at = 1 kind = disturbance"),
                         ("at = 25 kind = additive signal = 0.5*sin(2*t)\n", "")):
            assert old in text
            text = text.replace(old, new)
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        out = tmp_path / "batch"
        code = cli.main(["run", str(bad), str(short_scenario), "-o", str(out)])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"{bad}: numerical abort: sin of non-finite value" in err
        for name in ("trace.csv", "metrics.txt", "output.svg", "states.svg",
                     "xtilde.svg", "adaptation.svg"):
            assert (out / "short" / name).exists()

    @pytest.mark.parametrize("old,new,bad_key,message", [
        # a left-deep chain is deeper than the interpreter stack
        ("f = 0.05*sin(x3)", "f = " + "+".join(["0"] * 1500), "f",
         "f: offset 0: expression tree deeper than 64"),
        # t_end / h overflows to inf
        ("t_end = 40\nh = 0.001", "t_end = 1e300\nh = 1e-300", "[run]",
         "t_end must be a positive integer multiple of h"),
        # at / h overflows to inf
        ("at = 15 kind", "at = 1e306 kind", "[run]",
         "event at t=1e+306 is not an integer multiple of the step h=0.001"),
        ("n = 3", "n = 3.7", "n", "n must be a positive integer"),
    ], ids=["deep_chain", "t_end_ratio", "event_ratio", "fractional_n"])
    def test_rejected_file_does_not_stop_batch(self, short_scenario, tmp_path,
                                               capsys, old, new, bad_key,
                                               message):
        text = default_scenario_text()
        assert old in text
        text = text.replace(old, new)
        bad_line = next(i for i, line in enumerate(text.splitlines(), 1)
                        if line.startswith(bad_key))
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        out = tmp_path / "batch"
        code = cli.main(["run", str(bad), str(short_scenario), "-o", str(out)])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{bad}: error: line {bad_line}: {message}" in err
        for name in ("trace.csv", "metrics.txt", "output.svg", "states.svg",
                     "xtilde.svg", "adaptation.svg"):
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

    def test_nan_override_is_parse_error(self, short_scenario, tmp_path,
                                         capsys):
        code = cli.main(["run", str(short_scenario), "--eps-band", "nan",
                         "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{short_scenario}: error: eps_band must be positive" in err
        assert not (tmp_path / "o").exists()

    def test_run_shorter_than_one_step_is_parse_error(self, tmp_path, capsys):
        # t_end / h = 1e-10 passes the multiple-of-h test but rounds to 0 steps
        text = default_scenario_text().replace("t_end = 40", "t_end = 1e-13")
        p = tmp_path / "tiny.scn"
        p.write_text(text)
        code = cli.main(["run", str(p), "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_PARSE
        run_line = text.splitlines().index("[run]") + 1
        assert (f"{p}: error: line {run_line}: t_end must be a positive "
                "integer multiple of h") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("p1,verify_code,gains_code", [
        ("1 2 0 ; 0 1 0 ; 0 0 1", cli.EXIT_PARSE, cli.EXIT_PARSE),
        ("1 0 ; 0 1", cli.EXIT_PARSE, cli.EXIT_PARSE),
        ("1 0 0 ; 0 -1 0 ; 0 0 1", cli.EXIT_NOT_CERTIFIED, cli.EXIT_OK),
    ])
    def test_p1_checked_on_load(self, tmp_path, capsys, p1, verify_code,
                                gains_code):
        # shape and symmetry are load errors for every verb; definiteness
        # is verify's verdict
        text = default_scenario_text().replace(
            "theta_design = 0.5", f"P1 = {p1}\ntheta_design = 0.5")
        line = text.splitlines().index(f"P1 = {p1}") + 1
        p = tmp_path / "p1.scn"
        p.write_text(text)
        assert cli.main(["verify", str(p)]) == verify_code
        assert cli.main(["gains", str(p)]) == gains_code
        err = capsys.readouterr().err
        if gains_code == cli.EXIT_OK:
            assert err == ""
        else:
            assert err == (f"error: line {line}: P1 must be a symmetric "
                           "3x3 matrix\n") * 2

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
