import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brpmarket import cli
from brpmarket.cli import demo_scenario_document, main


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(demo_scenario_document()))
    return path


class TestRunCommand:
    def test_demo_scenario_converges(self, demo_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(demo_file), "--gamma", "0.1",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["final_prices"]["p_u"][0] > summary["final_prices"]["p_l"][0]
        assert (out / "trace.csv").exists()

    def test_missing_scenario_file(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_invalid_scenario_reports_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = demo_scenario_document()
        doc["customers"][0]["alpha"] = 0
        bad.write_text(json.dumps(doc))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "alpha must be strictly positive" in capsys.readouterr().err

    def test_max_iter_exhaustion_exits_2(self, demo_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(demo_file), "--gamma", "0.01",
                     "--max-iter", "5", "--out", str(out)])
        assert code == 2
        assert (out / "summary.json").exists()  # partial result still recorded

    def test_divergence_exits_2_without_partial_writes(self, tmp_path):
        doc = demo_scenario_document()
        for c in doc["customers"]:
            c["d_max"] = 1e200
        scen = tmp_path / "div.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scen), "--gamma", "1e160",
                     "--max-iter", "100", "--out", str(out)])
        assert code == 2
        assert not (out / "trace.csv").exists()
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_overflowing_step_exits_2_with_one_error_line(self, command, tmp_path,
                                                          capsys):
        doc = demo_scenario_document()
        for c in doc["customers"]:
            c["d_max"] = 1e308
        scen = tmp_path / "overflow.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main([command, "--scenario", str(scen), "--gamma", "1e307",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: market iteration diverged at iteration 1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("gamma, d_max", [
        ("1e307", 1e308),  # the step itself overflows
        ("1e160", 1e200),  # the step is finite, its welfare overflows
    ])
    def test_diverging_run_writes_one_stderr_line(self, command, gamma, d_max,
                                                  tmp_path):
        # a fresh interpreter, so any numpy warning would reach stderr as well
        doc = demo_scenario_document()
        for c in doc["customers"]:
            c["d_max"] = d_max
        scen = tmp_path / "overflow.json"
        scen.write_text(json.dumps(doc))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "brpmarket.cli", command,
             "--scenario", str(scen), "--gamma", gamma, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: market iteration diverged at iteration 1"]

    def test_byte_identical_outputs(self, demo_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--scenario", str(demo_file), "--gamma", "0.1",
                         "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


class TestSweepCommand:
    def test_iterations_decrease_with_gamma(self, demo_file, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(demo_file),
                     "--gammas", "0.01,0.1,0.3", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [r["gamma"] for r in rows] == ["0.01", "0.1", "0.3"]
        iters = [int(r["iterations"]) for r in rows]
        assert iters[0] > iters[1] > iters[2]
        assert all(r["converged"] == "True" for r in rows)
        for g in ("0.01", "0.1", "0.3"):
            assert (out / f"trace_gamma_{g}.csv").exists()

    def test_single_gamma_one_row(self, demo_file, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(demo_file),
                     "--gammas", "0.1", "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 1

    def test_empty_gamma_list_usage_error(self, demo_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--scenario", str(demo_file), "--gammas", ",",
                  "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    def test_diverging_gamma_recorded_not_fatal(self, tmp_path):
        doc = demo_scenario_document()
        for c in doc["customers"]:
            c["d_max"] = 1e200
        scen = tmp_path / "div.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(scen),
                     "--gammas", "0.1,1e160", "--max-iter", "200",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 2
        assert rows[0]["converged"] == "True"
        assert rows[1]["converged"] == "False"
        assert rows[1]["welfare"] == "nan"


class TestVerifyCommand:
    def test_demo_passes(self, demo_file, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", str(demo_file),
                     "--grid-step", "0.05", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["pass"] is True
        assert payload["allocation_gap"] < 1e-3
        assert payload["welfare_gap"] < 1e-4
        # demo's raw-welfare argmax is on the cost-segment boundary
        assert payload["grid"]["boundary_degenerate"] is True

    def test_perturbation_injection_fails(self, demo_file, tmp_path):
        code = main(["verify", "--scenario", str(demo_file),
                     "--grid-step", "0.05",
                     "--inject-perturbation", "0.5"])
        assert code == 4

    def test_large_negative_perturbation_fails(self, demo_file, tmp_path, capsys):
        # negative control: the shifted allocation is negative, and verify
        # still compares it and fails instead of raising
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", str(demo_file), "--grid-step", "0.05",
                     "--inject-perturbation", "-50", "--out", str(out)])
        assert code == 4
        assert json.loads(capsys.readouterr().out)["pass"] is False
        assert json.loads((out / "comparison.json").read_text())["pass"] is False

    def test_grid_skipped_above_three_variables(self, tmp_path, capsys):
        doc = demo_scenario_document()
        doc["num_slots"] = 2
        doc["blocks"]["b"] = 25
        scen = tmp_path / "four.json"
        scen.write_text(json.dumps(doc))
        code = main(["verify", "--scenario", str(scen)])
        err = capsys.readouterr().err
        assert "grid oracle skipped" in err
        assert code == 0

    @pytest.mark.parametrize("cid", ["null", '"a"', "NaN", "Infinity", "1.7"])
    def test_non_integer_customer_id_exits_1(self, cid, tmp_path, capsys):
        doc = demo_scenario_document()
        doc["customers"][1]["id"] = "ID"
        scen = tmp_path / "bad_id.json"
        scen.write_text(json.dumps(doc).replace('"ID"', cid))
        out = tmp_path / "out"
        code = main(["verify", "--scenario", str(scen), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: customers[1].id: must be an integer")
        assert not out.exists()

    def test_non_finite_scenario_exits_1(self, tmp_path, capsys):
        doc = demo_scenario_document()
        doc["customers"][0]["w"] = float("nan")
        scen = tmp_path / "nan.json"
        scen.write_text(json.dumps(doc))  # json writes the NaN literal
        out = tmp_path / "out"
        code = main(["verify", "--scenario", str(scen), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: customers[0].w: must be finite")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
    def test_overflowing_satiation_exits_1(self, tmp_path, capsys):
        doc = demo_scenario_document()
        doc["customers"] = [{"id": 0, "w": 1e300, "alpha": 1e-10, "d_max": 10}]
        scen = tmp_path / "satiation.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["verify", "--scenario", str(scen), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: customers[0]: satiation w/alpha must be finite, overflows in slots [0]"]
        assert not out.exists()


class TestBadOptionValues:
    """A bad option value exits 1 with one error line, before any solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solver called despite a bad option value")
        monkeypatch.setattr(cli, "run_market", refuse)
        monkeypatch.setattr(cli, "solve_welfare_centralized", refuse)

    def assert_rejected(self, argv, out, capsys, reason=""):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {reason}")
        assert not out.exists()

    def test_demo_negative_gamma(self, tmp_path, capsys):
        out = tmp_path / "out"
        self.assert_rejected(["demo", "--gamma", "-1", "--out", str(out)], out, capsys)

    def test_run_zero_tol(self, demo_file, tmp_path, capsys):
        out = tmp_path / "out"
        self.assert_rejected(["run", "--scenario", str(demo_file), "--tol", "0",
                              "--out", str(out)], out, capsys)

    def test_sweep_negative_gamma(self, demo_file, tmp_path, capsys):
        out = tmp_path / "out"
        self.assert_rejected(["sweep", "--scenario", str(demo_file),
                              "--gammas=0.1,-1", "--out", str(out)], out, capsys)

    def test_verify_zero_grid_step(self, demo_file, tmp_path, capsys):
        out = tmp_path / "out"
        self.assert_rejected(["verify", "--scenario", str(demo_file),
                              "--grid-step", "0", "--out", str(out)], out, capsys)

    def test_verify_grid_too_large(self, demo_file, tmp_path, capsys):
        out = tmp_path / "out"
        self.assert_rejected(["verify", "--scenario", str(demo_file),
                              "--grid-step", "1e-7", "--out", str(out)], out, capsys,
                             reason="grid too large")

    def test_verify_no_feasible_grid_point(self, tmp_path, capsys):
        # the daily band [0.005, 0.005] holds no point of the 0.01 grid
        doc = demo_scenario_document()
        doc["customers"] = [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 0.005,
                             "d_max": 0.005}]
        scen = tmp_path / "narrow.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "out"
        self.assert_rejected(["verify", "--scenario", str(scen), "--out", str(out)],
                             out, capsys, reason="no feasible grid point")


class TestDemoCommand:
    def test_demo_runs_and_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "demo_out"
        code = main(["demo", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert (out / "trace.csv").exists()
