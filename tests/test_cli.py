import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from brpmarket import RunConfig, cli, load_scenario, market, oracle
from brpmarket.cli import demo_scenario_document, main
from brpmarket.model import Allocation
from brpmarket.oracle import solve_welfare_centralized
from conftest import DEMO_EQUILIBRIUM
from references import reference_market
from test_market import SUBNORMAL_BOUND_DOCUMENT, nan_step_document, welfare_overflow_document
from test_oracle import SATED_BAND_DOCUMENT, TINY_BAND_DOCUMENT, leaky_start_document


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(demo_scenario_document()))
    return path


def shift_the_oracle(monkeypatch, shift):
    """A negative control: verify's centralized oracle answers its allocation plus
    ``shift``, which verify must fail."""
    def shifted(scenario):
        solution = solve_welfare_centralized(scenario)
        return replace(solution, allocation=Allocation(solution.allocation.x + shift))
    monkeypatch.setattr(cli, "solve_welfare_centralized", shifted)


class TestRunCommand:
    def test_demo_scenario_converges(self, demo_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(demo_file), "--gamma", "0.1",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == (out / "summary.json").read_text()
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

    def test_boolean_alpha_exits_1(self, tmp_path, capsys):
        # float(True) is 1, but a boolean is not a number
        bad = tmp_path / "bool.json"
        doc = demo_scenario_document()
        doc["customers"][0]["alpha"] = True
        bad.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: customers[0].alpha: must be a number, got True"]
        assert not (tmp_path / "o").exists()

    def test_num_slots_past_the_largest_array_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "slots.json"
        doc = demo_scenario_document()
        doc["num_slots"], doc["customers"] = 10**400, doc["customers"][:1]
        bad.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: num_slots: ")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_nan_projection_exits_2_with_one_error_line(self, command, tmp_path, capsys):
        # numpy's divide warning, an error in this suite, must not precede the error line
        scen = tmp_path / "nan_step.json"
        scen.write_text(json.dumps(nan_step_document()))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(scen), "--gamma", "10",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: market iteration diverged at iteration 1"]
        assert not out.exists()

    def test_welfare_only_overflow_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "welfare_overflow.json"
        scen.write_text(json.dumps(welfare_overflow_document()))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: market iteration diverged at iteration 1"]
        assert not out.exists()

    def test_row_sum_overflow_exits_2_with_one_error_line(self, tmp_path, capsys):
        # the first step's raw row sums past the float range; a numpy
        # overflow warning would fail this test (the suite turns them into errors)
        scen = tmp_path / "row_sum_overflow.json"
        scen.write_text(json.dumps({
            "num_slots": 2,
            "customers": [{"id": 0, "w": [1e300, 1e300], "alpha": 1e-7, "d_max": 1e308}],
            "blocks": {"b": 25.0}, "cost": {"beta1": 0.5, "beta2": 0.6}}))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scen), "--gamma", "1e8",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: market iteration diverged at iteration 1"]
        assert not out.exists()

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
        # each step's run ends at the demo's exact equilibrium, in no more iterations
        # than its plain loop, whose iterations fall strictly as the step grows
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(demo_file),
                     "--gammas", "0.01,0.1,0.3", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [r["gamma"] for r in rows] == ["0.01", "0.1", "0.3"]
        scenario = load_scenario(demo_file)
        plain = [len(reference_market(scenario, RunConfig(gamma=float(r["gamma"])))) - 1
                 for r in rows]
        assert plain[0] > plain[1] > plain[2]
        assert all(int(r["iterations"]) <= n for r, n in zip(rows, plain))
        assert all(r["converged"] == "True" for r in rows)
        for r in rows:
            trace = list(csv.DictReader((out / f"trace_gamma_{r['gamma']}.csv").read_text()
                                        .splitlines()[1:]))
            last = [row for row in trace if row["iter"] == r["iterations"]]
            assert [[float(row["x"])] for row in last] == DEMO_EQUILIBRIUM

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
        assert err.value.code == 1

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
        # the diverged run's trace, streamed until it diverged, is removed
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "trace_gamma_0.1.csv"]


class TestOneSolvePerJob:
    """``run``, ``demo`` and each step size of ``sweep`` solve the market once: trace.csv
    is written from that run, not from a replay of it."""

    @pytest.mark.parametrize("argv, jobs", [
        (["run", "--gamma", "0.1"], 1),
        (["sweep", "--gammas", "0.1,0.3"], 2),
        (["demo"], 1),
    ], ids=["run", "sweep", "demo"])
    def test_one_market_iteration_per_job(self, argv, jobs, demo_file, tmp_path, monkeypatch):
        solves, kernel = [], market._StepKernel

        def counting(*args, **kwargs):
            solves.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(market, "_StepKernel", counting)
        scenario = [] if argv[0] == "demo" else ["--scenario", str(demo_file)]
        assert main([*argv, *scenario, "--out", str(tmp_path / "out")]) == 0
        assert len(solves) == jobs
        traces = sorted((tmp_path / "out").glob("trace*.csv"))
        assert len(traces) == jobs and all(path.stat().st_size for path in traces)


class TestVerifyCommand:
    def test_demo_passes(self, demo_file, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", str(demo_file), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["pass"] is True
        assert payload["allocation_gap"] < 1e-3
        assert payload["welfare_gap"] < 1e-4
        # demo's raw-welfare argmax is on the cost-segment boundary
        assert payload["optimum"]["boundary_degenerate"] is True
        assert "welfare optimum is boundary-degenerate" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_oracle_start_overflow_exits_3_with_one_line(self, tmp_path, capsys):
        # the oracle's start point overflows; no numpy warning may precede the error line
        scen = tmp_path / "leak.json"
        scen.write_text(json.dumps(leaky_start_document()))
        assert main(["verify", "--scenario", str(scen)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: the centralized oracle could not certify an equilibrium")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_band_miss_exits_3_with_one_line(self, tmp_path, capsys):
        # the centralized answer misses a daily band: nothing is compared or written
        scen = tmp_path / "band.json"
        scen.write_text(json.dumps(SATED_BAND_DOCUMENT))
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(scen), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: the centralized oracle could not certify an equilibrium")
        assert not (out / "comparison.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_optimum_not_found_exits_3_with_one_line(self, tmp_path, capsys):
        # the exact optimum finds no KKT solution in its piece against a band of 4.8e-57
        scen = tmp_path / "band.json"
        scen.write_text(json.dumps(TINY_BAND_DOCUMENT))
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(scen), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no KKT solution")
        assert not (out / "comparison.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_gap_is_null(self, demo_file, tmp_path, capsys, monkeypatch):
        # a shift of 1e308 sums past the float range: stdout and the file carry the
        # same strict JSON, the infinite demand gap as null
        shift_the_oracle(monkeypatch, 1e308)
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(demo_file), "--out", str(out)]) == 4
        text = capsys.readouterr().out
        assert text == (out / "comparison.json").read_text()
        payload = json.loads(text)
        assert payload["demand_gap"] is None and payload["allocation_gap"] == 1e308

    def test_demo_optimum_section(self, demo_file, tmp_path):
        # the exact optimum (10, 40), welfare 2100, against the market's run
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(demo_file), "--out", str(out)]) == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["optimum"] == {"allocation_gap": 6.25,
                                      "boundary_degenerate": True, "demand_gap": 3.125,
                                      "pass": False, "welfare_gap": 29.296875}
        # the market finishes at the centralized oracle's exact answer
        assert payload["allocation_gap"] == payload["demand_gap"] == 0.0
        assert payload["welfare_gap"] == 0.0

    def test_inefficient_equilibrium_fails(self, tmp_path):
        # w = (10, 90): the optimum (0, 45) lies off the segment boundary, and
        # the market's welfare falls short of it by 2025/121
        doc = demo_scenario_document()
        doc["customers"][0]["w"] = 10
        scen = tmp_path / "w10.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(scen), "--out", str(out)]) == 4
        optimum = json.loads((out / "comparison.json").read_text())["optimum"]
        assert optimum["boundary_degenerate"] is False and optimum["pass"] is False
        assert optimum["welfare_gap"] == pytest.approx(2025 / 121, abs=1e-7)

    def test_optimum_past_satiation_passes(self, tmp_path):
        # a floor of 19 against satiation 10 per slot: the optimum, and the
        # market, consume past satiation in the cheap slot 0
        doc = {"num_slots": 2, "customers": [{"id": 0, "w": [10, 10], "alpha": 1,
                                              "d_min": 19, "d_max": 19}],
               "blocks": {"b": 1000}, "cost": {"beta1": [0.01, 1.0], "beta2": [0.01, 1.0]}}
        scen = tmp_path / "floor.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(scen), "--out", str(out)]) == 0
        optimum = json.loads((out / "comparison.json").read_text())["optimum"]
        assert optimum["pass"] is True and optimum["welfare_gap"] < 1e-10

    def test_three_slot_market_is_compared(self, tmp_path):
        # a 3-variable market whose welfare optimum sits on bN in one slot
        doc = {"num_slots": 3, "customers": [{"id": 0, "w": [30, 20, 40], "alpha": 1,
                                              "d_min": 50, "d_max": 60}],
               "blocks": {"b": 10}, "cost": {"beta1": 0.3, "beta2": 0.5}}
        scen = tmp_path / "three.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(scen), "--out", str(out)]) == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["pass"] is True
        assert payload["optimum"]["boundary_degenerate"] is True
        assert payload["optimum"]["welfare_gap"] == pytest.approx(95 / 6, abs=1e-7)

    def test_max_iter_exhaustion_exits_2(self, demo_file, tmp_path, capsys):
        # a market run stopped by --max-iter is not compared with the oracles
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", str(demo_file), "--max-iter", "3",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: market run did not converge in 3 iterations\n"
        assert not out.exists()

    def test_oracle_failure_exits_3(self, demo_file, tmp_path, capsys, monkeypatch):
        # an oracle that takes no Newton step cannot certify; nothing is compared
        monkeypatch.setattr(oracle, "_NEWTON_STEPS", 0)
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(demo_file), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the centralized oracle could not certify an equilibrium (residual 12.0)"]
        assert not (out / "comparison.json").exists()

    def test_the_oracle_takes_only_the_scenario(self, demo_file, monkeypatch):
        # --gamma and --max-iter set the market run; the oracle has no step or cap
        calls = []

        def centralized(*args, **kwargs):
            calls.append((len(args), kwargs))
            return solve_welfare_centralized(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_welfare_centralized", centralized)
        assert main(["verify", "--scenario", str(demo_file), "--gamma", "0.1",
                     "--max-iter", "400"]) == 0
        assert calls == [(1, {})]

    def test_past_satiation_passes_on_demand_and_welfare(self, tmp_path):
        # each customer ties slots 0 and 1 past satiation: the oracle's x may differ
        # from the market's, its slot demand and welfare may not
        doc = {"num_slots": 3, "blocks": {"b": 1000}, "cost": {"beta1": 1, "beta2": 1},
               "customers": [{"id": i, "w": [10, 10, 100], "alpha": 1, "d_min": 110,
                              "d_max": 1000} for i in range(2)]}
        scen = tmp_path / "sated.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(scen), "--out", str(out)]) == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["pass"] is True and payload["demand_gap"] < 1e-9

    def test_scale_of_w_1e160_passes(self, tmp_path):
        # the market's certificate reads about x = 1e10 here; the oracle's stop
        # test is relative to max D, so it certifies the answer
        doc = {"num_slots": 1, "blocks": {"b": 1e9}, "cost": {"beta1": 1e140, "beta2": 1e140},
               "customers": [{"id": 0, "w": 1e160, "alpha": 1e150, "d_max": 1e12}]}
        scen = tmp_path / "scale.json"
        scen.write_text(json.dumps(doc))
        assert main(["verify", "--scenario", str(scen)]) == 0

    def test_perturbation_injection_fails(self, demo_file, monkeypatch):
        shift_the_oracle(monkeypatch, 0.5)
        assert main(["verify", "--scenario", str(demo_file)]) == 4

    def test_large_negative_perturbation_fails(self, demo_file, tmp_path, capsys,
                                               monkeypatch):
        # negative control: the shifted allocation is negative, and verify
        # still compares it and fails instead of raising
        shift_the_oracle(monkeypatch, -50.0)
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", str(demo_file), "--out", str(out)])
        assert code == 4
        assert json.loads(capsys.readouterr().out)["pass"] is False
        assert json.loads((out / "comparison.json").read_text())["pass"] is False

    def test_optimum_skipped_above_three_variables(self, tmp_path, capsys):
        doc = demo_scenario_document()
        doc["num_slots"] = 2
        doc["blocks"]["b"] = 25
        scen = tmp_path / "four.json"
        scen.write_text(json.dumps(doc))
        code = main(["verify", "--scenario", str(scen)])
        err = capsys.readouterr().err
        assert "welfare optimum skipped" in err
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
        return lines[0]

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

    @pytest.mark.parametrize("command, option, name", [
        ("run", "--gamma=nan", "gamma"), ("run", "--gamma=inf", "gamma"),
        ("run", "--tol=nan", "tol"), ("run", "--tol=inf", "tol"),
        ("demo", "--gamma=inf", "gamma"), ("sweep", "--gammas=nan,0.1", "gamma"),
        ("sweep", "--tol=inf", "tol"), ("verify", "--gamma=nan", "gamma"),
    ])
    def test_non_finite_option(self, command, option, name, demo_file, tmp_path,
                               capsys):
        out = tmp_path / "out"
        argv = [command, option, "--out", str(out)]
        if command != "demo":
            argv += ["--scenario", str(demo_file)]
        if command == "sweep" and name == "tol":
            argv.append("--gammas=0.1")
        self.assert_rejected(argv, out, capsys,
                             reason=f"{name} must be positive and finite")

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_default_step_bound_overflow(self, command, tmp_path, capsys):
        # beta1 + beta2 passes the float range, so the default step is 2/inf = 0
        doc = {"num_slots": 1, "customers": [{"id": 0, "w": [10.0], "alpha": 1.0,
                                              "d_max": 5.0}],
               "blocks": {"b": 2.0}, "cost": {"beta1": 1e308, "beta2": 1e308}}
        scen = tmp_path / "overflow.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "out"
        self.assert_rejected([command, "--scenario", str(scen), "--out", str(out)], out,
                             capsys, reason="the scenario's default step bound 2*(max alpha "
                             "+ max(beta1 + beta2)*N) overflows the float range; --gamma "
                             "sets a step")

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_default_step_subnormal_bound(self, command, tmp_path, capsys):
        # 2 over a subnormal bound is inf: the error names the default step, which
        # --gamma replaces, and not "got inf" for a --gamma the user never set
        scen = tmp_path / "subnormal.json"
        scen.write_text(json.dumps(SUBNORMAL_BOUND_DOCUMENT))
        out = tmp_path / "out"
        line = self.assert_rejected([command, "--scenario", str(scen), "--out", str(out)],
                                    out, capsys, reason="the scenario's default step 2/(min alpha")
        assert "--gamma sets a step" in line and "got inf" not in line


class TestUsageErrors:
    """A usage error exits 1, as a bad option value does, not 2, which means that the
    market did not converge; argparse's usage lines and its error line are kept."""

    def assert_usage_error(self, argv, capsys, error):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and lines[0].startswith("usage: brpmarket")
        assert lines[-1].startswith("brpmarket") and lines[-1].endswith(f": error: {error}")

    def test_removed_option(self, demo_file, capsys):
        self.assert_usage_error(["verify", "--scenario", str(demo_file), "--grid-step", "0.01"],
                                capsys, "unrecognized arguments: --grid-step 0.01")

    def test_removed_perturbation_option(self, demo_file, capsys):
        self.assert_usage_error(["verify", "--scenario", str(demo_file),
                                 "--inject-perturbation", "0.5"], capsys,
                                "unrecognized arguments: --inject-perturbation 0.5")

    def test_missing_required_option(self, tmp_path, capsys):
        self.assert_usage_error(["run", "--out", str(tmp_path / "o")], capsys,
                                "the following arguments are required: --scenario")
        assert not (tmp_path / "o").exists()

    def test_unparsable_option_value(self, demo_file, tmp_path, capsys):
        self.assert_usage_error(["run", "--scenario", str(demo_file), "--gamma", "abc",
                                 "--out", str(tmp_path / "o")], capsys,
                                "argument --gamma: invalid float value: 'abc'")

    def test_unparsable_gamma_list(self, demo_file, tmp_path, capsys):
        self.assert_usage_error(["sweep", "--scenario", str(demo_file), "--gammas", "0.1,abc",
                                 "--out", str(tmp_path / "o")], capsys,
                                "argument --gammas: invalid step size list: '0.1,abc'")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("gammas", ["0.1,abc", ","])
    def test_gamma_list_errors_name_the_sweep_parser(self, gammas, demo_file, tmp_path,
                                                     capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--scenario", str(demo_file), "--gammas", gammas,
                  "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: brpmarket sweep ")
        assert lines[-1].startswith("brpmarket sweep: error: argument --gammas: ")

    @pytest.mark.parametrize("command", [[], ["run"], ["sweep"], ["verify"], ["demo"]],
                             ids=["brpmarket", "run", "sweep", "verify", "demo"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([*command, "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: brpmarket")


class TestOutPath:
    """An --out that cannot be written exits 1 with one error line: a file in
    the way is found before any solve, a failed write after it."""

    EXTRA = {"run": [], "sweep": ["--gammas", "0.3"], "verify": []}

    def argv(self, command, demo_file, out):
        return [command, "--scenario", str(demo_file), *self.EXTRA[command], "--out", str(out)]

    @pytest.mark.parametrize("command", ["run", "sweep", "verify"])
    def test_file_in_the_way_rejected_before_any_solve(self, command, demo_file, tmp_path,
                                                       capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solver called despite an unusable --out")
        monkeypatch.setattr(cli, "run_market", refuse)
        monkeypatch.setattr(cli, "solve_welfare_centralized", refuse)
        taken = tmp_path / "taken"
        taken.write_text("a file")
        for out in (taken, taken / "sub"):
            assert main(self.argv(command, demo_file, out)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: --out {str(out)!r} is not a directory and cannot become one"]
        assert taken.read_text() == "a file"

    @pytest.mark.parametrize("command, name", [
        ("run", "trace.csv"), ("sweep", "sweep.csv"), ("verify", "comparison.json")])
    def test_failed_write_exits_1(self, command, name, demo_file, tmp_path, capsys):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)  # a directory where the output file goes
        assert main(self.argv(command, demo_file, out)) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("notice:")]
        assert len(errors) == 1 and errors[0].startswith("error: ") and name in errors[0]


class TestParsedOptions:
    """Each subcommand's options and their defaults, from a minimal argv and from one that
    sets every option."""

    @pytest.mark.parametrize("argv, parsed", [
        (["run", "--scenario", "s.json", "--out", "o"],
         {"scenario": "s.json", "gamma": None, "tol": 1e-6, "max_iter": 50000, "out": "o"}),
        (["run", "--scenario", "s.json", "--gamma", "0.5", "--tol", "1e-8", "--max-iter", "7",
          "--out", "o"],
         {"scenario": "s.json", "gamma": 0.5, "tol": 1e-8, "max_iter": 7, "out": "o"}),
        (["sweep", "--scenario", "s.json", "--gammas", "0.1,0.3", "--out", "o"],
         {"scenario": "s.json", "gammas": [0.1, 0.3], "tol": 1e-6, "max_iter": 50000,
          "out": "o"}),
        (["sweep", "--scenario", "s.json", "--gammas", "0.2", "--tol", "1e-8", "--max-iter",
          "7", "--out", "o"],
         {"scenario": "s.json", "gammas": [0.2], "tol": 1e-8, "max_iter": 7, "out": "o"}),
        (["verify", "--scenario", "s.json"],
         {"scenario": "s.json", "gamma": None, "max_iter": 200000, "out": None}),
        (["verify", "--scenario", "s.json", "--gamma", "0.5", "--max-iter", "7", "--out", "o"],
         {"scenario": "s.json", "gamma": 0.5, "max_iter": 7, "out": "o"}),
        (["demo"],
         {"scenario": str(cli.DEMO_SCENARIO), "gamma": None, "tol": 1e-6, "max_iter": 50000,
          "out": "demo_out"}),
        (["demo", "--gamma", "0.5", "--tol", "1e-8", "--max-iter", "7", "--out", "o"],
         {"scenario": str(cli.DEMO_SCENARIO), "gamma": 0.5, "tol": 1e-8, "max_iter": 7,
          "out": "o"}),
    ], ids=["run", "run-all", "sweep", "sweep-all", "verify", "verify-all", "demo",
            "demo-all"])
    def test_parsed_values(self, argv, parsed):
        args = vars(cli.build_parser().parse_args(argv))
        del args["func"]
        assert args == {"command": argv[0], **parsed}

    def test_demo_is_run_on_the_packaged_scenario(self):
        args = cli.build_parser().parse_args(["demo"])
        assert args.func is cli.cmd_run
        assert json.loads(Path(args.scenario).read_text()) == demo_scenario_document()


class TestDemoCommand:
    def test_demo_runs_and_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "demo_out"
        code = main(["demo", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert (out / "trace.csv").exists()
