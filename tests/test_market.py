import csv
import json
import math

import numpy as np
import pytest

from brpmarket import (
    Allocation,
    BlockSchedule,
    DivergenceError,
    IterationRecord,
    IterationTrace,
    PriceSchedule,
    RunConfig,
    brute_force_welfare,
    default_step_size,
    detect_convergence,
    run_market,
    social_welfare,
    validate_scenario,
)
from brpmarket import cli
from brpmarket.market import TRACE_COLUMNS, TRACE_COMMENT
from conftest import make_scenario, single_customer_scenario


class TestSocialWelfare:
    def test_zero_allocation(self, demo_scenario):
        alloc = Allocation.from_consumption(np.zeros((2, 1)), demo_scenario.blocks)
        assert social_welfare(alloc, demo_scenario) == 0.0

    def test_direct_evaluation(self):
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 0, "d_max": 1000},
             {"id": 1, "w": 100, "alpha": 1.0, "d_min": 0, "d_max": 1000}],
            b=25, beta1=0.5, beta2=0.6)
        alloc = Allocation.from_consumption(np.array([[20.0], [20.0]]),
                                            scenario.blocks)
        # 2*(2000 - 200) - 0.5*40**2, D = 40 below bN = 50
        assert social_welfare(alloc, scenario) == pytest.approx(2800.0)


class TestRunMarket:
    def test_closed_form_single_customer(self):
        scenario = single_customer_scenario()
        report, _ = run_market(scenario, RunConfig(gamma=0.05, tol=1e-10))
        assert report.converged
        assert report.allocation.x[0, 0] == pytest.approx(40.0 / 3.0, abs=1e-4)
        assert report.prices.p_l[0] == pytest.approx(80.0 / 3.0, abs=1e-3)
        # cross-check against the exhaustive grid oracle
        grid = brute_force_welfare(scenario, 0.001)
        assert abs(grid.allocation.x[0, 0] - report.allocation.x[0, 0]) < 2e-3

    def test_step_size_ordering(self, demo_scenario):
        iters = []
        for gamma in (0.01, 0.1, 0.3):
            report, _ = run_market(demo_scenario, RunConfig(gamma=gamma))
            assert report.converged
            iters.append(report.iterations)
        assert iters[2] < iters[1] < iters[0]

    def test_unprofitable_customer_consumes_nothing(self):
        # a forced-demand customer keeps prices above the small customer's
        # willingness, so the small customer settles at exactly zero
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 40, "d_max": 40},
             {"id": 1, "w": 5, "alpha": 1.0, "d_min": 0, "d_max": 100}],
            b=60, beta1=0.5, beta2=0.6)
        report, _ = run_market(scenario, RunConfig(gamma=0.1, tol=1e-9))
        assert report.allocation.x[0, 0] == pytest.approx(40.0, abs=1e-6)
        assert report.allocation.x[1, 0] == pytest.approx(0.0, abs=1e-9)

    def test_initialization_is_feasible_throughout(self):
        scenario = make_scenario(
            2,
            [{"id": 0, "w": 50, "alpha": 1.0, "d_min": 10, "d_max": 30},
             {"id": 1, "w": 80, "alpha": 1.0, "d_min": 0, "d_max": 12}],
            b=60, beta1=0.3, beta2=0.4)
        report, trace = run_market(scenario, RunConfig(gamma=0.1, tol=1e-8))
        for rec in trace.records:
            assert np.all(rec.allocation.x >= -1e-12)
            for i, cust in enumerate(scenario.customers):
                daily = rec.allocation.x[i].sum()
                assert cust.d_min - 1e-9 <= daily <= cust.d_max + 1e-9

    def test_welfare_never_ends_below_start(self, demo_scenario):
        for gamma in (0.01, 0.1):
            report, trace = run_market(demo_scenario, RunConfig(gamma=gamma))
            assert trace[-1].welfare >= trace[0].welfare - 1e-9

    def test_second_block_pricier_at_every_iterate(self, demo_scenario):
        _, trace = run_market(demo_scenario, RunConfig(gamma=0.1))
        for rec in trace.records:
            demand = rec.allocation.x.sum(axis=0)
            positive = demand > 0
            assert np.all(rec.prices.p_u[positive] > rec.prices.p_l[positive])

    def test_deterministic_bitwise(self, demo_scenario):
        r1, t1 = run_market(demo_scenario, RunConfig(gamma=0.1))
        r2, t2 = run_market(demo_scenario, RunConfig(gamma=0.1))
        assert len(t1) == len(t2)
        for a, b in zip(t1.records, t2.records):
            assert np.array_equal(a.allocation.x, b.allocation.x)
            assert np.array_equal(a.prices.p_l, b.prices.p_l)
            assert a.welfare == b.welfare

    def test_divergence_raises_with_iteration(self):
        scenario = single_customer_scenario(beta=0.5, d_max=1e200)
        with pytest.raises(DivergenceError) as err:
            run_market(scenario, RunConfig(gamma=1e160, max_iter=100))
        assert err.value.iteration >= 1

    def test_overflowing_step_raises_divergence_at_iteration_1(self):
        doc = cli.demo_scenario_document()
        for c in doc["customers"]:
            c["d_max"] = 1e308
        with pytest.raises(DivergenceError) as err:
            run_market(validate_scenario(doc), RunConfig(gamma=1e307))
        assert err.value.iteration == 1

    def test_max_iter_exhaustion_reports_not_converged(self, demo_scenario):
        report, trace = run_market(demo_scenario, RunConfig(gamma=0.01, max_iter=5))
        assert not report.converged
        assert report.iterations == 5
        assert len(trace) == 6  # initial iterate plus five updates


class TestRunConfig:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": -0.1},
        {"gamma": 0.1, "tol": 0.0}, {"gamma": 0.1, "max_iter": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestDefaultStepSize:
    def test_inside_stability_region(self, demo_scenario):
        gamma = default_step_size(demo_scenario)
        report, _ = run_market(demo_scenario, RunConfig(gamma=gamma))
        assert report.converged


def _record(x, p_l, p_u, welfare=0.0, change=0.0):
    blocks = BlockSchedule(b=np.full(x.shape[1], 25.0))
    return IterationRecord(
        allocation=Allocation.from_consumption(x, blocks),
        prices=PriceSchedule(p_l=np.asarray(p_l, float), p_u=np.asarray(p_u, float)),
        welfare=welfare, max_change=change)


class TestDetectConvergence:
    def test_identical_iterates(self):
        trace = IterationTrace()
        x = np.array([[10.0]])
        trace.append(_record(x, [3.0], [4.0]))
        trace.append(_record(x, [3.0], [4.0]))
        assert detect_convergence(trace, 1e-6)

    def test_allocation_change_of_twice_tol(self):
        trace = IterationTrace()
        tol = 1e-6
        trace.append(_record(np.array([[10.0]]), [3.0], [4.0]))
        trace.append(_record(np.array([[10.0 + 2 * tol]]), [3.0], [4.0]))
        assert not detect_convergence(trace, tol)

    def test_price_movement_alone_blocks_convergence(self):
        trace = IterationTrace()
        x = np.array([[10.0]])
        trace.append(_record(x, [3.0], [4.0]))
        trace.append(_record(x, [3.1], [4.0]))
        assert not detect_convergence(trace, 1e-6)

    def test_requires_two_iterates(self):
        trace = IterationTrace()
        trace.append(_record(np.array([[10.0]]), [3.0], [4.0]))
        with pytest.raises(ValueError):
            detect_convergence(trace, 1e-6)


class TestTraceCsv:
    def test_schema_and_round_trip(self, demo_scenario, tmp_path):
        _, trace = run_market(demo_scenario, RunConfig(gamma=0.3))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        rows = list(csv.DictReader(lines[1:]))
        n, t = 2, 1
        assert len(rows) == len(trace) * n * t
        assert list(rows[0].keys()) == ["iter", "slot", "customer", "x", "y", "z",
                                        "p_l", "p_u", "welfare", "max_change"]
        assert math.isnan(float(rows[0]["max_change"]))  # iteration 0
        last = rows[-1]
        k = len(trace) - 1
        assert int(last["iter"]) == k
        cust = int(last["customer"])
        assert float(last["x"]) == trace[k].allocation.x[cust, int(last["slot"])]

    def test_byte_identical_across_runs(self, demo_scenario, tmp_path):
        _, t1 = run_market(demo_scenario, RunConfig(gamma=0.3))
        _, t2 = run_market(demo_scenario, RunConfig(gamma=0.3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(p1)
        t2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def reference_trace_csv(trace, path):
    """The csv.writer loop ``to_csv`` replaced, kept as the byte reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_COMMENT + "\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for k, rec in enumerate(trace.records):
            n, t = rec.allocation.x.shape
            for slot in range(t):
                for cust in range(n):
                    writer.writerow([
                        k, slot, cust,
                        repr(float(rec.allocation.x[cust, slot])),
                        repr(float(rec.allocation.y[cust, slot])),
                        repr(float(rec.allocation.z[cust, slot])),
                        repr(float(rec.prices.p_l[slot])),
                        repr(float(rec.prices.p_u[slot])),
                        repr(float(rec.welfare)),
                        repr(float(rec.max_change)),
                    ])


def straddling_document():
    """N=3, T=2 with per-slot b; the equilibrium has customers on both sides
    of b in both slots."""
    return {
        "num_slots": 2,
        "customers": [
            {"id": 0, "w": [60, 90], "alpha": 1.0, "d_min": 0, "d_max": 1000},
            {"id": 1, "w": [30, 45], "alpha": 1.0, "d_min": 0, "d_max": 1000},
            {"id": 2, "w": [80, 25], "alpha": 1.0, "d_min": 0, "d_max": 1000},
        ],
        "blocks": {"b": [20, 30]},
        "cost": {"beta1": 0.15, "beta2": 0.2},
    }


class TestTraceCsvGolden:
    def test_run_trace_matches_reference_writer(self, tmp_path):
        scenario = validate_scenario(straddling_document())
        report, trace = run_market(scenario, RunConfig(gamma=0.3))
        x, b = report.allocation.x, scenario.blocks.b
        assert np.all(np.any(x < b, axis=0)) and np.all(np.any(x > b, axis=0))
        trace.to_csv(tmp_path / "fast.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        data = (tmp_path / "fast.csv").read_bytes()
        assert data == (tmp_path / "reference.csv").read_bytes()
        comment, header, first = data.split(b"\n")[:3]
        assert not comment.endswith(b"\r") and header.endswith(b"\r")
        assert first.startswith(b"0,0,0,") and first.endswith(b",nan\r")

    def test_special_values_match_reference_writer(self, tmp_path):
        # integer arrays, numpy scalars, signed zero, tiny, huge and infinite values
        alloc = Allocation(x=np.array([[3, 0], [1, 2]]),
                           y=np.array([[-0.0, 1e-300], [1, 2]]),
                           z=np.array([[1e22, 0.1], [2.5, math.inf]]))
        prices = PriceSchedule(p_l=[1, 2.0], p_u=np.array([3, -math.inf]))
        trace = IterationTrace()
        for welfare, change in ((7, math.nan), (np.float64(-0.0), np.float64(1e-17))):
            trace.append(IterationRecord(alloc, prices, welfare, change))
        trace.to_csv(tmp_path / "fast.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_sweep_traces_match_reference_writer(self, tmp_path):
        scenario_path = tmp_path / "straddle.json"
        scenario_path.write_text(json.dumps(straddling_document()))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", str(scenario_path),
                         "--gammas", "0.1,0.3", "--out", str(out)]) == 0
        scenario = validate_scenario(straddling_document())
        for gamma in (0.1, 0.3):
            _, trace = run_market(scenario, RunConfig(gamma=gamma))
            reference_trace_csv(trace, tmp_path / "reference.csv")
            assert ((out / f"trace_gamma_{gamma}.csv").read_bytes()
                    == (tmp_path / "reference.csv").read_bytes())
