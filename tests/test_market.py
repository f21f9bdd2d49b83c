import csv
import hashlib
import importlib.util
import io
import json
import math
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brpmarket import (
    Allocation,
    DivergenceError,
    RunConfig,
    block_prices,
    default_step_size,
    run_market,
    social_welfare,
    solve_welfare_centralized,
    step_profile,
    utility_value,
    validate_scenario,
    welfare_optimum,
    worst_kkt_residual,
)
from brpmarket import cli
from brpmarket import agent as agent_module
from brpmarket import market as market_module
from brpmarket.market import TRACE_COLUMNS, TRACE_COMMENT
from brpmarket.model import PriceSchedule
from conftest import DEMO_EQUILIBRIUM, make_scenario, random_scenario, single_customer_scenario
from references import recorded_run, reference_market


def welfare_overflow_document():
    """One customer whose first step at the default step size is finite,
    as are its prices, but whose utility overflows."""
    return {"num_slots": 1,
            "customers": [{"id": 0, "w": [1e200], "alpha": 1e-100, "d_min": 0.0,
                           "d_max": 1e300}],
            "blocks": {"b": 25.0}, "cost": {"beta1": 0.5, "beta2": 0.6}}


# a valid document whose default step bound is subnormal, so that 2 over it is inf
SUBNORMAL_BOUND_DOCUMENT = {"num_slots": 1, "customers": [
    {"id": 0, "w": 1e-320, "alpha": 1e-320, "d_min": 0.0, "d_max": 1.0}],
    "blocks": {"b": 1.0}, "cost": {"beta1": 1e-320, "beta2": 1e-320}}


def overflow_document():
    """The demo with daily caps of 1e308, whose first step overflows at gamma 1e307."""
    doc = cli.demo_scenario_document()
    for c in doc["customers"]:
        c["d_max"] = 1e308
    return doc


def nan_step_document():
    """One customer whose first step at gamma 10 is finite before its projection and NaN
    after it: its band projection divides by a zero slope."""
    return {"num_slots": 1,
            "customers": [{"id": 0, "w": [1.5e307], "alpha": 1.0, "d_min": 1.5e7,
                           "d_max": 1e8}],
            "blocks": {"b": 25.0}, "cost": {"beta1": 1.0, "beta2": 1e300}}


class TestSocialWelfare:
    def test_zero_allocation(self, demo_scenario):
        alloc = Allocation(np.zeros((2, 1)))
        assert social_welfare(alloc, demo_scenario) == 0.0

    def test_nan_consumption_rejected(self, demo_scenario):
        # NaN used to pass the x >= 0 check and give a NaN welfare
        with pytest.raises(ValueError, match="consumption must be nonnegative"):
            social_welfare(Allocation(np.array([[1.0], [np.nan]])), demo_scenario)

    def test_direct_evaluation(self):
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 0, "d_max": 1000},
             {"id": 1, "w": 100, "alpha": 1.0, "d_min": 0, "d_max": 1000}],
            b=25, beta1=0.5, beta2=0.6)
        alloc = Allocation(np.array([[20.0], [20.0]]))
        # 2*(2000 - 200) - 0.5*40**2, D = 40 below bN = 50
        assert social_welfare(alloc, scenario) == pytest.approx(2800.0)


class TestRunMarket:
    def test_closed_form_single_customer(self):
        scenario = single_customer_scenario()
        report, _ = run_market(scenario, RunConfig(gamma=0.05, tol=1e-10))
        assert report.converged
        assert report.allocation.x[0, 0] == pytest.approx(40.0 / 3.0, abs=1e-4)
        assert report.prices.p_l[0] == pytest.approx(80.0 / 3.0, abs=1e-3)
        # cross-check against the exact welfare optimum
        optimum = welfare_optimum(scenario)
        assert abs(optimum.allocation.x[0, 0] - report.allocation.x[0, 0]) < 1e-6

    def test_step_size_ordering(self, demo_scenario):
        # the plain loop's iterations fall strictly as the step grows; the run finishes
        # each at the exact equilibrium, in no more iterations than its plain loop
        plain = []
        for gamma in (0.01, 0.1, 0.3):
            config = RunConfig(gamma=gamma)
            report, _ = run_market(demo_scenario, config)
            plain.append(len(reference_market(demo_scenario, config)) - 1)
            assert report.converged and report.iterations <= plain[-1]
            assert report.allocation.x.tolist() == DEMO_EQUILIBRIUM
        assert plain[2] < plain[1] < plain[0]

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
        report, records = recorded_run(scenario, RunConfig(gamma=0.1, tol=1e-8))
        for rec in records:
            assert np.all(rec.x >= -1e-12)
            for i, cust in enumerate(scenario.customers):
                daily = rec.x[i].sum()
                assert cust.d_min - 1e-9 <= daily <= cust.d_max + 1e-9

    def test_welfare_never_ends_below_start(self, demo_scenario):
        for gamma in (0.01, 0.1):
            report, records = recorded_run(demo_scenario, RunConfig(gamma=gamma))
            assert records[-1].welfare >= records[0].welfare - 1e-9

    def test_second_block_pricier_at_every_iterate(self, demo_scenario):
        _, records = recorded_run(demo_scenario, RunConfig(gamma=0.1))
        for rec in records:
            demand = rec.x.sum(axis=0)
            positive = demand > 0
            assert np.all(rec.prices.p_u[positive] > rec.prices.p_l[positive])

    def test_deterministic_bitwise(self, demo_scenario):
        r1, t1 = recorded_run(demo_scenario, RunConfig(gamma=0.1))
        r2, t2 = recorded_run(demo_scenario, RunConfig(gamma=0.1))
        assert len(t1) == len(t2)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.prices.p_l, b.prices.p_l)
            assert a.welfare == b.welfare

    def test_divergence_raises_with_iteration(self):
        scenario = single_customer_scenario(beta=0.5, d_max=1e200)
        with pytest.raises(DivergenceError) as err:
            run_market(scenario, RunConfig(gamma=1e160, max_iter=100))
        assert err.value.iteration >= 1

    def test_overflowing_step_raises_divergence_at_iteration_1(self):
        with pytest.raises(DivergenceError) as err:
            run_market(validate_scenario(overflow_document()), RunConfig(gamma=1e307))
        assert err.value.iteration == 1

    def test_nan_projection_diverges_at_iteration_1(self):
        # numpy's divide warning, an error in this suite, must not escape the loop
        before = np.geterr()
        with pytest.raises(DivergenceError) as err:
            run_market(validate_scenario(nan_step_document()), RunConfig(gamma=10.0))
        assert err.value.iteration == 1
        assert np.geterr() == before

    def test_welfare_only_overflow_diverges_at_iteration_1(self):
        # the first step and its prices are finite, its utility w*x is not
        scenario = validate_scenario(welfare_overflow_document())
        with pytest.raises(DivergenceError) as err:
            run_market(scenario, RunConfig(gamma=default_step_size(scenario)))
        assert err.value.iteration == 1

    @pytest.mark.parametrize("beta1, beta2, d_min, d_max", [
        (1e308, 1e308, 1.0, 1.0), (5e307, 5e307, 0.0, 1.85), (0.5, 5e307, 0.0, 1.85)])
    def test_price_only_overflow_diverges_at_iteration_1(self, beta1, beta2, d_min, d_max):
        # 2*beta2*D overflows while beta2*D**2 does not.  From x = 1 the first step
        # meets infinite prices; from x = 0 it lands on the cap of 1.85, whose posted
        # p_u is infinite, which the loop's check of p_u alone must catch, p_l finite
        # or not
        scenario = make_scenario(1, [{"id": 0, "w": 10.0, "alpha": 1.0, "d_min": d_min,
                                      "d_max": d_max}], b=25.0, beta1=beta1, beta2=beta2)
        with pytest.raises(DivergenceError) as err:
            run_market(scenario, RunConfig(gamma=1.0))
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
        {"gamma": math.nan}, {"gamma": math.inf},
        {"gamma": 0.1, "tol": math.nan}, {"gamma": 0.1, "tol": math.inf},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestDefaultStepSize:
    def test_inside_stability_region(self, demo_scenario):
        gamma = default_step_size(demo_scenario)
        report, _ = run_market(demo_scenario, RunConfig(gamma=gamma))
        assert report.converged

    def test_bound_past_the_float_range_raises(self):
        # beta1 + beta2 overflows to inf with no RuntimeWarning (an error in the tests), and
        # the step 2/inf would be 0
        with pytest.raises(ValueError, match="overflows the float range"):
            default_step_size(single_customer_scenario(beta=1e308))

    def test_subnormal_bound_raises(self):
        # alpha and beta 1e-320: the bound is subnormal and 2 over it is inf, which
        # RunConfig would refuse as a gamma the user never set
        scenario = validate_scenario(SUBNORMAL_BOUND_DOCUMENT)
        with pytest.raises(ValueError, match=r"default step 2/\(min alpha .* --gamma sets a step"):
            default_step_size(scenario)

    @pytest.mark.parametrize("seed", range(20))
    def test_contracts_every_linear_piece(self, seed):
        # on a piece, a step moves a slot's free loads by -gamma*(K x - r), K =
        # diag(m*alpha) + 2 c 1^T; its spectrum is real and inside [lam_lo, lam_hi]
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(1, 30)), int(rng.integers(1, 25))
        alpha = rng.uniform(0.05, 5.0, size=n)
        beta1 = rng.uniform(0.01, 1.0, size=t)
        beta2 = beta1 * rng.uniform(1.0, 30.0, size=t)
        scenario = make_scenario(t, [{"id": i, "w": 50.0, "alpha": float(a), "d_max": 1e3}
                                     for i, a in enumerate(alpha)], b=25.0,
                                 beta1=beta1.tolist(), beta2=beta2.tolist())
        lam_lo = alpha.min()
        lam_hi = 2 * alpha.max() + 2 * (beta1 + beta2).max() * n
        gamma = default_step_size(scenario)
        assert gamma == pytest.approx(2 / (lam_lo + lam_hi), rel=1e-15)
        for slot in range(t):
            free = rng.random((n, 2)) < 0.6  # y free, z' free
            free[~free.any(axis=1), rng.integers(0, 2)] = True
            rows = rng.random(n) < 0.8  # customers with a free block on this piece
            rows[rng.integers(0, n)] = True
            m, c = free.sum(axis=1)[rows], (free @ [beta1[slot], beta2[slot]])[rows]
            k = np.diag(m * alpha[rows]) + 2 * c[:, None]
            lam = np.linalg.eigvals(k)
            assert np.abs(lam.imag).max() <= 1e-9 * lam_hi
            assert lam.real.min() >= lam_lo * (1 - 1e-9)
            assert lam.real.max() <= lam_hi * (1 + 1e-9)
            assert np.abs(1 - gamma * lam.real).max() < 1

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reaches_the_smaller_steps_equilibrium(self, seed):
        # the step 0.5/(max alpha + 2*max beta2*N), about half the stability limit, is
        # the reference; past satiation x is not unique, so only D, prices, welfare.
        # Each agrees to 1e-10 of its scale, welfare to 1e-10 of the larger of utility
        # and cost (the welfare can be their small difference); x to 1e-9 of its scale,
        # as the reference's slower contraction stops it up to about 1.5e-9 off
        scenario = random_scenario(np.random.default_rng(seed))
        reference = 0.5 / (scenario.alpha.max()
                           + 2 * scenario.beta2.max() * scenario.num_customers)
        runs = [run_market(scenario, RunConfig(gamma=gamma, tol=1e-10))[0]
                for gamma in (default_step_size(scenario), reference)]
        assert all(report.converged for report in runs)
        new, old = runs
        for a, b in ((new.allocation.x.sum(axis=0), old.allocation.x.sum(axis=0)),
                     (new.prices.p_l, old.prices.p_l), (new.prices.p_u, old.prices.p_u)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10 * np.abs(b).max())
        # utility + |welfare| is at least the larger of utility and cost
        utility = utility_value(old.allocation.x, scenario.w, scenario.alpha).sum()
        assert abs(new.welfare - old.welfare) <= 1e-10 * (utility + abs(old.welfare))
        if not any((r.allocation.x >= scenario.satiation).any() for r in runs):
            np.testing.assert_allclose(new.allocation.x, old.allocation.x, rtol=0,
                                       atol=1e-9 * np.abs(old.allocation.x).max())


def wide_slack_scenario():
    """N=100, T=24 with a never-binding band: the size of the benchmark's
    report run, about a fifth of x exactly 0 at equilibrium and the rest on
    both sides of b."""
    n, t = 100, 24
    w = np.random.default_rng(1).uniform(10.0, 100.0, size=(n, t))
    return validate_scenario({
        "num_slots": t,
        "customers": [{"id": i, "w": row.tolist(), "alpha": 1.0, "d_min": 0.0,
                       "d_max": 1000.0 * t} for i, row in enumerate(w)],
        "blocks": {"b": 25.0},
        "cost": {"beta1": 0.5 / n, "beta2": 0.6 / n},
    })


def _changes(records):
    """Max-norm allocation and price change of every iterate after the first,
    recomputed from the run's records."""
    return [(float(np.max(np.abs(cur.x - prev.x))),
             max(float(np.max(np.abs(cur.prices.p_l - prev.prices.p_l))),
                 float(np.max(np.abs(cur.prices.p_u - prev.prices.p_u)))))
            for prev, cur in zip(records, records[1:])]


def plain_run(scenario, config):
    """:func:`recorded_run` with the exact finish turned off: each face point it solves has
    a negative cell, so the run can stop only on the movement exit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent_module._StepKernel, "face", lambda self, x: np.full_like(x, -1.0))
        return recorded_run(scenario, config)


def finished_run(scenario, config):
    """``(report, on_face)``: :func:`run_market`, and whether it ended on a point of its
    exact finish, which the run reports as the finish made it."""
    points, face = [], agent_module._StepKernel.face
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent_module._StepKernel, "face",
                      lambda self, x: points.append(face(self, x)) or points[-1])
        report, _ = run_market(scenario, config)
    return report, any(report.allocation.x is point for point in points)


def assert_exact(scenario, config, report):
    """A run that ends on a face is exact: its slot demand is the exact solver's, and the
    run's at a third of the step, to 1e-12 relative, and its certificate is below 1e-12 of
    the price scale max w (no price exceeds it at an equilibrium)."""
    demand = report.allocation.x.sum(axis=0)
    for other in (solve_welfare_centralized(scenario),
                  run_market(scenario, replace(config, gamma=config.gamma / 3))[0]):
        assert other.converged
        np.testing.assert_allclose(other.allocation.x.sum(axis=0), demand, rtol=0,
                                   atol=1e-12 * np.abs(demand).max())
    assert report.worst_kkt_residual < 1e-12 * float(scenario.w.max())


def _certificates(scenario, records):
    return [worst_kkt_residual(scenario, Allocation(rec.x), rec.prices) for rec in records]


class TestStopRule:
    """run_market stops at the first iterate that is either the certified point of a face
    held for one step (the exact finish) or, with the finish off, one whose allocation and
    prices both moved by less than tol and whose certificate is below tol (the movement
    exit)."""

    TOL = 1e-6

    @pytest.fixture(scope="class", params=[(name, stop) for stop in ("finish", "movement")
                                           for name in ("demo", "slack", "one-customer")],
                    ids="-".join)
    def run(self, request):
        # one customer with 2*beta > 1: its price moves by twice its
        # consumption, so prices alone keep the run going near the end
        name, stop = request.param
        scenario, gamma = {
            "demo": lambda: (validate_scenario(cli.demo_scenario_document()), None),
            "slack": lambda: (wide_slack_scenario(), None),
            "one-customer": lambda: (single_customer_scenario(beta=1.0), 0.05),
        }[name]()
        config = RunConfig(gamma=gamma or default_step_size(scenario), tol=self.TOL)
        report, records = (recorded_run if stop == "finish" else plain_run)(scenario, config)
        return stop, scenario, config, report, records

    def test_last_iterate_is_certified(self, run):
        stop, scenario, config, report, records = run
        assert report.converged and len(records) == report.iterations + 1
        assert report.worst_kkt_residual == _certificates(scenario, records)[-1] < self.TOL
        if stop == "movement":
            alloc_change, price_change = _changes(records)[-1]
            assert alloc_change < self.TOL and price_change < self.TOL
        else:
            assert report.iterations < len(reference_market(scenario, config)) - 1
            assert_exact(scenario, config, report)

    def test_earlier_iterates_have_a_change_or_a_certificate_of_at_least_tol(self, run):
        _, scenario, _, _, records = run
        for (alloc_change, price_change), certificate in zip(
                _changes(records)[:-1], _certificates(scenario, records[1:-1])):
            assert max(alloc_change, price_change, certificate) >= self.TOL

    @pytest.mark.parametrize("run", [("demo", "movement"), ("slack", "movement")],
                             indirect=True, ids="-".join)
    def test_movement_alone_does_not_stop_the_run(self, run):
        # the movement rule fires before the certificate falls below tol; the run goes on
        _, scenario, _, _, records = run
        assert any(max(alloc_change, price_change) < self.TOL <= certificate
                   for (alloc_change, price_change), certificate in zip(
                       _changes(records)[:-1], _certificates(scenario, records[1:-1])))

    def test_price_movement_alone_continues_the_run(self):
        scenario = single_customer_scenario(beta=1.0)
        _, records = plain_run(scenario, RunConfig(gamma=0.05, tol=self.TOL))
        assert any(alloc_change < self.TOL <= price_change
                   for alloc_change, price_change in _changes(records)[:-1])


class TestExactFinish:
    """A converged run's certificate is below tol, and a run that finishes on a face is
    exact: on the tests' random scenarios and on the benchmark's markets."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_converged_implies_a_certificate_below_tol(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        config = RunConfig(gamma=default_step_size(scenario))
        report, _ = run_market(scenario, config)
        assert not report.converged or report.worst_kkt_residual < config.tol

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_a_run_that_ends_on_a_face_is_exact(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        config = RunConfig(gamma=default_step_size(scenario))
        report, on_face = finished_run(scenario, config)
        if on_face:
            assert_exact(scenario, config, report)

    @pytest.mark.parametrize("market, most", [("slack", 23), ("cap", 21), ("floor", 21)])
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_bench_markets_finish_exact(self, market, most, seed):
        # at a third fewer iterations than the plain loop's 35 (slack) and 31-33 (bands)
        generate = bench_scenarios()
        for k in range(2):
            doc = (generate.slack_document([seed, k], 250, 24) if market == "slack"
                   else generate.band_document([seed, k], 50, 24, market))
            scenario = validate_scenario(doc)
            config = RunConfig(gamma=default_step_size(scenario))
            report, on_face = finished_run(scenario, config)
            assert on_face and report.converged and report.iterations <= most
            assert_exact(scenario, config, report)


class TestTraceCsv:
    def test_schema_and_round_trip(self, demo_scenario, tmp_path):
        report, trace = run_market(demo_scenario, RunConfig(gamma=0.3))
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
        assert float(last["x"]) == report.allocation.x[cust, int(last["slot"])]

    def test_byte_identical_across_runs(self, demo_scenario, tmp_path):
        _, t1 = run_market(demo_scenario, RunConfig(gamma=0.3))
        _, t2 = run_market(demo_scenario, RunConfig(gamma=0.3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(p1)
        t2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def reference_trace_csv(scenario, config, path):
    """The csv.writer loop ``to_csv`` replaced, kept as the byte reference, over the
    records of :func:`recorded_run`.  Each cell's y and z are derived one at a time from x
    and the scenario's b of its slot."""
    _, records = recorded_run(scenario, config)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_COMMENT + "\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for k, rec in enumerate(records):
            n, t = rec.x.shape
            for slot in range(t):
                b = np.float64(scenario.b[slot])
                for cust in range(n):
                    x = np.float64(rec.x[cust, slot])
                    writer.writerow([
                        k, slot, cust,
                        repr(float(x)),
                        repr(float(np.minimum(x, b))),
                        repr(float(np.maximum(x, b))),
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


def binding_band_scenario(side, n=50, t=24, seed=5):
    """N=50, T=24 with a daily cap (``side="cap"``) or floor (``"floor"``)
    that binds for every customer, consumption on both sides of a per-slot b."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(40.0, 60.0, size=(n, t))
    b = rng.uniform(20.0, 32.0, size=t)
    band = rng.uniform(size=n)
    if side == "cap":
        d_min, d_max = np.zeros(n), (18.0 + 4.0 * band) * t
    else:
        d_min, d_max = (28.0 + 4.0 * band) * t, np.full(n, 1000.0 * t)
    return validate_scenario({
        "num_slots": t,
        "customers": [{"id": i, "w": w[i].tolist(), "alpha": 1.0,
                       "d_min": float(d_min[i]), "d_max": float(d_max[i])}
                      for i in range(n)],
        "blocks": {"b": b.tolist()},
        "cost": {"beta1": 0.5 / n, "beta2": 0.6 / n},
    })


def satiated_floor_scenario():
    """N=3, T=4 with every daily floor at 0.98 of the customer's satiation
    energy sum(w/alpha): over its run, 285 cells sit at or past satiation."""
    w = np.random.default_rng(0).uniform(5.0, 10.0, size=(3, 4))
    return validate_scenario({
        "num_slots": 4,
        "customers": [{"id": i, "w": row.tolist(), "alpha": 1.0,
                       "d_min": 0.98 * float(row.sum()), "d_max": 1000.0}
                      for i, row in enumerate(w)],
        "blocks": {"b": 7.0},
        "cost": {"beta1": 0.01, "beta2": 0.02},
    })


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_close(a, b, scale):
    """Equal to 1e-12 of ``scale``, NaN to NaN: the loop's warm-started projection
    and step_profile's cold sort may round differently."""
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * scale)


def clip_then_project_step(x, prices, gamma, scenario):
    """The step before the lifted projection: y and z' clipped to their block
    bounds, then ``y + z'`` projected onto the daily band.  Written out for
    slack bands only, where that projection only clips at 0."""
    b = scenario.b
    grad = np.where(x < scenario.satiation, scenario.w - scenario.alpha * x, 0.0)
    y = np.minimum(np.minimum(x, b) + gamma * (grad - prices.p_l), b)
    z = np.maximum(np.maximum(x - b, 0.0) + gamma * (grad - prices.p_u), 0.0)
    new_x = np.maximum(y + z, 0.0)
    daily = new_x.sum(axis=1)
    assert np.all((scenario.d_min <= daily) & (daily <= scenario.d_max))
    return new_x


LOOP_SCENARIOS = {
    "demo": lambda: validate_scenario(cli.demo_scenario_document()),
    "straddling": lambda: validate_scenario(straddling_document()),
    "wide-slack": wide_slack_scenario,
    "binding-cap": lambda: binding_band_scenario("cap"),
    "binding-floor": lambda: binding_band_scenario("floor"),
    "satiated-floor": satiated_floor_scenario,
}
BINDING = {"binding-cap", "binding-floor", "satiated-floor"}


class TestLoopMatchesReference:
    """Up to its exact finish, run_market takes the steps that step_profile, block_prices
    and social_welfare take: to the bit on slack bands, where every record is also the
    clip-then-project step's to the bit, and to 1e-12 relative on binding ones.  A run
    that finishes on a face ends exact, before the plain loop stops."""

    @pytest.mark.parametrize("name", LOOP_SCENARIOS)
    def test_every_market_record(self, name):
        scenario = LOOP_SCENARIOS[name]()
        config = RunConfig(gamma=0.3 if name == "demo" else default_step_size(scenario),
                           tol=1e-8, max_iter=400)
        report, records = recorded_run(scenario, config)
        expected = reference_market(scenario, config)
        assert 2 < len(records) <= len(expected)
        if len(records) < len(expected):  # the run finished on a face: its last record is exact
            assert_exact(scenario, config, report)
            expected = expected[:len(records) - 1]
        for k, (rec, (x, p_l, p_u, welfare, change)) in enumerate(zip(records, expected)):
            if name in BINDING:
                scale = max(1.0, float(np.abs(x).max()))
                assert_close(rec.x, x, scale)
                assert_close(rec.max_change, change, scale)
                assert_close(rec.prices.p_l, p_l, float(np.abs(p_l).max()))
                assert_close(rec.prices.p_u, p_u, float(np.abs(p_u).max()))
                assert_close(rec.welfare, welfare, abs(welfare))
                continue
            assert same_bits(rec.x, x)
            assert same_bits(rec.prices.p_l, p_l) and same_bits(rec.prices.p_u, p_u)
            assert same_bits(rec.welfare, welfare) and same_bits(rec.max_change, change)
            if k:
                before = records[k - 1]
                assert same_bits(x, clip_then_project_step(
                    before.x, before.prices, config.gamma, scenario))

    @pytest.mark.parametrize("name", LOOP_SCENARIOS)
    def test_records_price_and_welfare_their_own_x(self, name):
        # the loop's unchecked price kernel, to the bit
        scenario = LOOP_SCENARIOS[name]()
        _, records = recorded_run(scenario, RunConfig(gamma=default_step_size(scenario),
                                                      tol=1e-8, max_iter=400))
        for rec in records:
            expected = block_prices(rec.x.sum(axis=0), scenario.beta1, scenario.beta2)
            assert same_bits(rec.prices.p_l, expected.p_l)
            assert same_bits(rec.prices.p_u, expected.p_u)
            assert same_bits(rec.welfare, social_welfare(Allocation(rec.x), scenario))
        sated = sum(int(np.count_nonzero(rec.x >= scenario.satiation)) for rec in records)
        assert (sated > 0) == (name == "satiated-floor")

    @pytest.mark.parametrize("name", LOOP_SCENARIOS)
    def test_records_own_their_arrays(self, name):
        scenario = LOOP_SCENARIOS[name]()
        _, records = recorded_run(scenario, RunConfig(gamma=default_step_size(scenario),
                                                      max_iter=60))
        arrays = [a for rec in records for a in (rec.x, rec.prices.p_l, rec.prices.p_u)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

class TestOneLoop:
    """run_market and solve_welfare_centralized leave numpy's error state as they
    found it however they end."""

    @pytest.mark.parametrize("solve", [
        lambda s: run_market(s, RunConfig(gamma=0.01, max_iter=5)),  # at max_iter
        lambda s: run_market(s, RunConfig(gamma=0.1)),  # break at convergence
        solve_welfare_centralized,
    ], ids=["market-cap", "market-converged", "oracle"])
    def test_errstate_restored_on_return(self, demo_scenario, solve):
        before = np.geterr()
        solve(demo_scenario)
        assert np.geterr() == before

    @pytest.mark.parametrize("solve", [
        lambda: run_market(validate_scenario(overflow_document()), RunConfig(gamma=1e307)),
        lambda: run_market(scenario := validate_scenario(welfare_overflow_document()),
                           RunConfig(gamma=default_step_size(scenario))),
    ], ids=["market-step", "market-welfare"])
    def test_errstate_restored_on_divergence(self, solve):
        before = np.geterr()
        with pytest.raises(DivergenceError) as err:
            solve()
        assert err.value.iteration == 1
        assert np.geterr() == before


def bench_scenarios():
    """The benchmark's scenario generators, ``bench/scenarios.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _welfare_from_csv(trace, path):
    trace.to_csv(path)
    rows = csv.DictReader(path.read_text().splitlines()[1:])
    return [float(row["welfare"]) for row in rows if row["slot"] == row["customer"] == "0"]


@pytest.fixture
def welfare_calls(monkeypatch):
    """One entry per call of ``market.social_welfare``, from now on."""
    calls, welfare = [], market_module.social_welfare

    def counting(*args, **kwargs):
        calls.append(1)
        return welfare(*args, **kwargs)

    monkeypatch.setattr(market_module, "social_welfare", counting)
    return calls


class TestWelfare:
    """An unobserved run_market computes the stopping iterate's welfare alone; write_trace
    computes every iterate's once and writes it, bit-equal to social_welfare."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_trace_csv_writes_social_welfare(self, trace_dir, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        config = RunConfig(gamma=default_step_size(scenario), max_iter=300)
        report, trace = run_market(scenario, config)
        welfare = _welfare_from_csv(trace, trace_dir / "welfare.csv")
        _, records = recorded_run(scenario, config)
        assert len(welfare) == len(trace) == len(records)
        for value, rec in zip(welfare, records):
            assert same_bits(value, social_welfare(Allocation(rec.x), scenario))
        assert same_bits(report.welfare, welfare[-1])

    def test_run_evaluates_welfare_once(self, welfare_calls):
        scenario = validate_scenario(bench_scenarios().slack_document([1, 0], 100, 24))
        report, trace = run_market(scenario, RunConfig(gamma=default_step_size(scenario)))
        assert report.converged and len(trace) == 18
        assert len(welfare_calls) == 1

    def test_trace_evaluates_welfare_once_an_iterate(self, demo_scenario, tmp_path,
                                                     welfare_calls):
        report, trace = market_module.write_trace(demo_scenario, RunConfig(gamma=0.1),
                                                  tmp_path / "trace.csv")
        assert report.converged and len(trace) == 4
        assert len(welfare_calls) == len(trace)


def assert_reports_iterate(report, rec):
    assert same_bits(report.allocation.x, rec.x)
    assert same_bits(report.prices.p_l, rec.prices.p_l)
    assert same_bits(report.prices.p_u, rec.prices.p_u)
    assert same_bits(report.welfare, rec.welfare)


class TestRecordedRun:
    """run_market holds one iterate at a time; the records its observer keeps are the
    iterates the run produced, to the bit: each is the report of the run stopped there,
    and observing a run does not change it."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_records_match_eager_loop(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        config = RunConfig(gamma=default_step_size(scenario), max_iter=300)
        before = np.geterr()
        report, records = recorded_run(scenario, config)
        assert np.geterr() == before
        assert [rec.k for rec in records] == list(range(report.iterations + 1))
        assert math.isnan(records[0].max_change)
        for rec in records:
            assert same_bits(rec.welfare, social_welfare(Allocation(rec.x), scenario))
        assert_reports_iterate(report, records[-1])
        assert_reports_iterate(run_market(scenario, config)[0], records[-1])
        for k in {1, report.iterations // 2} - {0, report.iterations}:
            assert_reports_iterate(run_market(scenario, replace(config, max_iter=k))[0],
                                   records[k])

    def test_run_holds_constant_iterates(self):
        # the peak of a converged run exceeds a two-iterate run's, which holds the
        # step kernel's fixed buffers, by less than 10 iterates, the exact finish's
        # arrays included; a run that kept its 18 iterates would exceed it by 18
        scenario = validate_scenario(bench_scenarios().slack_document([1, 0], 100, 24))
        gamma = default_step_size(scenario)
        run_market(scenario, RunConfig(gamma=gamma))
        peaks = []
        for max_iter in (2, 50000):
            tracemalloc.start()
            try:
                report, _ = run_market(scenario, RunConfig(gamma=gamma, max_iter=max_iter))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert report.converged and report.iterations == 17
        assert peaks[1] - peaks[0] < 10 * scenario.w.nbytes


class TestOneWriter:
    """``write_trace`` is the one writer of trace.csv, for the CLI and ``to_csv`` alike: it
    makes the file's missing directories; a run that diverges leaves neither the file nor
    those directories, and a scenario changed since its run leaves no file."""

    @pytest.mark.parametrize("writer", ["write_trace", "to_csv"])
    def test_makes_missing_directories(self, writer, demo_scenario, tmp_path):
        config = RunConfig(gamma=0.1)
        _, trace = market_module.write_trace(demo_scenario, config, tmp_path / "trace.csv")
        path = tmp_path / "a" / "b" / "trace.csv"
        if writer == "to_csv":
            trace.to_csv(path)
        else:
            market_module.write_trace(demo_scenario, config, path)
        assert path.read_bytes() == (tmp_path / "trace.csv").read_bytes()

    def test_divergence_removes_the_directories_it_made(self, tmp_path):
        with pytest.raises(DivergenceError) as err:
            market_module.write_trace(validate_scenario(overflow_document()),
                                      RunConfig(gamma=1e307), tmp_path / "a" / "b" / "trace.csv")
        assert err.value.iteration == 1
        assert list(tmp_path.iterdir()) == []

    def test_divergence_leaves_no_file(self, tmp_path):
        before = np.geterr()
        with pytest.raises(DivergenceError) as err:
            market_module.write_trace(validate_scenario(overflow_document()),
                                      RunConfig(gamma=1e307), tmp_path / "trace.csv")
        assert err.value.iteration == 1
        assert np.geterr() == before
        assert list(tmp_path.iterdir()) == []

    def test_changed_scenario_writes_nothing(self, tmp_path):
        scenario = validate_scenario(cli.demo_scenario_document())
        _, trace = run_market(scenario, RunConfig(gamma=0.1))
        scenario.w[0, 0] = 70.0
        with pytest.raises(ValueError, match="scenario changed"):
            trace.to_csv(tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_to_csv_runs_the_market_once(self, demo_scenario, tmp_path, monkeypatch):
        _, trace = run_market(demo_scenario, RunConfig(gamma=0.1))
        solves, kernel = [], market_module._StepKernel

        def counting(*args, **kwargs):
            solves.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(market_module, "_StepKernel", counting)
        trace.to_csv(tmp_path / "trace.csv")
        assert len(solves) == 1

    def test_failed_write_restores_errstate(self, tmp_path):
        scenario = validate_scenario(cli.demo_scenario_document())
        _, trace = run_market(scenario, RunConfig(gamma=0.1))
        before, calls, float_reprs = np.geterr(), [], market_module._float_reprs

        def failing(values):  # once per iterate: fails after iterate 0 is written
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("write failed")
            return float_reprs(values)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(market_module, "_float_reprs", failing)
            with pytest.raises(RuntimeError, match="write failed"):
                trace.to_csv(tmp_path / "failed.csv")
        assert np.geterr() == before


def observed_outcome(scenario, config):
    """``("diverged", k)`` or ``("ended", k)`` of an observed run_market, which computes
    and checks every iterate's welfare."""
    try:
        report, _ = run_market(scenario, config, lambda *iterate: None)
    except DivergenceError as err:
        return "diverged", err.iteration
    return "ended", report.iterations


def one_customer_document(w, alpha, d_max):
    doc = welfare_overflow_document()
    doc["customers"][0].update(w=[w], alpha=alpha, d_max=d_max)
    return doc


def scaled_overflow_document(w_scale, alpha_scale, d_max):
    doc = overflow_document()
    for c in doc["customers"]:
        c.update(w=[v * w_scale for v in np.atleast_1d(c["w"]).tolist()],
                 alpha=c["alpha"] * alpha_scale, d_max=d_max)
    return doc


PARITY_DOCUMENTS = {
    "welfare-overflow": welfare_overflow_document,
    "overflow": overflow_document,
    # within the bound on w*D, but a sated cell's w*w overflows
    "sated-w1e200-alpha1e190": lambda: one_customer_document(1e200, 1e190, 2e10),
    # finite prices 2*beta*D in both slots, a cost beta*D**2 that sums past the range
    "cost-overflow": lambda: {"num_slots": 2, "customers": [
        {"id": 0, "w": 10.0, "alpha": 1.0, "d_min": 20.0, "d_max": 20.0}],
        "blocks": {"b": 25.0}, "cost": {"beta1": 1e306, "beta2": 1e306}},
    # the same past the stopping iterate: slot prices apart move x at the first step,
    # and max w*D and alpha*D**2 alone stay far inside the bound
    "cost-overflow-moving": lambda: {"num_slots": 2, "customers": [
        {"id": 0, "w": 1e148, "alpha": 0.01, "d_min": 2e150, "d_max": 2e150}],
        "blocks": {"b": 25.0}, "cost": {"beta1": [1e10, 1e9], "beta2": [1e10, 1e9]}},
    **{f"one-customer-w{w:g}-alpha{alpha:g}-dmax{d_max:g}": (
        lambda w=w, alpha=alpha, d_max=d_max: one_customer_document(w, alpha, d_max))
       for w in (10.0, 1e100, 1e200) for alpha in (1.0, 1e-50, 1e-100)
       for d_max in (100.0, 1e150, 1e300)},
    **{f"demo-w{w:g}-alpha{alpha:g}-dmax{d_max:g}": (
        lambda w=w, alpha=alpha, d_max=d_max: scaled_overflow_document(w, alpha, d_max))
       for w, alpha in ((1.0, 1.0), (1e100, 1.0), (1e100, 1e-100), (1e150, 1e-100))
       for d_max in (1e3, 1e300)},
}


class TestDivergenceParity:
    """An unobserved run_market diverges at the iterate, and only where, an observed run,
    which checks every iterate's welfare, does, whether or not the welfare bound holds."""

    @pytest.mark.parametrize("gamma", [None, 1e8, 1e307], ids=["default", "1e8", "1e307"])
    @pytest.mark.parametrize("name", PARITY_DOCUMENTS)
    def test_same_outcome_as_eager_check(self, name, gamma):
        scenario = validate_scenario(PARITY_DOCUMENTS[name]())
        config = RunConfig(gamma=gamma or default_step_size(scenario), max_iter=40)
        before = np.geterr()
        expected = observed_outcome(scenario, config)
        assert np.geterr() == before
        try:
            report, _ = run_market(scenario, config)
            outcome = "ended", report.iterations
        except DivergenceError as err:
            outcome = "diverged", err.iteration
        assert np.geterr() == before
        assert outcome == expected

    def test_exact_welfare_when_the_bound_fails(self, welfare_calls):
        # max w >= 1e150 fails the bound, yet x stays at the cap of 100, far below
        # satiation (1e5), so every welfare is finite: each is computed and the run ends
        scenario = validate_scenario(one_customer_document(1e160, 1e155, 100.0))
        config = RunConfig(gamma=default_step_size(scenario))
        before = np.geterr()
        report, _ = run_market(scenario, config)
        assert np.geterr() == before
        assert len(welfare_calls) == report.iterations
        assert report.converged and ("ended", report.iterations) == observed_outcome(
            scenario, config)
        assert math.isfinite(report.welfare)
        assert same_bits(report.welfare, social_welfare(report.allocation, scenario))


def straddle_cap_scenario(b=1.0):
    """20 customers against a daily cap of 30, w ~ U[10, 60]: at b = 1 each has
    slots on both sides of b."""
    w = np.random.default_rng(0).uniform(10.0, 60.0, size=(20, 24))
    return make_scenario(24, [{"id": i, "w": w[i].tolist(), "alpha": 1.0,
                               "d_min": 0.0, "d_max": 30.0} for i in range(20)],
                         b=b, beta1=0.05, beta2=0.08)


class TestStepSizeInvariance:
    """The market's answer does not depend on the step size: its fixed points
    are equilibria at every gamma."""

    def test_straddling_cap(self):
        scenario = straddle_cap_scenario()
        gamma = default_step_size(scenario)
        runs = [run_market(scenario, RunConfig(gamma=g, tol=1e-10))[0]
                for g in (gamma, gamma / 2, gamma / 10)]
        x = runs[0].allocation.x
        assert np.all((x < 1.0).any(axis=1) & (x > 1.0).any(axis=1))
        np.testing.assert_allclose(x.sum(axis=1), 30.0, rtol=1e-12)
        for report in runs:
            assert report.converged
            assert round(report.welfare, 6) == 30440.558258
            assert np.abs(report.allocation.x - x).max() < 5e-8


class TestLargeBlockThreshold:
    """A block threshold ``b`` that dwarfs consumption switches the second block
    off: x is its first block plus its excess ``max(x - b, 0)``, so no rounding
    of ``b`` loses the first block."""

    @pytest.mark.parametrize("b", [1e3, 1e15, 1e17])
    def test_one_customer_reaches_the_same_point(self, b):
        scenario = make_scenario(1, [{"id": 0, "w": 10.0, "alpha": 1.0, "d_max": 5.0}],
                                 b=b, beta1=0.5, beta2=0.6)
        report, _ = run_market(scenario, RunConfig(gamma=0.1, tol=1e-10))
        # the stop rule, a step moving less than tol, leaves the natural-map
        # residual (a unit step's move) below tol/gamma
        assert report.converged and report.worst_kkt_residual < 1e-10 / 0.1
        assert abs(report.allocation.x[0, 0] - 5.0) < 1e-9

    @pytest.mark.parametrize("b", [1e15, 1e17, 1.7e308])
    def test_straddle_cap_certified(self, b):
        scenario = straddle_cap_scenario(b)
        report, _ = run_market(scenario, RunConfig(gamma=default_step_size(scenario)))
        assert report.converged
        assert report.worst_kkt_residual < 1e-6 * scenario.w.max()
        np.testing.assert_allclose(report.allocation.x.sum(axis=1), 30.0, rtol=1e-12)
        assert round(report.welfare, 6) == 30888.723404


class TestTraceCsvGolden:
    def test_run_trace_matches_reference_writer(self, tmp_path):
        scenario = validate_scenario(straddling_document())
        report, trace = run_market(scenario, config := RunConfig(gamma=0.3))
        x, b = report.allocation.x, scenario.b
        assert np.all(np.any(x < b, axis=0)) and np.all(np.any(x > b, axis=0))
        trace.to_csv(tmp_path / "fast.csv")
        reference_trace_csv(scenario, config, tmp_path / "reference.csv")
        data = (tmp_path / "fast.csv").read_bytes()
        assert data == (tmp_path / "reference.csv").read_bytes()
        comment, header, first = data.split(b"\n")[:3]
        assert not comment.endswith(b"\r") and header.endswith(b"\r")
        assert first.startswith(b"0,0,0,") and first.endswith(b",nan\r")

    def test_sweep_traces_match_reference_writer(self, tmp_path):
        scenario_path = tmp_path / "straddle.json"
        scenario_path.write_text(json.dumps(straddling_document()))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", str(scenario_path),
                         "--gammas", "0.1,0.3", "--out", str(out)]) == 0
        scenario = validate_scenario(straddling_document())
        for gamma in (0.1, 0.3):
            reference_trace_csv(scenario, RunConfig(gamma=gamma), tmp_path / "reference.csv")
            assert ((out / f"trace_gamma_{gamma}.csv").read_bytes()
                    == (tmp_path / "reference.csv").read_bytes())

    def test_wide_slack_run_matches_reference_writer(self, tmp_path):
        scenario = wide_slack_scenario()
        report, trace = run_market(scenario, config := RunConfig(gamma=default_step_size(scenario)))
        x = report.allocation.x
        assert report.converged and np.any(x == 0.0) and np.any(x > 25.0)
        trace.to_csv(tmp_path / "fast.csv")
        reference_trace_csv(scenario, config, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("side", ["cap", "floor"])
    def test_binding_band_run_matches_reference_writer(self, side, tmp_path):
        # every customer's daily band binds, and cells sit at b
        scenario = validate_scenario(bench_scenarios().band_document([1, 0], 50, 24, side))
        report, trace = run_market(scenario, config := RunConfig(gamma=default_step_size(scenario)))
        x, bound = report.allocation.x, scenario.d_max if side == "cap" else scenario.d_min
        assert report.converged and np.allclose(x.sum(axis=1), bound)
        assert np.any(x == scenario.b)
        trace.to_csv(tmp_path / "fast.csv")
        reference_trace_csv(scenario, config, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_writer_peak_memory(self, tmp_path):
        # the tracemalloc peak of writing the benchmark's report trace, its run included:
        # 1,262 KB with one repr per distinct bit pattern; pieces joined as bytes, whose
        # join holds a buffer view per piece, reach 2.5 MB
        scenario = validate_scenario(bench_scenarios().slack_document([1, 0], 100, 24))
        _, trace = run_market(scenario, RunConfig(gamma=default_step_size(scenario)))
        tracemalloc.start()
        try:
            trace.to_csv(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


def scenario_document(scenario) -> dict:
    """``scenario`` as a JSON document that validates back to the same arrays."""
    return {"num_slots": scenario.num_slots,
            "customers": [{"id": i, "w": w, "alpha": alpha, "d_min": d_min, "d_max": d_max}
                          for i, w, alpha, d_min, d_max in zip(
                              scenario.ids.tolist(), scenario.w.tolist(),
                              scenario.alpha[:, 0].tolist(), scenario.d_min.tolist(),
                              scenario.d_max.tolist())],
            "blocks": {"b": scenario.b.tolist()},
            "cost": {"beta1": scenario.beta1.tolist(), "beta2": scenario.beta2.tolist()}}


def trace_edges(scenario, records) -> set:
    """The edges of the writer that a run's iterates reach."""
    xs = [rec.x for rec in records]
    daily = xs[-1].sum(axis=1)
    return {name for name, reached in [
        ("cap", np.any(np.abs(daily - scenario.d_max) <= 1e-9)),
        ("floor", np.any((scenario.d_min > 0) & (np.abs(daily - scenario.d_min) <= 1e-9))),
        ("at b", any(np.any(x == scenario.b) for x in xs)),
        ("at 0", any(np.any(x == 0.0) for x in xs)),
        ("N = 1", scenario.num_customers == 1), ("T = 1", scenario.num_slots == 1)] if reached}


class TestStreamedTrace:
    """``brpmarket run`` streams trace.csv from its one market run: the bytes that
    ``to_csv`` writes, and that ``reference_trace_csv`` writes from the run's records."""

    # random_scenario seeds whose runs reach the writer's edges, as the last test checks
    EDGES = {69: {"cap", "at b", "at 0", "N = 1"}, 1: {"floor", "at b", "at 0"},
             132: {"cap", "at b", "at 0", "T = 1"}}

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=69)
    @example(seed=1)
    @example(seed=132)
    def test_run_writes_the_reference_bytes(self, trace_dir, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        document = scenario_document(scenario)
        assert validate_scenario(document).fingerprint() == scenario.fingerprint()
        path, out = trace_dir / "scenario.json", trace_dir / "run"
        path.write_text(json.dumps(document))
        code = cli.main(["run", "--scenario", str(path), "--max-iter", "300", "--out", str(out)])
        config = RunConfig(gamma=default_step_size(scenario), max_iter=300)
        report, trace = run_market(scenario, config)
        assert code == (0 if report.converged else 2)
        trace.to_csv(trace_dir / "to_csv.csv")
        reference_trace_csv(scenario, config, trace_dir / "reference.csv")
        data = (out / "trace.csv").read_bytes()
        assert data == (trace_dir / "to_csv.csv").read_bytes()
        assert data == (trace_dir / "reference.csv").read_bytes()

    @pytest.mark.parametrize("seed", sorted(EDGES))
    def test_examples_reach_their_edges(self, seed):
        scenario = random_scenario(np.random.default_rng(seed))
        _, records = recorded_run(scenario, RunConfig(gamma=default_step_size(scenario),
                                                      max_iter=300))
        assert self.EDGES[seed] <= trace_edges(scenario, records)


class TestTraceCsvEdges:
    """The bytes of two runs, pinned."""

    # sha256 of trace.csv as the csv.writer loop writes it
    DEMO_RUN_SHA256 = "0795e07a6514fb6e615eb9e50091fc53c433f14ea0d15f28fa34043da862f3e8"
    WIDE_SLACK_SHA256 = "380e815b42328367aa57c73c1ff8b221ec129e2333e73672f68efab13d928461"

    def test_demo_run_bytes_pinned(self, tmp_path):
        scenario_path = tmp_path / "demo.json"
        scenario_path.write_text(json.dumps(cli.demo_scenario_document()))
        assert cli.main(["run", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / "out")]) == 0
        data = (tmp_path / "out" / "trace.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.DEMO_RUN_SHA256

    def test_wide_slack_bytes_pinned(self, tmp_path):
        scenario = wide_slack_scenario()
        _, trace = run_market(scenario, RunConfig(gamma=default_step_size(scenario)))
        trace.to_csv(tmp_path / "trace.csv")
        data = (tmp_path / "trace.csv").read_bytes()
        assert len(trace) == 18
        assert hashlib.sha256(data).hexdigest() == self.WIDE_SLACK_SHA256


class TestTraceSplit:
    """trace.csv derives the block split ``y = min(x, b)``, ``z = max(x, b)``
    from each iterate's x and the run's per-slot b."""

    @pytest.mark.parametrize("x,b,expected", [
        (10.0, 25.0, (10.0, 25.0)),
        (30.0, 25.0, (25.0, 30.0)),
        (25.0, 25.0, (25.0, 25.0)),
    ])
    def test_examples(self, x, b, expected):
        texts = writer_cell_texts(np.array([[x]]), np.array([b]))
        assert tuple(map(float, texts[0][0][1:])) == expected

    def test_round_trip_exact(self, tmp_path):
        # exact on this run: each iterate's x is the step's y + z', the band
        # never binds, and no x reaches 2b, so z' = z - b is exact (Sterbenz)
        scenario = validate_scenario(straddling_document())
        _, trace = run_market(scenario, RunConfig(gamma=0.3))
        trace.to_csv(tmp_path / "trace.csv")
        rows = list(csv.DictReader((tmp_path / "trace.csv").read_text().splitlines()[1:]))
        assert len(rows) == len(trace) * 3 * 2
        for row in rows:
            x, y, z = float(row["x"]), float(row["y"]), float(row["z"])
            b = float(scenario.b[int(row["slot"])])
            assert y == min(x, b) and z == max(x, b) and y + (z - b) == x


# Finite float64s that a writer caching one text per bit pattern could mix up: both
# zeros, subnormals, the smallest normal, the largest float, floats with short and with
# long reprs, and the large block thresholds 1e17 and 1.7e308
_FINITE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, 1 / 3, 25.0, -1.5, 1e16, 1e17, 1.7e308]
_finite_floats = st.one_of(st.sampled_from(_FINITE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _cells(draw):
    """``(x, b)``: x of one to four customers by one to three slots, and a per-slot b,
    drawn from a small pool that holds b, so values repeat and x meets b."""
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    b = draw(st.lists(_finite_floats, min_size=t, max_size=t))
    pool = b + draw(st.lists(_finite_floats, min_size=1, max_size=4))
    x = draw(st.lists(st.sampled_from(pool), min_size=n * t, max_size=n * t))
    return np.array(x).reshape(n, t), np.array(b)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trace")


def _nudged(value, ulps):
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


# float64 values weighted toward the kernel's range 1e-4 <= v < 1e16: short decimals,
# powers of two and of ten, and halves and quarters past 2**49 (ties of the digits), each
# nudged by a few ulps; log-uniform values; and any bit pattern
_FLOAT_VALUES = st.one_of(
    st.builds(_nudged, st.one_of(
        st.builds(lambda digits, exp: float(f"{digits}e{exp}"),
                  st.integers(1, 10**9), st.integers(-13, 16)),
        st.builds(math.ldexp, st.just(1.0), st.integers(-15, 55)),
        st.builds(lambda exp: 10.0**exp, st.integers(-5, 17)),
        st.builds(lambda whole, part: whole + part, st.integers(2**49, 2**53),
                  st.sampled_from([0.25, 0.5, 0.75]))), st.integers(-3, 3)),
    st.builds(lambda exp: 10.0**exp, st.floats(-4.0, 16.0)),
    st.builds(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0],
              st.integers(0, 2**64 - 1)))


class TestFloatReprs:
    """The trace's float texts: the array kernel ``market._float_reprs`` must write
    ``repr``'s text, its specification, for every float64."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(_FLOAT_VALUES, min_size=1, max_size=40))
    # ties between the two nearest shortest texts, the range's ends, and values past it
    @example([806294000000000.25, 2e15 + 0.25, 1e-4, 9999999999999998.0, 1e16,
              math.nextafter(1e-4, 0.0), 0.1, 5e-324, -0.0, math.nan, -math.inf])
    def test_matches_repr(self, values):
        assert market_module._float_reprs(np.array(values)).tolist() == list(
            map(repr, values))

    def test_every_power_of_two_in_range(self):
        # a power of two's rounding interval is half as wide below it; the kernel's
        # range 1e-4 <= v < 1e16 holds 67 of them, and each must take the array path
        values = np.ldexp(1.0, np.arange(-13, 54))
        assert values[0] >= 1e-4 > values[0] / 2 and values[-1] < 1e16 <= values[-1] * 2
        assert market_module._shortest_digits(values)[2].all()
        assert market_module._float_reprs(values).tolist() == list(map(repr, values.tolist()))

    # Values 1e-10 to 9e-10 from one of the four bounds that _shortest_digits tests with
    # _MARGIN, found by a search over its own d100, d10, d1 and half_ulp W: d100 = W and
    # d10 = W, an edge of v's rounding interval at a multiple of 100 (W > 5) or of 10 alone
    # (W < 5), and d10 = 5 and d1 = 0.5, a tie between two multiples of 10 or two integers.
    # Each edge value's neighbour one ulp below lies as close to the interval's other edge.
    MARGIN_VALUES = {
        "edge of 100": [0.06251348445079111, 0.0625134844507911, 0.007819623716791761],
        "edge of 10": [1.000019876749212, 1.0000198767492119, 0.00012264061440297991],
        "tie of 10": [1.0000244947093615, 0.00012339035212004945],
        "tie of 1": [1.0000001877485793, 0.00012258603429120662],
    }

    @pytest.mark.parametrize("test", sorted(MARGIN_VALUES))
    def test_values_at_a_margin_are_left_to_repr(self, test, monkeypatch):
        values = np.array(self.MARGIN_VALUES[test])
        assert not market_module._shortest_digits(values)[2].any()
        assert market_module._float_reprs(values).tolist() == list(map(repr, values.tolist()))
        # the margin alone sends them there: without it, each takes the array path
        monkeypatch.setattr(market_module, "_MARGIN", 0.0)
        assert market_module._shortest_digits(values)[2].all()


def writer_cell_texts(x, b):
    """The x, y and z texts of each (slot, customer) cell, as ``market._TraceCsv`` writes
    an iterate of x, (customer, slot), against the per-slot b; every row has ten fields."""
    fh, (n, t) = io.StringIO(), x.shape
    market_module._TraceCsv(fh, b)(7, x, PriceSchedule(p_l=np.ones(t), p_u=np.ones(t)),
                                   math.nan, 0.5)
    rows = [row.split(",") for row in fh.getvalue().split("\r\n")[1:-1]]
    assert [row[:3] + row[6:] for row in rows] == [
        ["7", str(s), str(c), "1.0", "1.0", "0.5", "nan"] for s in range(t) for c in range(n)]
    return [[row[3:6] for row in rows[s * n:(s + 1) * n]] for s in range(t)]


class TestCellTextsProperties:
    """``market._TraceCsv`` writes ``repr`` of each cell's x, ``min(x, b)`` and
    ``max(x, b)``, as ``reference_trace_csv`` derives them one at a time."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_cells())
    # signed zeros against each other, subnormals, x equal to b, and huge thresholds
    @example((np.array([[-0.0, 0.0], [0.0, -0.0]]), np.array([0.0, -0.0])))
    @example((np.array([[5e-324, 1e17], [1.7e308, 1e17]]), np.array([1e17, 1.7e308])))
    def test_matches_repr_of_split(self, cells):
        x, b = cells
        expected = [[[repr(float(v)) for v in (x[c, s], np.minimum(x[c, s], b[s]),
                                              np.maximum(x[c, s], b[s]))]
                     for c in range(x.shape[0])] for s in range(x.shape[1])]
        assert writer_cell_texts(x, b) == expected
