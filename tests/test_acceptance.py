"""End-to-end acceptance checks for the market simulator.

One test per criterion, each printing a single PASS line with the measured
quantities.  Criteria cover: step-size/iteration ordering, the block price
ordering, distributed-vs-centralized agreement, agreement with the exact
welfare optimum, agreement of the two exact methods, equilibrium-condition residuals,
numerical hygiene of the gradient and projection primitives, and a
closed-form spot check.
"""

import time

import numpy as np
import pytest

from brpmarket import (
    RunConfig,
    compare_equilibrium,
    default_step_size,
    project_band,
    run_market,
    solve_welfare_centralized,
    utility_gradient,
    utility_value,
    welfare_optimum,
)
from conftest import make_scenario, random_scenario, single_customer_scenario
from references import recorded_run

BOUNDARY_MARGIN = 0.5  # aggregate-demand distance from bN to count as clean
NUM_RANDOM_SCENARIOS = 20


def _report(criterion: int, detail: str) -> None:
    print(f"CRITERION {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def demo_runs(demo_scenario):
    """Demo-scenario market runs keyed by step size, with the iterates each run produced
    and wall times."""
    runs = {}
    for gamma in (0.01, 0.1, 0.3):
        start = time.perf_counter()
        report, records = recorded_run(demo_scenario, RunConfig(gamma=gamma, tol=1e-6))
        runs[gamma] = (report, records, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def certified_random_cases():
    """Random scenarios with matched distributed and centralized solutions.

    Scenarios whose welfare optimum sits within BOUNDARY_MARGIN of the
    cost-segment boundary D = bN are redrawn: the marginal-cost pricing
    rule is discontinuous there and no clean equilibrium exists.
    """
    rng = np.random.default_rng(2024)
    cases = []
    attempts = 0
    while len(cases) < NUM_RANDOM_SCENARIOS:
        attempts += 1
        assert attempts < 200, "too many boundary-degenerate draws"
        scenario = random_scenario(rng)
        gamma = default_step_size(scenario)
        report, _ = run_market(
            scenario, RunConfig(gamma=gamma, tol=1e-9, max_iter=500000))
        if not report.converged:
            continue
        # before any filter below: a converged run is an equilibrium, whether
        # or not the oracle can certify this draw
        assert report.worst_kkt_residual < 1e-6 * float(scenario.w.max())
        central = solve_welfare_centralized(scenario)
        block_total = scenario.b * scenario.num_customers
        demand = report.allocation.x.sum(axis=0)
        near_boundary = bool(np.any(np.abs(demand - block_total)
                                    < BOUNDARY_MARGIN))
        if (near_boundary or not central.converged
                or compare_equilibrium(scenario, report, central).boundary_degenerate):
            continue
        cases.append((scenario, report, central))
    return cases


def _small_instances():
    """Hand-picked N*T <= 3 scenarios away from the cost-segment boundary."""
    instances = []
    # single customers settling strictly inside the first cost segment
    for w in (20.0, 30.0, 40.0, 44.0):
        instances.append(make_scenario(
            1, [{"id": 0, "w": w, "alpha": 1.0, "d_min": 0, "d_max": 100}],
            b=25, beta1=0.5, beta2=0.7))
    # equal block betas: the threshold is inert and the cost is smooth
    instances.append(make_scenario(
        1,
        [{"id": 0, "w": 40, "alpha": 1.0, "d_min": 0, "d_max": 100},
         {"id": 1, "w": 30, "alpha": 1.0, "d_min": 0, "d_max": 100}],
        b=25, beta1=0.3, beta2=0.3))
    instances.append(make_scenario(
        1,
        [{"id": 0, "w": 40, "alpha": 1.0, "d_min": 0, "d_max": 100},
         {"id": 1, "w": 30, "alpha": 1.0, "d_min": 0, "d_max": 100}],
        b=10, beta1=0.3, beta2=0.3))
    instances.append(make_scenario(
        1,
        [{"id": 0, "w": 25, "alpha": 1.0, "d_min": 0, "d_max": 100},
         {"id": 1, "w": 35, "alpha": 1.0, "d_min": 0, "d_max": 100}],
        b=5, beta1=0.4, beta2=0.4))
    # two slots with a binding daily energy cap
    instances.append(make_scenario(
        2, [{"id": 0, "w": [30, 20], "alpha": 1.0, "d_min": 0, "d_max": 20}],
        b=25, beta1=0.4, beta2=0.4))
    # three small customers
    instances.append(make_scenario(
        1,
        [{"id": 0, "w": 3.0, "alpha": 1.0, "d_min": 0, "d_max": 50},
         {"id": 1, "w": 2.5, "alpha": 1.0, "d_min": 0, "d_max": 50},
         {"id": 2, "w": 2.0, "alpha": 1.0, "d_min": 0, "d_max": 50}],
        b=2, beta1=0.25, beta2=0.25))
    instances.append(make_scenario(
        1,
        [{"id": 0, "w": 3.0, "alpha": 1.0, "d_min": 0, "d_max": 50},
         {"id": 1, "w": 2.5, "alpha": 1.0, "d_min": 0, "d_max": 50},
         {"id": 2, "w": 2.0, "alpha": 1.0, "d_min": 1.2, "d_max": 50}],
        b=2, beta1=0.25, beta2=0.25))
    assert len(instances) == 10
    return instances


def test_criterion_1_iterations_fall_as_step_size_grows(demo_runs):
    iters = {g: demo_runs[g][0].iterations for g in (0.01, 0.1, 0.3)}
    for gamma, (report, _, elapsed) in demo_runs.items():
        assert report.converged, f"gamma={gamma} did not converge"
        assert elapsed < 5.0, f"gamma={gamma} took {elapsed:.2f}s"
    assert iters[0.3] < iters[0.1] < iters[0.01]
    _report(1, f"iterations {iters[0.01]} > {iters[0.1]} > {iters[0.3]} "
               "for step sizes 0.01 < 0.1 < 0.3, each run < 5 s")


def test_criterion_2_second_block_price_ratio(demo_scenario, demo_runs):
    ratio = float(demo_scenario.beta2[0] / demo_scenario.beta1[0])
    worst = 0.0
    checked = 0
    for _, records, _ in demo_runs.values():
        for rec in records:
            demand = rec.x.sum(axis=0)
            positive = demand > 0
            if not np.any(positive):
                continue
            assert np.all(rec.prices.p_u[positive] > rec.prices.p_l[positive])
            err = np.abs(rec.prices.p_u[positive] / rec.prices.p_l[positive]
                         - ratio)
            worst = max(worst, float(np.max(err)))
            checked += int(np.count_nonzero(positive))
    assert worst <= 1e-12
    _report(2, f"p_u > p_l and |p_u/p_l - beta2/beta1| <= {worst:.2e} "
               f"across {checked} priced iterate-slots")


def test_criterion_3_distributed_matches_centralized(demo_scenario,
                                                     certified_random_cases):
    report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-9))
    central = solve_welfare_centralized(demo_scenario)
    comparisons = [compare_equilibrium(demo_scenario, report, central)]
    for scenario, dist, cent in certified_random_cases:
        comparisons.append(compare_equilibrium(scenario, dist, cent))
    worst_alloc = max(c.allocation_gap for c in comparisons)
    worst_welf = max(c.welfare_gap for c in comparisons)
    assert all(c.passed for c in comparisons)
    assert worst_alloc < 1e-3 and worst_welf < 1e-4
    # the centralized oracle shares no code with the market's step; the market's
    # own certificate is checked too, as a step whose fixed point is no
    # equilibrium would fail both
    for scenario, dist, _ in certified_random_cases:
        assert dist.worst_kkt_residual < 1e-6 * float(scenario.w.max())
    _report(3, f"allocation gap <= {worst_alloc:.2e} (< 1e-3), welfare gap "
               f"<= {worst_welf:.2e} (< 1e-4) on demo + "
               f"{len(certified_random_cases)} random scenarios")


def test_criterion_4_centralized_matches_welfare_optimum():
    worst_alloc = worst_welf = 0.0
    for scenario in _small_instances():
        central = solve_welfare_centralized(scenario)
        assert central.converged
        optimum = welfare_optimum(scenario)
        assert not compare_equilibrium(scenario, central, optimum).boundary_degenerate
        gap = float(np.max(np.abs(central.allocation.x - optimum.allocation.x)))
        assert gap <= 1e-6, f"gap {gap} on {scenario.fingerprint()}"
        assert central.welfare == pytest.approx(optimum.welfare, rel=1e-12, abs=0.0)
        worst_alloc = max(worst_alloc, gap)
        worst_welf = max(worst_welf, abs(central.welfare - optimum.welfare))
    _report(4, f"centralized vs exact welfare optimum: allocation gap <= "
               f"{worst_alloc:.2e} (<= 1e-6), welfare gap <= {worst_welf:.2e} on 10 "
               "small instances")


def test_criterion_5_exact_methods_agree():
    # with beta1 = beta2 the equilibrium is efficient, so the slot-demand solver and
    # the welfare optimum's KKT enumeration, which share no code, find the same D
    worst_demand = worst_welf = 0.0
    smooth = [s for s in _small_instances()
              if np.all(s.beta1 == s.beta2)]
    for scenario in smooth:
        central = solve_welfare_centralized(scenario)
        optimum = welfare_optimum(scenario)
        demand = optimum.allocation.x.sum(axis=0)
        gap = float(np.max(np.abs(central.allocation.x.sum(axis=0) - demand)))
        assert central.converged and gap <= 1e-12 * float(demand.max())
        assert central.welfare == pytest.approx(optimum.welfare, rel=1e-12, abs=0.0)
        worst_demand = max(worst_demand, gap / float(demand.max()))
        worst_welf = max(worst_welf, abs(central.welfare / optimum.welfare - 1.0))
    _report(5, f"slot-demand solver vs exact welfare optimum at beta1 = beta2: relative "
               f"demand gap <= {worst_demand:.2e}, welfare gap <= {worst_welf:.2e} (<= 1e-12) "
               f"on {len(smooth)} instances")


def test_criterion_6_equilibrium_residuals(demo_scenario, certified_random_cases):
    # demo equilibrium at a tight tolerance plus every certified random case
    demo_report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-9))
    residuals = [demo_report.worst_kkt_residual]
    for _, dist, cent in certified_random_cases:
        residuals.append(dist.worst_kkt_residual)
        residuals.append(cent.worst_kkt_residual)
    worst = max(residuals)
    assert worst < 1e-5, f"worst residual {worst}"
    _report(6, f"worst equilibrium residual {worst:.2e} (< 1e-5) across "
               f"{len(residuals)} reported equilibria")


def test_criterion_7_gradient_and_projection_hygiene():
    rng = np.random.default_rng(99)
    h = 1e-3
    worst_rel = 0.0
    checked = 0
    while checked < 1000:
        w = float(rng.uniform(5.0, 100.0))
        alpha = float(rng.uniform(0.5, 3.0))
        sat = w / alpha
        x = float(rng.uniform(0.0, 1.5 * sat))
        if abs(x - sat) < 5e-3 or x < h:
            continue
        fd = (utility_value(x + h, w, alpha) - utility_value(x - h, w, alpha)) \
            / (2.0 * h)
        grad = float(utility_gradient(x, w, alpha))
        rel = abs(fd - grad) / max(1.0, abs(grad))
        worst_rel = max(worst_rel, rel)
        checked += 1
    assert worst_rel < 1e-6

    worst_idem = 0.0
    worst_vi = -np.inf
    for _ in range(1000):
        t = int(rng.integers(1, 5))
        raw = rng.uniform(-20.0, 40.0, size=t)
        lo = float(rng.uniform(0.0, 10.0)) * t
        hi = lo + float(rng.uniform(0.0, 30.0)) * t
        p = project_band(raw[None, :], lo, hi)[0]
        again = project_band(p[None, :], lo, hi)[0]
        worst_idem = max(worst_idem, float(np.max(np.abs(again - p))))
        q = project_band(rng.uniform(-20.0, 40.0, size=(1, t)), lo, hi)[0]
        worst_vi = max(worst_vi, float(np.dot(raw - p, q - p)))
    assert worst_idem < 1e-9
    assert worst_vi < 1e-7
    _report(7, f"gradient rel. error <= {worst_rel:.2e} (< 1e-6) at 1000 "
               f"points; projection idempotence <= {worst_idem:.2e}, "
               f"variational inequality <= {worst_vi:.2e} on 1000 inputs")


def test_criterion_8_closed_form_spot_check():
    scenario = single_customer_scenario(w=40.0, alpha=1.0, beta=1.0)
    report, _ = run_market(scenario, RunConfig(gamma=0.05, tol=1e-10))
    assert report.converged
    x_star = float(report.allocation.x[0, 0])
    p_l = float(report.prices.p_l[0])
    assert x_star == pytest.approx(40.0 / 3.0, abs=1e-4)
    assert p_l == pytest.approx(26.6667, abs=1e-3)
    optimum = welfare_optimum(scenario)
    assert float(optimum.allocation.x[0, 0]) == pytest.approx(40.0 / 3.0, rel=1e-14)
    assert abs(float(optimum.allocation.x[0, 0]) - x_star) < 1e-6
    _report(8, f"x* = {x_star:.6f} (40/3 +- 1e-4), p_l = {p_l:.5f} "
               "(26.6667 +- 1e-3), exact welfare optimum agrees within 1e-6")
