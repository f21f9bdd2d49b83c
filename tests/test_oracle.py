import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brpmarket import (
    CostParams,
    RunConfig,
    block_prices,
    compare_equilibrium,
    cost_value,
    default_step_size,
    run_market,
    solve_welfare_centralized,
    utility_gradient,
    utility_value,
    validate_scenario,
    welfare_optimum,
)
from brpmarket import oracle
from brpmarket.cli import demo_scenario_document, main
from conftest import make_scenario, random_scenario, single_customer_scenario
from references import reference_welfare_optimum
from test_market import LOOP_SCENARIOS, bench_scenarios, straddle_cap_scenario


def leaky_start_document():
    """A valid one-cell scenario whose oracle start point overflows: beta 1e300 against
    1/alpha = 1e10."""
    return {"num_slots": 1, "customers": [{"id": 0, "w": 1e-300, "alpha": 1e-10,
                                           "d_min": 0.0, "d_max": 1.0}],
            "blocks": {"b": 1e-300}, "cost": {"beta1": 1e300, "beta2": 1e300}}


# a valid document whose centralized answer misses a daily band: a cell sated at 1.8e216
# against a band of 0.0038, with a NaN welfare
SATED_BAND_DOCUMENT = {"num_slots": 1, "customers": [
    {"id": 0, "w": [3.757451077176146e+132], "alpha": 2.061386113681037e-84,
     "d_min": 0.003843126316573706, "d_max": 0.003843126316573706},
    {"id": 1, "w": [2.0576306131394956e+272], "alpha": 0.0018161593959060808,
     "d_min": 0.0, "d_max": 0.0}],
    "blocks": {"b": 4.931420384868967e-133},
    "cost": {"beta1": 0.03980239823311917, "beta2": 0.03980239823311917}}
# a daily band of 4.8e-57 against cells of 0.018: the centralized answer x = 0 meets it up
# to the cells' rounding, but no KKT solution of welfare_optimum lies in its piece
TINY_BAND_DOCUMENT = {"num_slots": 2, "customers": [
    {"id": 0, "w": [0.00010266701928604815, 1.4870923614019635e-41],
     "alpha": 0.00576272454226331, "d_min": 4.789422554372975e-57,
     "d_max": 4.789422554372975e-57}],
    "blocks": {"b": 1.5601244071247415e+148},
    "cost": {"beta1": 1.2502122634151467e-05, "beta2": 125021.22634151467}}
# valid documents whose stacked KKT solves in welfare_optimum divide by zero
SINGULAR_SOLVE_DOCUMENTS = {
    "zero-band": {"num_slots": 2, "customers": [
        {"id": 0, "w": [1.0520864589657167e+115, 8.619127767372706],
         "alpha": 8.516086130746756e+289, "d_min": 0.0, "d_max": 0.0}],
        "blocks": {"b": 57958.8831696738},
        "cost": {"beta1": 4.4167385827403e-286, "beta2": 4.4167385827402996e-276}},
    "tiny-b": {"num_slots": 1, "customers": [
        {"id": 0, "w": [36556.24677570517], "alpha": 0.00011139848927106689, "d_min": 0.0,
         "d_max": 2070.9549280654437},
        {"id": 1, "w": [0.0009994060387842059], "alpha": 3.4058807787041803e-106,
         "d_min": 0.0, "d_max": 9.315494447195465e+188}],
        "blocks": {"b": 1.5776169925225597e-97},
        "cost": {"beta1": 1.0650979968016252, "beta2": 1.0650979968016252}},
}


def past_satiation_scenario():
    """Two customers whose floor of 110 lies past the satiation (10) of slots 0 and 1:
    each ties those two slots at an effective price of 0, so only D is unique."""
    return make_scenario(3, [{"id": i, "w": [10, 10, 100], "alpha": 1, "d_min": 110,
                              "d_max": 1000} for i in range(2)], b=1000, beta1=1, beta2=1)


def certified_scenarios():
    bench = bench_scenarios()
    cases = {"demo": lambda: validate_scenario(demo_scenario_document())}
    for k in range(3):
        cases[f"slack-{k}"] = lambda k=k: validate_scenario(bench.slack_document([1, k], 100, 24))
    for side in ("cap", "floor"):
        cases[f"band-{side}"] = lambda side=side: validate_scenario(
            bench.band_document([1, 0], 50, 24, side))
    for b in (1.0, 1e17):
        cases[f"straddle-cap-b{b:g}"] = lambda b=b: straddle_cap_scenario(b)  # CI's
    # the market loop's reference scenarios: slack, straddling bN, binding, satiated floors
    cases.update((f"loop-{name}", LOOP_SCENARIOS[name]) for name in LOOP_SCENARIOS
                 if name != "demo")
    # satiation 1.4e8 times a fixed daily energy: the rows meet their bands only up to
    # the rounding of (w - p)/alpha, 1.4e-11 here, 4e-9 of the band
    cases["rounded-bands"] = lambda: make_scenario(4, [
        {"id": 0, "w": [906.6242239217812, 2971.290502841627, 3229.0952465930686,
                        2435.821197263017], "alpha": 8.279159394670351,
         "d_min": 0.001761331668073649, "d_max": 0.001761331668073649},
        {"id": 1, "w": [3286.9267723942253, 2977.9848645855272, 870.8912749634748,
                        3085.658754678806], "alpha": 0.013625181657841056,
         "d_min": 0.003522663336147298, "d_max": 0.003522663336147298}],
        b=23.874411690960788, beta1=0.001, beta2=0.002)
    return cases


CERTIFIED = certified_scenarios()


@pytest.fixture
def newton_steps(monkeypatch):
    """The Newton steps taken in this test: one Jacobian per step."""
    steps = []
    jacobian = oracle._jacobian

    def counted(*args):
        steps.append(1)
        return jacobian(*args)

    monkeypatch.setattr(oracle, "_jacobian", counted)
    return steps


def market_equilibrium(scenario):
    return run_market(scenario, RunConfig(default_step_size(scenario), tol=1e-10,
                                          max_iter=500000))[0]


class TestCentralizedSolver:
    def test_closed_form_single_customer(self):
        scenario = single_customer_scenario()  # w=40, alpha=1, beta=1
        sol = solve_welfare_centralized(scenario)
        assert sol.converged
        assert sol.method == "slot-demand-newton"
        assert sol.allocation.x[0, 0] == pytest.approx(40.0 / 3.0, rel=1e-15)
        assert sol.welfare == pytest.approx(2400.0 / 9.0, rel=1e-14)
        optimum = welfare_optimum(scenario)
        assert abs(optimum.allocation.x[0, 0] - sol.allocation.x[0, 0]) < 1e-12

    def test_symmetric_second_block_equilibrium(self):
        # d_min = 27 keeps the feasible set inside the second cost segment,
        # so the welfare argmax cannot jump to the segment boundary
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 27, "d_max": 1000},
             {"id": 1, "w": 100, "alpha": 1.0, "d_min": 27, "d_max": 1000}],
            b=25, beta1=0.5, beta2=0.6)
        sol = solve_welfare_centralized(scenario)
        assert sol.converged
        x = sol.allocation.x.ravel()
        assert x[0] == pytest.approx(100.0 / 3.4, rel=1e-14)
        assert x[1] == pytest.approx(100.0 / 3.4, rel=1e-14)
        demand = float(x.sum())
        assert demand == pytest.approx(200.0 / 3.4, rel=1e-14)
        # marginal utility equals the second-block marginal cost
        grad = utility_gradient(x[0], 100.0, 1.0)
        assert grad == pytest.approx(2 * 0.6 * demand, rel=1e-14)
        optimum = welfare_optimum(scenario)
        assert np.max(np.abs(optimum.allocation.x - sol.allocation.x)) < 1e-12

    def test_forced_demand_prices_out_small_customer(self):
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 40, "d_max": 40},
             {"id": 1, "w": 5, "alpha": 1.0, "d_min": 0, "d_max": 100}],
            b=60, beta1=0.5, beta2=0.6)
        sol = solve_welfare_centralized(scenario)
        assert sol.converged
        assert sol.allocation.x.tolist() == [[40.0], [0.0]]

    def test_boundary_degenerate_flagged(self):
        # aggregate demand pinned exactly at bN by a forced daily band
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 80, "alpha": 1.0, "d_min": 50, "d_max": 50}],
            b=50, beta1=0.5, beta2=0.6)
        sol = solve_welfare_centralized(scenario)
        assert sol.converged and sol.boundary_degenerate

    @pytest.mark.parametrize("name", CERTIFIED)
    def test_certified_in_few_newton_steps(self, name, newton_steps):
        scenario = CERTIFIED[name]()
        before = np.geterr()
        sol = solve_welfare_centralized(scenario)
        assert np.geterr() == before
        assert sol.converged and len(newton_steps) <= 10
        assert sol.stationarity_residual <= 1e-12 * float(scenario.w.max())
        report = market_equilibrium(scenario)
        demand = report.allocation.x.sum(axis=0)
        assert np.max(np.abs(sol.allocation.x.sum(axis=0) - demand)) <= 1e-8 * demand.max()
        # the market stops at tol 1e-10; the oracle's welfare is the exact one's
        assert compare_equilibrium(report, sol).welfare_gap <= 1e-6

    def test_steep_prices_certified_at_own_demand(self, tmp_path):
        # beta 1e12: x sums to 2.7e-4 below D by cancellation, and the prices of x.sum(0)
        # would read a KKT residual of 5.3e-3; the step-size stop ends this solve
        doc = {"num_slots": 2, "blocks": {"b": 5}, "cost": {"beta1": 1e12, "beta2": 2e12},
               "customers": [{"id": i, "w": [10, 20], "alpha": 1, "d_max": 100}
                             for i in range(3)]}
        sol = solve_welfare_centralized(validate_scenario(doc))
        assert sol.converged and sol.stationarity_residual <= 1e-12 * 20
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--scenario", str(path)]) == 0

    def test_band_miss_is_not_converged(self):
        scenario = validate_scenario(SATED_BAND_DOCUMENT)
        before = np.geterr()
        sol = solve_welfare_centralized(scenario)
        assert np.geterr() == before
        rows = sol.allocation.x.sum(axis=1)
        assert not np.all((rows >= scenario.d_min) & (rows <= scenario.d_max))
        assert not sol.converged

    def test_unsettled_solve_is_not_converged(self, demo_scenario, monkeypatch):
        # no fallback: an answer the Newton steps did not settle is reported as such
        monkeypatch.setattr(oracle, "_NEWTON_STEPS", 0)
        before = np.geterr()
        sol = solve_welfare_centralized(demo_scenario)
        assert np.geterr() == before
        assert not sol.converged and sol.method == "slot-demand-newton"

    @pytest.mark.parametrize("knob", [{"gamma": 0.1}, {"tol": 1e-6}, {"max_iter": 5},
                                      {"x0": np.zeros((2, 1))}],
                             ids=["gamma", "tol", "max_iter", "x0"])
    def test_takes_no_step_tolerance_cap_or_start(self, demo_scenario, knob):
        with pytest.raises(TypeError):
            solve_welfare_centralized(demo_scenario, **knob)

    def test_band_up_to_the_largest_float(self):
        # a daily cap of 1e308 leaves the answer unclipped; there is no step to overflow
        before = np.geterr()
        sol = solve_welfare_centralized(single_customer_scenario(d_max=1e308))
        assert np.geterr() == before
        assert sol.converged
        assert sol.allocation.x[0, 0] == pytest.approx(40.0 / 3.0, rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_point_overflow_does_not_warn(self):
        # 1 + 2*beta1*sum(1/alpha) overflows in the start point, inside the errstate
        scenario = validate_scenario(leaky_start_document())
        before = np.geterr()
        solve_welfare_centralized(scenario)
        assert np.geterr() == before

    def test_past_satiation_only_demand_is_unique(self):
        # each customer ties slots 0 and 1 past satiation at an effective price of
        # 0: x may differ from the market's, D, prices and welfare may not
        scenario = past_satiation_scenario()
        sol = solve_welfare_centralized(scenario)
        report = market_equilibrium(scenario)
        assert sol.converged and report.converged
        demand = sol.allocation.x.sum(axis=0)
        np.testing.assert_allclose(demand, [450.0 / 7.0, 450.0 / 7.0, 640.0 / 7.0], rtol=1e-14)
        np.testing.assert_allclose(demand, report.allocation.x.sum(axis=0), rtol=1e-12)
        prices = block_prices(demand, scenario.cost)
        np.testing.assert_allclose(prices.p_l, report.prices.p_l, rtol=1e-12)
        np.testing.assert_allclose(prices.p_u, report.prices.p_u, rtol=1e-12)
        assert sol.welfare == pytest.approx(report.welfare, rel=1e-12)
        assert sol.welfare == pytest.approx(-65600.0 / 7.0, rel=1e-14)
        assert sol.stationarity_residual <= 1e-12 * float(scenario.w.max())
        assert np.all(sol.allocation.x.sum(axis=1) >= 110.0 - 1e-12)

    def test_scale_free_stop(self):
        # the certificate is not scale-free here (it reads about x = 1e10), the
        # solver's stop test, relative to max D, is
        scenario = single_customer_scenario(w=1e160, alpha=1e150, d_max=1e12, b=1e9,
                                            beta=1e140)
        sol = solve_welfare_centralized(scenario)
        report = market_equilibrium(scenario)
        assert sol.converged
        assert sol.allocation.x[0, 0] == pytest.approx(1e160 / (1e150 + 2e140), rel=1e-15)
        assert sol.allocation.x[0, 0] == pytest.approx(report.allocation.x[0, 0], rel=1e-12)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1).map(lambda seed: (seed, 0)))
    # draws 122 and 176 of seed 5: floors past satiation, a row tying two slots
    @example((5, 122))
    @example((5, 176))
    def test_agrees_with_the_market(self, draw):
        # the market at tol 1e-10 and the exact solver find the same D and welfare;
        # a draw is the scenario after `skip` others from its seed's generator
        seed, skip = draw
        rng = np.random.default_rng(seed)
        for _ in range(skip + 1):
            scenario = random_scenario(rng)
        sol = solve_welfare_centralized(scenario)
        report = market_equilibrium(scenario)
        assert sol.converged and report.converged
        demand = report.allocation.x.sum(axis=0)
        gap = np.max(np.abs(sol.allocation.x.sum(axis=0) - demand))
        assert gap <= 1e-8 * max(1.0, float(demand.max()))
        assert sol.welfare == pytest.approx(report.welfare, rel=1e-8)


class TestWelfareOptimum:
    def test_degenerate_band_singleton(self):
        scenario = single_customer_scenario(d_min=7.0, d_max=7.0)
        sol = welfare_optimum(scenario)
        assert sol.allocation.x[0, 0] == pytest.approx(7.0, rel=1e-15)
        assert sol.method == "piecewise-exact" and sol.converged

    @pytest.mark.parametrize("name", SINGULAR_SOLVE_DOCUMENTS)
    def test_singular_solves_do_not_warn(self, name):
        # RuntimeWarnings are errors here; a singular system's NaN solution is not kept
        scenario = validate_scenario(SINGULAR_SOLVE_DOCUMENTS[name])
        sol = welfare_optimum(scenario)
        rows = sol.allocation.x.sum(axis=1)
        assert np.isfinite(sol.welfare)
        assert np.all((rows >= scenario.d_min) & (rows <= scenario.d_max))

    def test_no_solution_in_its_piece_raises(self):
        with pytest.raises(ValueError, match="no KKT solution"):
            welfare_optimum(validate_scenario(TINY_BAND_DOCUMENT))

    def test_equal_betas_make_blocks_inert(self):
        from brpmarket import block_prices
        scenario = single_customer_scenario(beta=1.0)
        sol = welfare_optimum(scenario)
        prices = block_prices(sol.allocation.x.sum(axis=0), scenario.cost)
        assert prices.p_l[0] == pytest.approx(prices.p_u[0])

    def test_too_many_variables_rejected(self):
        scenario = make_scenario(
            2,
            [{"id": 0, "w": 40, "alpha": 1.0, "d_min": 0, "d_max": 100},
             {"id": 1, "w": 40, "alpha": 1.0, "d_min": 0, "d_max": 100}],
            b=25, beta1=0.5, beta2=0.6)
        with pytest.raises(ValueError, match="N\\*T"):
            welfare_optimum(scenario)

    def test_is_upper_bound_for_distributed_welfare(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        assert report.welfare <= welfare_optimum(demo_scenario).welfare

    def test_demo_optimum_and_efficiency_gap(self, demo_scenario):
        # with beta2 > beta1 and mixed blocks, the welfare maximizer sits
        # exactly at the aggregate segment boundary D = bN = 50, where the
        # market's marginal-cost prices jump; the market stops short of it
        optimum = welfare_optimum(demo_scenario)
        assert optimum.allocation.x.tolist() == [[10.0], [40.0]]
        assert optimum.welfare == 2100.0
        assert optimum.boundary_degenerate is True
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        assert optimum.welfare - report.welfare == pytest.approx(29.296875, abs=1e-7)

    def test_off_boundary_optimum_and_efficiency_gap(self):
        # w = (10, 90): the optimum (0, 45) lies below bN, and the market's
        # equilibrium misses it by 2025/121
        scenario = make_scenario(1, [{"id": 0, "w": 10.0, "alpha": 1.0, "d_max": 1000.0},
                                     {"id": 1, "w": 90.0, "alpha": 1.0, "d_max": 1000.0}],
                                 b=25.0, beta1=0.5, beta2=0.6)
        optimum = welfare_optimum(scenario)
        assert optimum.allocation.x.tolist() == [[0.0], [45.0]]
        assert optimum.welfare == 2025.0
        assert optimum.boundary_degenerate is False
        report, _ = run_market(scenario, RunConfig(gamma=0.1, tol=1e-10))
        assert optimum.welfare - report.welfare == pytest.approx(2025.0 / 121.0, abs=1e-7)

    def test_floor_past_satiation(self):
        # d_min = d_max = 19 against satiation 10 per slot: slot 0's cheap
        # cost makes consuming past satiation there optimal, which no search
        # over [0, w/alpha] can find
        scenario = make_scenario(2, [{"id": 0, "w": [10.0, 10.0], "alpha": 1.0,
                                      "d_min": 19.0, "d_max": 19.0}],
                                 b=1000.0, beta1=[0.01, 1.0], beta2=[0.01, 1.0])
        optimum = welfare_optimum(scenario)
        x1 = 10.38 / 3.02  # 10 - 3*x1 + 0.02*(19 - x1) = 0
        np.testing.assert_allclose(optimum.allocation.x, [[19.0 - x1, x1]], rtol=1e-12)
        assert optimum.welfare == pytest.approx(
            50.0 + 10.0 * x1 - 1.5 * x1 ** 2 - 0.01 * (19.0 - x1) ** 2, rel=1e-12)
        assert naive_grid(scenario, 1.0)[0] < optimum.welfare - 40.0
        report, _ = run_market(scenario, RunConfig(default_step_size(scenario), tol=1e-10))
        assert report.welfare == pytest.approx(optimum.welfare, rel=1e-12)

    def test_scored_by_its_piece_not_social_welfare(self):
        # The optimum puts demand on bN = 62.18, and every KKT solution there
        # rounds D a hair past it (+7.1e-15 here): social_welfare charges such a
        # point beta2 and falls 544 short, so scored so, or dropped by a
        # feasibility test with no rounding margin, the optimum would lose to a
        # worse point.  Its piece, D <= bN, charges beta1.
        scenario = make_scenario(1, [{"id": 0, "w": 74.64, "alpha": 1.87, "d_max": 1000.0},
                                     {"id": 1, "w": 90.84, "alpha": 1.4, "d_max": 1000.0}],
                                 b=31.09, beta1=0.25, beta2=0.75)
        optimum = welfare_optimum(scenario)
        demand = 62.18
        x0 = (74.64 - 90.84 + 1.4 * demand) / (1.87 + 1.4)  # equal marginal utilities
        x1 = demand - x0
        np.testing.assert_allclose(optimum.allocation.x, [[x0], [x1]], rtol=1e-12)
        assert optimum.welfare == pytest.approx(
            74.64 * x0 - 0.935 * x0 ** 2 + 90.84 * x1 - 0.7 * x1 ** 2 - 0.25 * demand ** 2,
            rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w, alpha", [(1e155, 1.0), (1e160, 1e150)])
    def test_cap_far_below_satiation(self, w, alpha):
        # the cap's multiplier, about w, dwarfs x = 1, which a plain solve of
        # the KKT system loses to cancellation; and w**2 overflows although
        # the flat utility w*w/(2*alpha) of (1e160, 1e150) does not
        optimum = welfare_optimum(single_customer_scenario(w=w, alpha=alpha, d_max=1.0))
        assert optimum.allocation.x.tolist() == [[1.0]]
        assert optimum.welfare == pytest.approx(w - alpha / 2 - 1.0, rel=1e-15)

    @pytest.mark.parametrize("energy", [1e-100, 1e-20, 1.0, 1e20, 1e100])
    @pytest.mark.parametrize("value", [1e-50, 1.0, 1e50])
    def test_scale_free(self, energy, value):
        # x in units of `energy` and welfare in units of `energy * value`: the
        # same optimum, so no threshold on the data's scale decides a system
        x1 = 10.38 / 3.02
        scenario = make_scenario(
            2, [{"id": 0, "w": [10.0 * value] * 2, "alpha": value / energy,
                 "d_min": 19.0 * energy, "d_max": 19.0 * energy}],
            b=1000.0 * energy, beta1=[0.01 * value / energy, value / energy],
            beta2=[0.01 * value / energy, value / energy])
        optimum = welfare_optimum(scenario)
        np.testing.assert_allclose(optimum.allocation.x / energy, [[19.0 - x1, x1]],
                                   rtol=1e-12)
        assert optimum.welfare / (energy * value) == pytest.approx(
            50.0 + 10.0 * x1 - 1.5 * x1 ** 2 - 0.01 * (19.0 - x1) ** 2, rel=1e-12)


# Smooth instances (beta1 = beta2): a general constrained solver finds the
# same maximum.  A binding cap, a binding floor, three customers.
SMOOTH_INSTANCES = [
    make_scenario(1, [{"id": 0, "w": 40, "alpha": 1.0, "d_max": 100},
                      {"id": 1, "w": 30, "alpha": 0.5, "d_max": 100}],
                  b=25, beta1=0.3, beta2=0.3),
    make_scenario(2, [{"id": 0, "w": [30, 20], "alpha": 1.0, "d_min": 0, "d_max": 20}],
                  b=25, beta1=0.4, beta2=0.4),
    make_scenario(3, [{"id": 0, "w": [3.0, 2.5, 2.0], "alpha": 2.0, "d_min": 3.0,
                       "d_max": 50}],
                  b=1.0, beta1=[0.25, 0.5, 0.1], beta2=[0.25, 0.5, 0.1]),
    make_scenario(1, [{"id": 0, "w": 3.0, "alpha": 1.0, "d_max": 50},
                      {"id": 1, "w": 2.5, "alpha": 1.5, "d_max": 50},
                      {"id": 2, "w": 2.0, "alpha": 1.0, "d_min": 1.2, "d_max": 50}],
                  b=2, beta1=0.25, beta2=0.25),
]


@pytest.mark.parametrize("scenario", SMOOTH_INSTANCES)
def test_matches_scipy_on_smooth_instances(scenario):
    optimize = pytest.importorskip("scipy.optimize")
    n, t = scenario.num_customers, scenario.num_slots
    daily = np.repeat(np.eye(n), t, axis=1)

    def negative_welfare(v):
        x = np.maximum(v, 0.0).reshape(n, t)
        demand = x.sum(axis=0)
        return -(np.sum(utility_value(x, scenario.w, scenario.alpha))
                 - np.sum(scenario.cost.beta1 * demand ** 2))

    start = np.repeat(np.maximum(scenario.d_min, 1.0) / t, t)
    result = optimize.minimize(
        negative_welfare, start, method="SLSQP", bounds=[(0.0, None)] * (n * t),
        constraints=[{"type": "ineq", "fun": lambda v: daily @ v - scenario.d_min},
                     {"type": "ineq", "fun": lambda v: scenario.d_max - daily @ v}],
        options={"ftol": 1e-14, "maxiter": 500})
    assert result.success
    optimum = welfare_optimum(scenario)
    assert optimum.welfare == pytest.approx(-result.fun, rel=1e-9)
    np.testing.assert_allclose(optimum.allocation.x.ravel(), result.x, atol=1e-5)
    # beta1 = beta2: the equilibrium is efficient, so the slot-demand solver agrees
    assert solve_welfare_centralized(scenario).welfare == pytest.approx(-result.fun, rel=1e-9)


class TestCompareEquilibrium:
    def test_distributed_matches_centralized_on_demo(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        sol = solve_welfare_centralized(demo_scenario)
        cmp = compare_equilibrium(report, sol)
        assert cmp.passed
        assert cmp.allocation_gap < 1e-3
        assert cmp.welfare_gap < 1e-4
        payload = cmp.as_dict()
        assert set(payload) == {"allocation_gap", "demand_gap", "welfare_gap", "pass",
                                "boundary_degenerate"}

    def test_identical_inputs_zero_gaps(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        sol = solve_welfare_centralized(demo_scenario)
        self_cmp = compare_equilibrium(report, sol)
        # comparing a run against itself via an oracle built from it
        from brpmarket import OracleSolution
        mirror = OracleSolution(
            allocation=report.allocation, welfare=report.welfare,
            method="piecewise-exact", converged=True, boundary_degenerate=False,
            stationarity_residual=None,
            scenario_fingerprint=report.scenario_fingerprint)
        cmp = compare_equilibrium(report, mirror)
        assert cmp.allocation_gap == 0.0
        assert cmp.welfare_gap == 0.0
        assert self_cmp.passed

    def test_perturbed_allocation_fails(self, demo_scenario):
        from dataclasses import replace
        from brpmarket import Allocation
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        sol = solve_welfare_centralized(demo_scenario)
        shifted = Allocation(report.allocation.x + 0.5)
        bad = replace(report, allocation=shifted)
        cmp = compare_equilibrium(bad, sol)
        assert not cmp.passed
        assert cmp.allocation_gap == pytest.approx(0.5, abs=1e-6)

    def test_scenario_mismatch_rejected(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1))
        other = single_customer_scenario()
        sol = solve_welfare_centralized(other)
        with pytest.raises(ValueError, match="scenario mismatch"):
            compare_equilibrium(report, sol)


def naive_grid(scenario, grid_step):
    """Point-by-point enumeration of a grid over ``[0, w/alpha]`` per cell, whose
    best feasible point is a lower bound on the welfare optimum.

    Returns (best welfare, its allocation, how many points reach it, how
    many points are infeasible); -inf and None if no point is feasible.  Welfare sums utilities in variable order,
    then subtracts costs in slot order; the first maximum in row-major order
    wins.
    """
    n, t = scenario.num_customers, scenario.num_slots
    variables = [(i, s) for i in range(n) for s in range(t)]
    axes = [np.arange(0.0, scenario.customers[i].satiation[s] + 0.5 * grid_step,
                      grid_step) for i, s in variables]
    block_total = scenario.blocks.b * n
    best, best_point, ties, infeasible = -np.inf, None, 0, 0
    for point in itertools.product(*axes):
        feasible = True
        for i, customer in enumerate(scenario.customers):
            daily = sum(point[j] for j, (ci, _) in enumerate(variables) if ci == i)
            feasible &= customer.d_min - 1e-9 <= daily <= customer.d_max + 1e-9
        if not feasible:
            infeasible += 1
            continue
        welfare = 0.0
        for j, (i, s) in enumerate(variables):
            customer = scenario.customers[i]
            welfare += utility_value(point[j], customer.w[s], customer.alpha)
        for s in range(t):
            demand = sum(point[j] for j, (_, cs) in enumerate(variables) if cs == s)
            welfare -= cost_value(demand, block_total[s],
                                  CostParams(scenario.cost.beta1[s], scenario.cost.beta2[s]))
        if welfare > best:
            best, best_point, ties = welfare, point, 1
        elif welfare == best:
            ties += 1
    x = None if best_point is None else np.reshape(best_point, (n, t))
    return best, x, ties, infeasible


# grid axes per variable for N*T = 1, 2, 3, so each grid has at most ~1000 points
_AXIS_CAP = {1: 300, 2: 21, 3: 8}


@st.composite
def tiny_markets(draw):
    """A random N*T <= 3 market on a unit grid: half-integer satiation levels
    (optima between grid points), bands that may bind on or off the grid,
    a block threshold whose aggregate bN falls inside the demand range, and
    twin customers whose swapped allocations tie exactly."""
    n, t = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]))
    cap = _AXIS_CAP[n * t]
    twins = n > 1 and draw(st.booleans())
    customers = []
    for i in range(n):
        if twins and i > 0:
            customers.append({**customers[0], "id": i})
            continue
        w = [draw(st.integers(2, 2 * cap)) / 2 for _ in range(t)]
        satiation = sum(w)
        band = draw(st.sampled_from(["slack", "floor", "cap", "both"]))
        on_grid = draw(st.booleans())
        d_min = d_max = None
        if band in ("floor", "both"):
            d_min = draw(st.floats(0.0, 0.7)) * satiation
        if band in ("cap", "both"):
            d_max = draw(st.floats(0.1, 1.0)) * satiation
        if on_grid:
            d_min = d_min and float(np.floor(d_min))
            d_max = d_max and float(np.ceil(d_max))
        d_min = d_min or 0.0
        d_max = max(d_max or 10 * satiation, d_min)
        customers.append({"id": i, "w": w, "alpha": 1.0, "d_min": d_min, "d_max": d_max})
    beta1 = draw(st.floats(0.05, 0.5))
    beta2 = beta1 * draw(st.sampled_from([1.0, 1.2, 2.0, 3.0]))
    # bN somewhere in [0.1, 0.9] of the largest aggregate demand in slot 0
    peak = sum(c["w"][0] for c in customers)
    b = draw(st.floats(0.1, 0.9)) * peak / n
    return make_scenario(t, customers, b=b, beta1=beta1, beta2=beta2)


class TestWelfareOptimumProperties:
    """No feasible point beats the optimum: not the grid's best, not the market's."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(tiny_markets())
    # one customer over three slots; d_max = 3 binds
    @example(make_scenario(3, [{"id": 0, "w": [3.0, 2.5, 2.0], "alpha": 1.0,
                                "d_min": 0.5, "d_max": 3.0}],
                           b=1.0, beta1=0.25, beta2=0.3))
    # three customers in one slot; customer 0's floor binds, and demand
    # crosses the segment boundary bN = 4.5
    @example(make_scenario(1, [{"id": 0, "w": 3.0, "alpha": 1.0, "d_min": 2.9, "d_max": 50},
                               {"id": 1, "w": 2.5, "alpha": 1.0, "d_min": 0.4, "d_max": 50},
                               {"id": 2, "w": 2.0, "alpha": 1.0, "d_min": 0, "d_max": 50}],
                           b=1.5, beta1=0.25, beta2=0.3))
    @example(make_scenario(1, [{"id": 0, "w": 40.5, "alpha": 1.0, "d_max": 100},
                               {"id": 1, "w": 60.5, "alpha": 1.0, "d_max": 100}],
                           b=12.5, beta1=0.3, beta2=0.9))  # demand crosses bN
    def test_at_least_grid_and_market(self, scenario):
        optimum = welfare_optimum(scenario)
        grid_welfare = naive_grid(scenario, 1.0)[0]
        report, _ = run_market(scenario, RunConfig(default_step_size(scenario), tol=1e-10))
        scale = float(np.sum(scenario.w ** 2 / (2 * scenario.alpha)))  # largest utility
        assert optimum.welfare >= grid_welfare - 1e-12 * scale
        assert optimum.welfare >= report.welfare - 1e-12 * scale
        if np.all(scenario.cost.beta1 == scenario.cost.beta2) and report.converged:
            # a smooth convex cost: the equilibrium is efficient, to the run's tol
            assert optimum.welfare - report.welfare <= 1e-10 * scale


class TestExactMethodsAgree:
    """Where the equilibrium is efficient, the slot-demand solver and the welfare optimum's
    KKT enumeration, which share no code, agree."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(tiny_markets())
    @example(make_scenario(2, [{"id": 0, "w": [10.0, 10.0], "alpha": 1.0, "d_min": 19.0,
                                "d_max": 19.0}], b=1000.0, beta1=[0.01, 1.0], beta2=[0.01, 1.0]))
    def test_agrees_with_the_welfare_optimum_when_efficient(self, scenario):
        # beta1 = beta2: the equilibrium maximizes welfare, so the two exact methods,
        # which share no code, agree; past satiation in D and welfare only
        scenario = replace(scenario, cost=CostParams(scenario.cost.beta1, scenario.cost.beta1))
        sol = solve_welfare_centralized(scenario)
        optimum = welfare_optimum(scenario)
        demand = optimum.allocation.x.sum(axis=0)
        assert sol.converged
        np.testing.assert_allclose(sol.allocation.x.sum(axis=0), demand, rtol=0,
                                   atol=1e-12 * float(demand.max()))
        assert sol.welfare == pytest.approx(optimum.welfare, rel=1e-12)


@st.composite
def kkt_instances(draw):
    """N*T <= 3 markets over the welfare optimum's regimes: beta1 = beta2 or below it,
    per slot; per-slot b; slack, binding floors and caps; d_min == d_max; and floors near
    the total satiation with slot costs far apart, which put a cell past its satiation."""
    n, t = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]))
    beta1 = [draw(st.floats(0.01, 1.0)) for _ in range(t)]
    beta2 = [b * draw(st.sampled_from([1.0, 1.0, 1.5, 3.0])) for b in beta1]
    customers = []
    for i in range(n):
        w = [draw(st.floats(1.0, 100.0)) for _ in range(t)]
        alpha = draw(st.sampled_from([0.5, 1.0, 1.7]))
        sat, f = sum(w) / alpha, draw(st.floats(0.05, 0.95))
        band = draw(st.sampled_from(["slack", "floor", "cap", "pinned", "past"]))
        d_min, d_max = {"slack": (0.0, 10 * sat), "floor": (f * sat, 10 * sat),
                        "cap": (0.0, f * sat), "pinned": (f * sat, f * sat),
                        "past": (sat * (0.9 + 0.1 * f), sat)}[band]
        customers.append({"id": i, "w": w, "alpha": alpha, "d_min": d_min, "d_max": d_max})
    peak = [sum(c["w"][s] / c["alpha"] for c in customers) for s in range(t)]
    b = [draw(st.floats(0.1, 0.9)) * p / n for p in peak]
    return make_scenario(t, customers, b=b, beta1=beta1, beta2=beta2)


# the off-boundary w = (10, 90) demo and a floor that is optimal past satiation
W10_90 = make_scenario(1, [{"id": 0, "w": 10.0, "alpha": 1.0, "d_max": 1000.0},
                           {"id": 1, "w": 90.0, "alpha": 1.0, "d_max": 1000.0}],
                       b=25.0, beta1=0.5, beta2=0.6)
FLOOR_PAST_SATIATION = make_scenario(2, [{"id": 0, "w": [10.0, 10.0], "alpha": 1.0,
                                          "d_min": 19.0, "d_max": 19.0}],
                                     b=1000.0, beta1=[0.01, 1.0], beta2=[0.01, 1.0])


class TestBatchedWelfareOptimum:
    """The stacked KKT systems give the per-piece loop's answer, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(kkt_instances())
    @example(validate_scenario(demo_scenario_document()))
    @example(W10_90)
    @example(FLOOR_PAST_SATIATION)
    @example(make_scenario(3, [{"id": 0, "w": [3.0, 2.5, 2.0], "alpha": 1.0, "d_min": 0.5,
                                "d_max": 3.0}], b=[1.0, 0.5, 2.0], beta1=[0.25, 0.1, 0.5],
                           beta2=[0.3, 0.1, 1.5]))  # the cap binds; one slot has beta1 = beta2
    @example(make_scenario(3, [{"id": 0, "w": [10.0, 10.0, 10.0], "alpha": 1.0, "d_min": 29.0,
                                "d_max": 29.0}], b=[1.0, 5.0, 30.0], beta1=[0.01, 1.0, 1.0],
                           beta2=[0.02, 1.0, 3.0]))  # pinned, with a cell past satiation
    def test_bit_identical_to_the_per_piece_loop(self, scenario):
        batched, looped = welfare_optimum(scenario), reference_welfare_optimum(scenario)
        assert batched.allocation.x.tobytes() == looped.allocation.x.tobytes()
        assert np.float64(batched.welfare).tobytes() == np.float64(looped.welfare).tobytes()
        assert batched.boundary_degenerate == looped.boundary_degenerate

    def test_examples_reach_their_regimes(self):
        # the pinned cases: the demo on bN, w = (10, 90) off it, and a cell past satiation
        assert welfare_optimum(validate_scenario(demo_scenario_document())).boundary_degenerate
        assert welfare_optimum(W10_90).allocation.x.tolist() == [[0.0], [45.0]]
        x = welfare_optimum(FLOOR_PAST_SATIATION).allocation.x
        assert x[0, 0] > FLOOR_PAST_SATIATION.satiation[0, 0]
