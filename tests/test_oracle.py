import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brpmarket import (
    CostParams,
    DivergenceError,
    RunConfig,
    brute_force_welfare,
    compare_equilibrium,
    cost_value,
    oracle,
    run_market,
    solve_welfare_centralized,
    utility_gradient,
    utility_value,
    validate_scenario,
)
from conftest import make_scenario, single_customer_scenario


class TestCentralizedSolver:
    def test_closed_form_single_customer(self):
        scenario = single_customer_scenario()  # w=40, alpha=1, beta=1
        sol = solve_welfare_centralized(scenario, tol=1e-6)
        assert sol.converged
        assert sol.method == "centralized-gradient"
        assert sol.allocation.x[0, 0] == pytest.approx(40.0 / 3.0, abs=1e-5)
        assert sol.welfare == pytest.approx(2400.0 / 9.0, abs=1e-4)
        grid = brute_force_welfare(scenario, 0.001)
        assert abs(grid.allocation.x[0, 0] - sol.allocation.x[0, 0]) < 2e-3

    def test_symmetric_second_block_equilibrium(self):
        # d_min = 27 keeps the feasible set inside the second cost segment,
        # so the grid argmax cannot jump to the segment boundary
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 27, "d_max": 1000},
             {"id": 1, "w": 100, "alpha": 1.0, "d_min": 27, "d_max": 1000}],
            b=25, beta1=0.5, beta2=0.6)
        sol = solve_welfare_centralized(scenario, tol=1e-6)
        assert sol.converged
        x = sol.allocation.x.ravel()
        assert x[0] == pytest.approx(100.0 / 3.4, abs=1e-4)
        assert x[1] == pytest.approx(100.0 / 3.4, abs=1e-4)
        demand = float(x.sum())
        assert demand == pytest.approx(200.0 / 3.4, abs=1e-3)
        # marginal utility equals the second-block marginal cost
        grad = utility_gradient(x[0], 100.0, 1.0)
        assert grad == pytest.approx(2 * 0.6 * demand, abs=1e-3)
        grid = brute_force_welfare(scenario, 0.02)
        assert np.max(np.abs(grid.allocation.x - sol.allocation.x)) < 0.04

    def test_forced_demand_prices_out_small_customer(self):
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 40, "d_max": 40},
             {"id": 1, "w": 5, "alpha": 1.0, "d_min": 0, "d_max": 100}],
            b=60, beta1=0.5, beta2=0.6)
        sol = solve_welfare_centralized(scenario, tol=1e-6)
        assert sol.allocation.x[1, 0] == pytest.approx(0.0, abs=1e-9)

    def test_random_initializations_agree(self):
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 60, "alpha": 1.0, "d_min": 0, "d_max": 1000},
             {"id": 1, "w": 90, "alpha": 1.0, "d_min": 0, "d_max": 1000}],
            b=25, beta1=0.5, beta2=0.6)
        rng = np.random.default_rng(31)
        solutions = []
        for _ in range(10):
            x0 = rng.uniform(0, 90, size=(2, 1))
            sol = solve_welfare_centralized(scenario, tol=1e-6, x0=x0)
            assert sol.converged
            solutions.append(sol.allocation.x)
        for a in solutions:
            for b in solutions:
                assert np.max(np.abs(a - b)) < 1e-3

    def test_overflowing_step_raises_divergence_at_iteration_1(self):
        scenario = single_customer_scenario(d_max=1e308)
        with pytest.raises(DivergenceError) as err:
            solve_welfare_centralized(scenario, gamma=1e307)
        assert err.value.iteration == 1

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": math.nan}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": -1e-6}, "tol"),
        ({"tol": math.inf}, "tol"), ({"gamma": 0.0}, "gamma"), ({"gamma": -0.1}, "gamma"),
        ({"gamma": math.nan}, "gamma"), ({"gamma": math.inf}, "gamma"),
        ({"max_iter": 0}, "max_iter"), ({"max_iter": -1}, "max_iter"),
    ])
    def test_invalid_step_size_tolerance_or_cap_rejected(self, kwargs, message):
        # the checks of RunConfig; these used to run to the cap or diverge
        with pytest.raises(ValueError, match=message):
            solve_welfare_centralized(single_customer_scenario(), **{"max_iter": 50, **kwargs})

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (2,)])
    def test_misshapen_start_rejected(self, shape):
        # a (1, 1) start would broadcast silently, the others fail inside numpy
        scenario = make_scenario(
            2, [{"id": i, "w": 40.0, "alpha": 1.0, "d_min": 0.0, "d_max": 100.0}
                for i in range(2)], b=25.0, beta1=0.5, beta2=0.6)
        with pytest.raises(ValueError, match=r"x0 must have shape \(N, T\) = \(2, 2\)"):
            solve_welfare_centralized(scenario, x0=np.ones(shape))

    def test_boundary_degenerate_flagged(self):
        # aggregate demand pinned exactly at bN by a forced daily band
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 80, "alpha": 1.0, "d_min": 50, "d_max": 50}],
            b=50, beta1=0.5, beta2=0.6)
        sol = solve_welfare_centralized(scenario, tol=1e-4)
        assert sol.boundary_degenerate


class TestBruteForce:
    def test_degenerate_band_singleton(self):
        scenario = single_customer_scenario(d_min=7.0, d_max=7.0)
        sol = brute_force_welfare(scenario, 0.001)
        assert sol.allocation.x[0, 0] == pytest.approx(7.0, abs=1e-6)

    def test_equal_betas_make_blocks_inert(self):
        from brpmarket import block_prices
        scenario = single_customer_scenario(beta=1.0)
        sol = brute_force_welfare(scenario, 0.001)
        prices = block_prices(sol.allocation.x.sum(axis=0), scenario.cost)
        assert prices.p_l[0] == pytest.approx(prices.p_u[0])

    def test_too_many_variables_rejected(self):
        scenario = make_scenario(
            2,
            [{"id": 0, "w": 40, "alpha": 1.0, "d_min": 0, "d_max": 100},
             {"id": 1, "w": 40, "alpha": 1.0, "d_min": 0, "d_max": 100}],
            b=25, beta1=0.5, beta2=0.6)
        with pytest.raises(ValueError, match="N\\*T"):
            brute_force_welfare(scenario, 0.01)

    def test_oversized_grid_rejected(self):
        scenario = single_customer_scenario(w=100.0)
        with pytest.raises(ValueError, match="grid too large"):
            brute_force_welfare(scenario, 1e-7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha, grid_step", [(1e-307, 0.01), (1.0, 1e-320)])
    def test_overflowing_axis_length_rejected(self, alpha, grid_step):
        # satiation w/alpha is finite, (w/alpha) / grid_step overflows to inf
        scenario = single_customer_scenario(w=1.0, alpha=alpha)
        with pytest.raises(ValueError, match="grid too large"):
            brute_force_welfare(scenario, grid_step)

    def test_is_upper_bound_for_distributed_welfare(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        grid = brute_force_welfare(demo_scenario, 0.05)
        assert report.welfare <= grid.welfare + 1e-6

    def test_demo_at_cli_default_step(self, demo_scenario):
        grid = brute_force_welfare(demo_scenario, 0.01)
        assert grid.allocation.x.tolist() == [[10.0], [40.0]]
        assert grid.welfare == 2100.0
        assert grid.boundary_degenerate is True

    def test_demo_true_welfare_argmax_is_boundary(self, demo_scenario):
        # with beta2 > beta1 and mixed blocks, the raw welfare maximizer
        # sits exactly at the aggregate segment boundary D = bN
        grid = brute_force_welfare(demo_scenario, 0.05)
        assert grid.boundary_degenerate
        assert float(grid.allocation.x.sum()) == pytest.approx(50.0, abs=0.05)


class TestCompareEquilibrium:
    def test_distributed_matches_centralized_on_demo(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        sol = solve_welfare_centralized(demo_scenario, tol=1e-6)
        cmp = compare_equilibrium(report, sol)
        assert cmp.passed
        assert cmp.allocation_gap < 1e-3
        assert cmp.welfare_gap < 1e-4
        payload = json.loads(cmp.to_json())
        assert set(payload) == {"allocation_gap", "welfare_gap", "pass",
                                "boundary_degenerate"}

    def test_identical_inputs_zero_gaps(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        sol = solve_welfare_centralized(demo_scenario, tol=1e-6)
        self_cmp = compare_equilibrium(report, sol)
        # comparing a run against itself via an oracle built from it
        from brpmarket import OracleSolution
        mirror = OracleSolution(
            allocation=report.allocation, welfare=report.welfare,
            method="grid", converged=True, boundary_degenerate=False,
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
        sol = solve_welfare_centralized(demo_scenario, tol=1e-6)
        shifted = Allocation(report.allocation.x + 0.5)
        bad = replace(report, allocation=shifted)
        cmp = compare_equilibrium(bad, sol)
        assert not cmp.passed
        assert cmp.allocation_gap == pytest.approx(0.5, abs=1e-6)

    def test_scenario_mismatch_rejected(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1))
        other = single_customer_scenario()
        sol = solve_welfare_centralized(other, tol=1e-6)
        with pytest.raises(ValueError, match="scenario mismatch"):
            compare_equilibrium(report, sol)


def naive_grid(scenario, grid_step):
    """Point-by-point enumeration of the grid oracle's search, as a reference.

    Returns (best welfare, its allocation, how many points reach it, how
    many points are infeasible).  Welfare sums utilities in variable order,
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
    return best, np.reshape(best_point, (n, t)), ties, infeasible


GRID_INSTANCES = [
    # one customer over three slots; d_max = 3 binds and cuts off part of the grid
    pytest.param(
        make_scenario(3, [{"id": 0, "w": [3.0, 2.5, 2.0], "alpha": 1.0,
                           "d_min": 0.5, "d_max": 3.0}],
                      b=1.0, beta1=0.25, beta2=0.3),
        0.2, lambda x, ties, infeasible: infeasible > 0 and x.sum() > 2.8,
        id="1x3-binding-d_max"),
    # three customers in one slot; customer 0's floor leaves only the last
    # row of the grid feasible, and demand crosses the segment boundary bN = 4.5
    pytest.param(
        make_scenario(1, [{"id": 0, "w": 3.0, "alpha": 1.0, "d_min": 2.9, "d_max": 50},
                          {"id": 1, "w": 2.5, "alpha": 1.0, "d_min": 0.4, "d_max": 50},
                          {"id": 2, "w": 2.0, "alpha": 1.0, "d_min": 0, "d_max": 50}],
                      b=1.5, beta1=0.25, beta2=0.3),
        0.2, lambda x, ties, infeasible: x[0, 0] == 3.0,
        id="3x1"),
    # two identical customers whose optimum x = 1.55 falls between grid
    # points: (1.5, 1.6) and (1.6, 1.5) tie exactly
    pytest.param(
        make_scenario(1, [{"id": 0, "w": 3.1, "alpha": 1.0, "d_min": 0, "d_max": 50},
                          {"id": 1, "w": 3.1, "alpha": 1.0, "d_min": 0, "d_max": 50}],
                      b=10.0, beta1=0.25, beta2=0.25),
        0.1, lambda x, ties, infeasible: ties >= 2 and x[0, 0] < x[1, 0],
        id="2x1-ties"),
]


# (_GRID_CHUNK, _GRID_BLOCK): the default cells; slabs of several rows, of
# single rows over the first one or two axes, and of a few points; blocks
# of a few points and of one
GRID_SPLITS = list(itertools.product(
    (oracle._GRID_CHUNK, 1000, 150, 12, 3), (oracle._GRID_BLOCK, 7, 3, 1)))


class TestBruteForceAgainstEnumeration:
    @pytest.mark.parametrize("scenario, grid_step, has_property", GRID_INSTANCES)
    def test_same_welfare_and_allocation(self, scenario, grid_step, has_property,
                                         monkeypatch):
        welfare, x, ties, infeasible = naive_grid(scenario, grid_step)
        assert has_property(x, ties, infeasible)
        for chunk, block in GRID_SPLITS:
            monkeypatch.setattr(oracle, "_GRID_CHUNK", chunk)
            monkeypatch.setattr(oracle, "_GRID_BLOCK", block)
            sol = brute_force_welfare(scenario, grid_step)
            assert sol.welfare == welfare
            assert sol.allocation.x.tolist() == x.tolist()

    @pytest.mark.parametrize("chunk, block", [(32, 1), (32, 7), (12, 3), (3, 1)])
    def test_tie_goes_to_lower_index_across_cells(self, chunk, block, monkeypatch):
        # slabs of one row of the 32 x 32 grid, or of a few points: the tied
        # points (1.5, 1.6) and (1.6, 1.5) of 2x1-ties lie in different
        # cells, and the cell of (1.6, 1.5), later in row-major order, is
        # evaluated first
        scenario, grid_step, _ = GRID_INSTANCES[2].values
        monkeypatch.setattr(oracle, "_GRID_CHUNK", chunk)
        monkeypatch.setattr(oracle, "_GRID_BLOCK", block)
        sol = brute_force_welfare(scenario, grid_step)
        assert sol.allocation.x.tolist() == [[1.5], [1.6]]


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


class TestBruteForcePruningProperties:
    """The slab-pruned grid search returns exactly what full enumeration does."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(tiny_markets())
    @example(GRID_INSTANCES[2].values[0])  # exact argmax tie
    @example(make_scenario(1, [{"id": 0, "w": 40.5, "alpha": 1.0, "d_max": 100},
                               {"id": 1, "w": 60.5, "alpha": 1.0, "d_max": 100}],
                           b=12.5, beta1=0.3, beta2=0.9))  # demand crosses bN
    def test_matches_enumeration(self, scenario):
        welfare, x, _, _ = naive_grid(scenario, 1.0)
        for chunk, block in GRID_SPLITS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "_GRID_CHUNK", chunk)
                mp.setattr(oracle, "_GRID_BLOCK", block)
                if welfare == -np.inf:
                    with pytest.raises(ValueError, match="no feasible grid point"):
                        brute_force_welfare(scenario, 1.0)
                    continue
                sol = brute_force_welfare(scenario, 1.0)
            assert sol.welfare == welfare
            assert sol.allocation.x.tolist() == x.tolist()
