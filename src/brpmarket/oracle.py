"""Independent certification of the market equilibrium.

Solves the centralized welfare problem by projected-gradient ascent with
the segment-wise cost gradient, runs an exhaustive grid search for tiny
instances, and compares either against a distributed run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .agent import project_band, step_profile, worst_kkt_residual
from .market import (
    DivergenceError,
    EquilibriumReport,
    default_step_size,
    social_welfare,
)
from .model import Allocation, CostParams, Scenario, cost_value, utility_value
from .pricing import block_prices

BOUNDARY_TOL = 1e-6
MAX_GRID_POINTS = 10**8
_GRID_CHUNK = 131_072


@dataclass(frozen=True)
class OracleSolution:
    """A welfare maximizer found by an oracle method."""

    allocation: Allocation
    welfare: float
    method: str  # "centralized-gradient" | "grid"
    converged: bool
    boundary_degenerate: bool
    stationarity_residual: float | None
    scenario_fingerprint: str


@dataclass(frozen=True)
class ComparisonReport:
    """Distributed-vs-oracle agreement at the requested tolerances."""

    allocation_gap: float
    welfare_gap: float
    passed: bool
    boundary_degenerate: bool

    def as_dict(self) -> dict:
        return {
            "allocation_gap": self.allocation_gap,
            "welfare_gap": self.welfare_gap,
            "pass": self.passed,
            "boundary_degenerate": self.boundary_degenerate,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _is_boundary_degenerate(alloc: Allocation, scenario: Scenario) -> bool:
    demand = alloc.x.sum(axis=0)
    block_total = scenario.blocks.b * scenario.num_customers
    return bool(np.any(np.abs(demand - block_total) < BOUNDARY_TOL))


def _marginal_cost_residual(scenario: Scenario, x: np.ndarray) -> float:
    """Worst KKT residual of consumption ``x`` against the marginal costs."""
    marginal = block_prices(x.sum(axis=0), scenario.cost)
    return worst_kkt_residual(scenario, Allocation(x), marginal)


def solve_welfare_centralized(scenario: Scenario, tol: float = 1e-6,
                              gamma: float | None = None,
                              max_iter: int = 200000,
                              x0: np.ndarray | None = None) -> OracleSolution:
    """Projected-gradient ascent on the joint welfare objective.

    Uses the same array step as the market loop but drives it with the
    segment-wise marginal costs directly instead of broadcast prices.  Stops
    once the stationarity residuals drop below ``tol``; if the iteration cap
    is hit first the solution is returned with ``converged=False``.
    """
    t = scenario.num_slots
    if gamma is None:
        gamma = default_step_size(scenario)
    if x0 is None:
        x = np.repeat(scenario.d_min[:, None] / t, t, axis=1)
    else:
        x = project_band(x0, scenario.d_min, scenario.d_max)

    # Stop stepping once allocation movement is well below what a
    # tol-sized residual would produce, then measure the residual itself.
    step_tol = 0.1 * gamma * tol
    for k in range(1, max_iter + 1):
        marginal = block_prices(x.sum(axis=0), scenario.cost)
        try:
            new_x = step_profile(x, marginal, gamma, scenario)
        except FloatingPointError:
            raise DivergenceError(k) from None
        if not np.all(np.isfinite(new_x)):
            raise DivergenceError(k)
        change = float(np.max(np.abs(new_x - x)))
        x = new_x
        if change < step_tol:
            residual = _marginal_cost_residual(scenario, x)
            if residual < tol:
                break
    else:
        residual = _marginal_cost_residual(scenario, x)

    alloc = Allocation(x)
    return OracleSolution(
        allocation=alloc,
        welfare=social_welfare(alloc, scenario),
        method="centralized-gradient",
        converged=bool(residual < tol),
        boundary_degenerate=_is_boundary_degenerate(alloc, scenario),
        stationarity_residual=float(residual),
        scenario_fingerprint=scenario.fingerprint(),
    )


def brute_force_welfare(scenario: Scenario, grid_step: float) -> OracleSolution:
    """Exhaustive grid search over tiny instances (N*T <= 3).

    Each variable ranges over ``[0, w/alpha]`` at resolution ``grid_step``;
    points violating a customer's daily energy band are discarded.  Ties
    resolve to the lexicographically lowest allocation (first occurrence in
    row-major enumeration over ascending axes).  The grid is walked in slabs
    of whole rows of about ``_GRID_CHUNK`` points, each formed by
    broadcasting the variables' axes against one another.

    A slab is skipped (branch and bound) when an upper bound on its welfare
    lies below the best welfare found so far by more than a rounding margin.
    The bound is each lead variable's largest utility over the slab's rows,
    plus the largest over one row of the trailing axes of their utilities
    minus the costs at the slab's smallest lead demand per slot.  Costs are
    nondecreasing in demand (``0 <= beta1 <= beta2``) and the daily band is
    ignored, so no point of the slab can beat the bound; a skipped slab
    holds no point that reaches the best welfare, so the answer and its tie
    rule (the strict ``>`` across slabs) are those of the full search.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    n, t = scenario.num_customers, scenario.num_slots
    if n * t > 3:
        raise ValueError("grid oracle limited to N*T <= 3 variables")

    variables = [(i, s) for i in range(n) for s in range(t)]
    # size the grid before materializing any axis; an axis is counted up to
    # one point past the budget, as its length may overflow to inf
    satiation = scenario.w / scenario.alpha
    stops = [satiation[i, s] + 0.5 * grid_step for i, s in variables]
    sizes = [math.ceil(min(float(stop) / grid_step, MAX_GRID_POINTS + 1))
             for stop in stops]
    total_points = math.prod(sizes)
    if total_points > MAX_GRID_POINTS:
        raise ValueError(
            f"grid too large: at least {total_points} points exceeds {MAX_GRID_POINTS}")
    axes = [np.arange(0.0, stop, grid_step) for stop in stops]
    utilities = [utility_value(axis, scenario.w[i, s], scenario.alpha[i, 0])
                 for axis, (i, s) in zip(axes, variables)]

    # A slab is a block of whole rows over the first `lead` axes, flattened;
    # the other axes (at most _GRID_CHUNK points a row) are broadcast.
    lead = next(k for k in range(1, len(sizes) + 1)
                if math.prod(sizes[k:]) <= _GRID_CHUNK)
    inner = math.prod(sizes[lead:])
    outer, rows = total_points // inner, _GRID_CHUNK // inner

    block_total = scenario.blocks.b * n
    costs = [CostParams(scenario.cost.beta1[s], scenario.cost.beta2[s])
             for s in range(t)]
    in_slot = [[j for j, (_, cs) in enumerate(variables) if cs == s]
               for s in range(t)]

    # One row of the trailing axes, broadcast against each other; a slab
    # broadcasts it against its lead rows.
    row = np.ogrid[tuple(slice(size) for size in sizes[lead:])]
    row_xs = [axis[k] for axis, k in zip(axes[lead:], row)]
    row_us = [u[k] for u, k in zip(utilities[lead:], row)]
    as_rows = (-1,) + (1,) * len(row)

    def slot_demands(lead_demand):
        # per slot: the lead axes' sum, then the row's axes, in the grid's order
        return [sum((row_xs[j - lead] for j in in_slot[s] if j >= lead),
                    lead_demand[s]) for s in range(t)]

    # Rounding margin of the bound.  A welfare, of a grid point or a bound,
    # sums at most six terms (N*T utilities, T costs) whose absolute values
    # add up to at most `scale`; any order of summation lands within
    # 5*eps*scale of the exact sum.  The bound's terms dominate each point's
    # terms exactly in floating point: its lead utilities are maxima of the
    # same computed values, and its slot demand adds the same trailing values
    # in the same order to the smallest rounded lead sum, so (rounded sums
    # and products being monotone) its cost is at most the point's.  Every
    # point of a slab whose bound lies below `best - margin` is therefore
    # below `best` by more than margin - 10*eps*scale > 0, and skipping the
    # slab cannot change the argmax or its tie-break.
    scale = (sum(float(np.max(np.abs(u))) for u in utilities)
             + sum(costs[s].beta2 * sum(axes[j][-1] for j in in_slot[s]) ** 2
                   for s in range(t)))
    margin = 1e-12 * scale

    best_welfare = -np.inf
    best_point = None
    for start in range(0, outer, rows):
        lead_idx = np.unravel_index(np.arange(start, min(start + rows, outer)),
                                    sizes[:lead])
        lead_xs = [axis[k] for axis, k in zip(axes, lead_idx)]
        lead_us = [u[k] for u, k in zip(utilities, lead_idx)]
        lead_demand = [sum(lead_xs[j] for j in in_slot[s] if j < lead)
                       for s in range(t)]

        # the slab's welfare bound, taken over one row
        row_welfare = sum(row_us)
        for s, demand in enumerate(slot_demands([np.min(d) for d in lead_demand])):
            row_welfare -= cost_value(demand, block_total[s], costs[s])
        bound = sum(float(np.max(u)) for u in lead_us) + float(np.max(row_welfare))
        if bound < best_welfare - margin:
            continue

        xs = [x.reshape(as_rows) for x in lead_xs] + row_xs
        feasible = True
        for i in range(n):
            daily = sum(xs[j] for j, (ci, _) in enumerate(variables) if ci == i)
            feasible = (feasible & (daily >= scenario.d_min[i] - 1e-9)
                        & (daily <= scenario.d_max[i] + 1e-9))
        if not np.any(feasible):
            continue

        # utilities in variable order, then costs in slot order
        welfare = sum([u.reshape(as_rows) for u in lead_us] + row_us)
        demands = slot_demands([np.reshape(d, as_rows) for d in lead_demand])
        for s, demand in enumerate(demands):
            welfare -= cost_value(demand, block_total[s], costs[s])
        np.copyto(welfare, -np.inf, where=~feasible)

        j_best = int(np.argmax(welfare))
        if welfare.flat[j_best] > best_welfare:
            best_welfare = float(welfare.flat[j_best])
            at = np.unravel_index(start * inner + j_best, sizes)
            best_point = [float(axis[k]) for axis, k in zip(axes, at)]

    if best_point is None:
        raise ValueError("no feasible grid point (daily band narrower than grid)")

    # variables run customer-major, the row-major order of x
    alloc = Allocation(np.reshape(best_point, (n, t)))
    return OracleSolution(
        allocation=alloc,
        welfare=best_welfare,
        method="grid",
        converged=True,
        boundary_degenerate=_is_boundary_degenerate(alloc, scenario),
        stationarity_residual=None,
        scenario_fingerprint=scenario.fingerprint(),
    )


def compare_equilibrium(distributed: EquilibriumReport, oracle: OracleSolution,
                        tol_allocation: float = 1e-3,
                        tol_welfare: float = 1e-4) -> ComparisonReport:
    """Measure the distributed-vs-oracle allocation and welfare gaps."""
    if distributed.scenario_fingerprint != oracle.scenario_fingerprint:
        raise ValueError("scenario mismatch between distributed run and oracle")
    allocation_gap = float(np.max(np.abs(distributed.allocation.x
                                         - oracle.allocation.x)))
    welfare_gap = abs(distributed.welfare - oracle.welfare)
    return ComparisonReport(
        allocation_gap=allocation_gap,
        welfare_gap=welfare_gap,
        passed=allocation_gap < tol_allocation and welfare_gap < tol_welfare,
        boundary_degenerate=oracle.boundary_degenerate,
    )
