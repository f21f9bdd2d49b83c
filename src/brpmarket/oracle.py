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
from .model import (
    Allocation,
    CostParams,
    PriceSchedule,
    Scenario,
    cost_gradients,
    cost_value,
    utility_value,
)

BOUNDARY_TOL = 1e-6
MAX_GRID_POINTS = 10**8
_GRID_CHUNK = 1_000_000


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
    marginal = PriceSchedule(*cost_gradients(x.sum(axis=0), scenario.cost))
    return worst_kkt_residual(scenario, Allocation.from_consumption(x, scenario.blocks),
                              marginal)


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
        marginal = PriceSchedule(*cost_gradients(x.sum(axis=0), scenario.cost))
        new_x = step_profile(x, marginal, gamma, scenario)
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

    alloc = Allocation.from_consumption(x, scenario.blocks)
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
    of whole rows of about ``_GRID_CHUNK`` (1M) points, each formed by
    broadcasting the variables' axes against one another.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    n, t = scenario.num_customers, scenario.num_slots
    if n * t > 3:
        raise ValueError("grid oracle limited to N*T <= 3 variables")

    variables = [(i, s) for i in range(n) for s in range(t)]
    # size the grid before materializing any axis
    stops = [scenario.customers[i].satiation[s] + 0.5 * grid_step
             for i, s in variables]
    sizes = [int(np.ceil(stop / grid_step)) for stop in stops]
    total_points = math.prod(sizes)
    if total_points > MAX_GRID_POINTS:
        raise ValueError(
            f"grid too large: {total_points} points exceeds {MAX_GRID_POINTS}")
    axes = [np.arange(0.0, stop, grid_step) for stop in stops]
    utilities = [utility_value(axis, scenario.customers[i].w[s],
                               scenario.customers[i].alpha)
                 for axis, (i, s) in zip(axes, variables)]

    # A slab is a block of whole rows over the first `lead` axes, flattened;
    # the other axes (at most _GRID_CHUNK points a row) are broadcast.
    lead = next(k for k in range(1, len(sizes) + 1)
                if math.prod(sizes[k:]) <= _GRID_CHUNK)
    inner = math.prod(sizes[lead:])
    outer, rows = total_points // inner, _GRID_CHUNK // inner

    block_total = scenario.blocks.b * n
    best_welfare = -np.inf
    best_point = None
    for start in range(0, outer, rows):
        grid = np.ogrid[(slice(start, min(start + rows, outer)),)
                        + tuple(slice(size) for size in sizes[lead:])]
        idx = [*np.unravel_index(grid[0], sizes[:lead]), *grid[1:]]
        xs = [axis[k] for axis, k in zip(axes, idx)]

        feasible = True
        for i, customer in enumerate(scenario.customers):
            daily = sum(xs[j] for j, (ci, _) in enumerate(variables) if ci == i)
            feasible = (feasible & (daily >= customer.d_min - 1e-9)
                        & (daily <= customer.d_max + 1e-9))
        if not np.any(feasible):
            continue

        # utilities in variable order, then costs in slot order
        welfare = sum(u[k] for u, k in zip(utilities, idx))
        for s in range(t):
            demand = sum(xs[j] for j, (_, cs) in enumerate(variables) if cs == s)
            welfare -= cost_value(demand, block_total[s], CostParams(
                scenario.cost.beta1[s], scenario.cost.beta2[s]))
        np.copyto(welfare, -np.inf, where=~feasible)

        j_best = int(np.argmax(welfare))
        if welfare.flat[j_best] > best_welfare:
            best_welfare = float(welfare.flat[j_best])
            at = np.unravel_index(start * inner + j_best, sizes)
            best_point = [float(axis[k]) for axis, k in zip(axes, at)]

    if best_point is None:
        raise ValueError("no feasible grid point (daily band narrower than grid)")

    # variables run customer-major, the row-major order of x
    x = np.reshape(best_point, (n, t))
    alloc = Allocation.from_consumption(x, scenario.blocks)
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
