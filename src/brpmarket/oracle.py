"""Independent certification of the market equilibrium.

Solves the centralized welfare problem by projected-gradient ascent with
the segment-wise cost gradient, runs a grid search for tiny instances, and
compares either against a distributed run.  The grid search bounds the
welfare of every cell of the grid in one pass, then evaluates cells best
first and stops once no remaining cell can reach the best point found; its
answer, ties included, is that of evaluating every point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# step_profile is unused here; the benchmark's tracer wraps it in this namespace
from .agent import project_band, step_profile, worst_kkt_residual  # noqa: F401
from .market import (
    EquilibriumReport,
    RunConfig,
    _iterates,
    default_step_size,
    social_welfare,
)
from .model import Allocation, CostParams, Scenario, cost_value, utility_value

BOUNDARY_TOL = 1e-6
MAX_GRID_POINTS = 10**8
_GRID_CHUNK = 262_144
_GRID_BLOCK = 256


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


def solve_welfare_centralized(scenario: Scenario, tol: float = 1e-6,
                              gamma: float | None = None,
                              max_iter: int = 200000,
                              x0: np.ndarray | None = None) -> OracleSolution:
    """Projected-gradient ascent on the joint welfare objective: the market's own iteration
    (``market._iterates``; from ``x0`` projected onto the bands, if given) until the
    stationarity residual is below ``tol``, else ``converged=False`` at ``max_iter``.
    ``gamma`` (default :func:`default_step_size`), ``tol`` and ``max_iter`` are checked
    as a :class:`RunConfig`, and ``x0``'s shape against (N, T); an invalid one raises
    ``ValueError``."""
    config = RunConfig(default_step_size(scenario) if gamma is None else gamma, tol, max_iter)
    if x0 is not None:
        if np.shape(x0) != scenario.w.shape:
            raise ValueError(f"x0 must have shape (N, T) = {scenario.w.shape}, "
                             f"got {np.shape(x0)}")
        x0 = project_band(x0, scenario.d_min, scenario.d_max)
    # Stop stepping once allocation movement is well below what a tol-sized
    # residual would produce, then measure the residual (also at max_iter).
    step_tol = 0.1 * config.gamma * tol
    for k, x, prices, change, _ in _iterates(scenario, config, x0):
        if change < step_tol or k == max_iter:
            residual = worst_kkt_residual(scenario, Allocation(x), prices)
            if residual < tol:
                break

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
    row-major enumeration over ascending axes).

    The grid is split into cells: a slab of rows over the leading axes
    (about ``_GRID_CHUNK`` points) times a block of ``_GRID_BLOCK``
    consecutive points of the flattened trailing axes.  A bound pass over
    the slabs bounds every cell's welfare from above: each lead variable's
    largest utility over the slab's rows, plus the largest over the block of
    the trailing utilities minus the costs at the slab's smallest lead
    demand per slot.  Costs are nondecreasing in demand (``0 <= beta1 <=
    beta2``), so no point of a cell can beat its bound.  The largest is
    taken over the block's points that some lead row of the slab could
    make feasible; a cell with none gets the bound ``-inf``.

    Cells are then evaluated best first, in descending order of bound, each
    by broadcasting its rows against its block, and the search stops at the
    first cell whose bound is ``-inf`` or lies below the best welfare found
    by more than a rounding margin (branch and bound).  No cell left
    unevaluated holds a feasible point that reaches the best welfare, and a
    point replaces the best only if its welfare is higher, or equal at a
    lower row-major index, so the answer and its tie rule are those of the
    full search.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    n, t = scenario.num_customers, scenario.num_slots
    if n * t > 3:
        raise ValueError("grid oracle limited to N*T <= 3 variables")

    variables = [(i, s) for i in range(n) for s in range(t)]
    # size the grid before materializing any axis; an axis is counted up to
    # one point past the budget, as its length may overflow to inf
    stops = [scenario.satiation[i, s] + 0.5 * grid_step for i, s in variables]
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
    # the other axes (at most _GRID_CHUNK points) form one trailing row.  A
    # cell is a slab's rows times _GRID_BLOCK consecutive points of the
    # flattened trailing row.
    lead = next(k for k in range(1, len(sizes) + 1)
                if math.prod(sizes[k:]) <= _GRID_CHUNK)
    inner = math.prod(sizes[lead:])
    outer, rows = total_points // inner, _GRID_CHUNK // inner
    starts = np.arange(0, inner, _GRID_BLOCK)

    block_total = scenario.blocks.b * n
    costs = [CostParams(scenario.cost.beta1[s], scenario.cost.beta2[s])
             for s in range(t)]
    in_slot = [[j for j, (_, cs) in enumerate(variables) if cs == s]
               for s in range(t)]
    own = [[j for j, (ci, _) in enumerate(variables) if ci == i]
           for i in range(n)]
    band_lo, band_hi = scenario.d_min - 1e-9, scenario.d_max + 1e-9

    # The trailing row's axes broadcast against each other, and the axis
    # indices of each of its points in row-major order.
    row = np.ogrid[tuple(slice(size) for size in sizes[lead:])]
    row_xs = [axis[k] for axis, k in zip(axes[lead:], row)]
    row_utility = sum((u[k] for u, k in zip(utilities[lead:], row)),
                      np.zeros(sizes[lead:]))
    flat_row = [k.ravel() for k in np.indices(sizes[lead:])]

    def slab_values(slab):
        lead_idx = np.unravel_index(
            np.arange(slab * rows, min(slab * rows + rows, outer)), sizes[:lead])
        lead_xs = [axis[k] for axis, k in zip(axes, lead_idx)]
        lead_us = [u[k] for u, k in zip(utilities, lead_idx)]
        lead_demand = [sum(lead_xs[j] for j in in_slot[s] if j < lead)
                       for s in range(t)]
        return lead_xs, lead_us, lead_demand

    def slot_demands(lead_demand, trailing_xs):
        # per slot: the lead axes' sum, then the trailing axes, in the grid's order
        return [sum((trailing_xs[j - lead] for j in in_slot[s] if j >= lead),
                    lead_demand[s]) for s in range(t)]

    # Rounding margin of the bound.  A welfare, of a grid point or a bound,
    # sums at most six terms (N*T utilities, T costs) whose absolute values
    # add up to at most `scale`; any order of summation lands within
    # 5*eps*scale of the exact sum.  The bound's terms dominate each point's
    # terms exactly in floating point: its lead utilities are maxima of the
    # same computed values, and its slot demand adds the same trailing values
    # in the same order to the smallest rounded lead sum, so (rounded sums
    # and products being monotone) its cost is at most the point's.  Every
    # point of a cell whose bound lies below `best - margin` is therefore
    # below `best` by more than margin - 10*eps*scale > 0, and skipping the
    # cell cannot change the argmax or its tie-break.
    scale = (sum(float(np.max(np.abs(u))) for u in utilities)
             + sum(costs[s].beta2 * sum(axes[j][-1] for j in in_slot[s]) ** 2
                   for s in range(t)))
    margin = 1e-12 * scale

    # A customer's daily total at a point is its lead part plus its
    # trailing part, sums of at most three values no larger than its
    # largest total `reach`; the bound pass and the search round them
    # differently, by far less than `daily_margin`.  A customer whose band
    # holds every total cuts off no point.
    reach = [sum(axes[j][-1] for j in own[i]) for i in range(n)]
    daily_margin = [1e-12 * r for r in reach]
    binding = [i for i in range(n)
               if band_lo[i] > 0 or band_hi[i] < reach[i] + daily_margin[i]]
    trailing_daily = [sum(row_xs[j - lead] for j in own[i] if j >= lead)
                      for i in range(n)]

    # Bound pass: each cell's welfare bound, the slab's lead-utility maxima
    # plus the block's largest row welfare at the slab's smallest lead
    # demand, taken over the row points whose daily totals lie in every band
    # for some lead part of the slab (-inf if there are none).
    bounds = np.empty((-(-outer // rows), len(starts)))
    for slab in range(len(bounds)):
        lead_xs, lead_us, lead_demand = slab_values(slab)
        row_welfare = row_utility.copy()
        for s, demand in enumerate(slot_demands([np.min(d) for d in lead_demand],
                                                row_xs)):
            row_welfare -= cost_value(demand, block_total[s], costs[s])
        for i in binding:
            lead_daily = sum(lead_xs[j] for j in own[i] if j < lead)
            np.copyto(row_welfare, -np.inf, where=(
                (np.min(lead_daily) + trailing_daily[i] > band_hi[i] + daily_margin[i])
                | (np.max(lead_daily) + trailing_daily[i] < band_lo[i] - daily_margin[i])))
        bounds[slab] = (sum(float(np.max(u)) for u in lead_us)
                        + np.maximum.reduceat(row_welfare.ravel(), starts))

    # Best-first search: cells in descending order of bound, until a cell
    # has no feasible point or a bound below the best welfare by more than
    # the margin.  As cells are visited out of row-major order, a tie goes
    # to the lower row-major index.
    best_welfare, best_index = -np.inf, None
    for cell in np.argsort(-bounds, axis=None):
        bound = bounds.flat[cell]
        if bound == -np.inf or bound < best_welfare - margin:
            break
        slab, block = divmod(int(cell), len(starts))
        first = block * _GRID_BLOCK
        cols = [k[first:first + _GRID_BLOCK] for k in flat_row]
        lead_xs, lead_us, lead_demand = slab_values(slab)
        cell_xs = [axis[k] for axis, k in zip(axes[lead:], cols)]

        xs = [x.reshape(-1, 1) for x in lead_xs] + cell_xs
        feasible = True
        for i in range(n):
            daily = sum(xs[j] for j in own[i])
            feasible = feasible & (daily >= band_lo[i]) & (daily <= band_hi[i])
        if not np.any(feasible):
            continue

        # utilities in variable order, then costs in slot order
        welfare = sum([u.reshape(-1, 1) for u in lead_us]
                      + [u[k] for u, k in zip(utilities[lead:], cols)])
        for s, demand in enumerate(slot_demands(
                [np.reshape(d, (-1, 1)) for d in lead_demand], cell_xs)):
            welfare -= cost_value(demand, block_total[s], costs[s])
        np.copyto(welfare, -np.inf, where=~feasible)

        j_best = int(np.argmax(welfare))
        r, c = divmod(j_best, welfare.shape[1])
        index = (slab * rows + r) * inner + first + c
        value = float(welfare.flat[j_best])
        if value > best_welfare or (value == best_welfare and index < best_index):
            best_welfare, best_index = value, index

    if best_index is None:
        raise ValueError("no feasible grid point (daily band narrower than grid)")
    at = np.unravel_index(best_index, sizes)
    best_point = [float(axis[k]) for axis, k in zip(axes, at)]

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
