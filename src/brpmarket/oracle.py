"""Independent certification of the market equilibrium.

Solves the centralized welfare problem by projected-gradient ascent with the
segment-wise cost gradient, finds the exact welfare maximum of tiny instances
(N*T <= 3) from the KKT systems of the welfare's concave quadratic pieces, and
compares either against a distributed run.
"""

from __future__ import annotations

import itertools
import json
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
from .model import Allocation, Scenario

BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class OracleSolution:
    """A welfare maximizer found by an oracle method."""

    allocation: Allocation
    welfare: float
    method: str  # "centralized-gradient" | "piecewise-exact"
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


def _solution(scenario: Scenario, x: np.ndarray, welfare: float, method: str,
              converged: bool = True, residual: float | None = None) -> OracleSolution:
    """An oracle's answer x, boundary-degenerate where a slot's demand is within
    ``BOUNDARY_TOL`` of ``bN``."""
    gaps = np.abs(x.sum(axis=0) - scenario.blocks.b * scenario.num_customers)
    return OracleSolution(Allocation(x), welfare, method, converged,
                          bool(np.any(gaps < BOUNDARY_TOL)), residual, scenario.fingerprint())


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

    return _solution(scenario, x, social_welfare(Allocation(x), scenario),
                     "centralized-gradient", bool(residual < tol), float(residual))


def _gauss_jordan(a, b):
    """Solutions x of the small systems ``a @ x = b`` stacked on axis 0, and ``det(a)``
    up to sign, by Gauss-Jordan elimination with partial pivoting.  In numpy alone:
    one LAPACK or BLAS call, even on these, raises a process's peak memory by 0.3-1.3 MB."""
    ab, batch, det = np.concatenate([a, b[..., None]], axis=2), np.arange(len(a)), 1.0
    others = 1.0 - np.eye(a.shape[-1])
    for j in range(a.shape[-1]):
        p = j + np.argmax(np.abs(ab[:, j:, j]), axis=1)
        det = det * ab[batch, p, j]
        row = ab[batch, p] / ab[batch, p, j, None]
        ab[batch, p] = ab[:, j]
        ab[:, j] = row
        ab -= (others[j] * ab[:, :, j])[..., None] * row[:, None]
    return ab[..., -1], det


def _kkt(h, gs, pad):
    """The KKT matrices ``[h g^T; g 0]``, one per set of constraint rows g in ``gs``, with
    1 on the diagonal of each padding row (``pad``), whose multiplier is then 0."""
    _, k, n = gs.shape
    kkt = np.zeros((len(gs), n + k, n + k))
    kkt[:, :n, :n], kkt[:, n:, :n], kkt[:, :n, n:] = h, gs, gs.transpose(0, 2, 1)
    kkt[:, n:, n:] = pad[:, :, None] * np.eye(k)
    return kkt


def welfare_optimum(scenario: Scenario) -> OracleSolution:
    """The exact social-welfare maximum of a tiny instance (N*T <= 3).

    The welfare is a concave quadratic on each piece that fixes, per slot, ``D <= bN``
    (cost ``beta1*D**2``) or ``D >= bN`` (``beta2*D**2``), and per cell, ``x <= w/alpha``
    (quadratic utility) or ``x >= w/alpha`` (flat).  The daily caps bound the feasible
    set, so a piece that meets it has a maximizer that uniquely solves the KKT system
    ``[H G_S^T; G_S 0]`` of some set S of at most N*T of its constraints ``G x <= r``
    (cell bounds, daily bands, the slot's piece bound).  Each such system is solved,
    refined once, and kept if its solution lies in the piece up to rounding.  With H
    replaced by its integer pattern (the same null space) a system's determinant is an
    integer, so singular systems are found with no threshold on the data's scale.
    Each solution is scored by its own piece's objective: :func:`social_welfare` would
    charge ``beta2`` to a point of the ``D <= bN`` piece that rounds past ``bN``.  As the
    cost jumps up past ``bN``, the best over all pieces is the maximum; past satiation
    the maximizer need not be unique.
    """
    n, t = scenario.num_customers, scenario.num_slots
    nt = n * t
    if nt > 3:
        raise ValueError("welfare optimum limited to N*T <= 3 variables")
    # cells run customer-major, the row-major order of x
    w, sat = scenario.w.ravel(), scenario.satiation.ravel()
    alpha = np.repeat(scenario.alpha[:, 0], t)
    slots = np.tile(np.eye(t), n)             # (T, N*T): each slot's cells
    daily = np.repeat(np.eye(n), t, axis=1)   # (N, N*T): each customer's cells
    eye = np.eye(nt)
    best, best_x = -np.inf, None
    for quad in map(np.array, itertools.product((True, False), repeat=nt)):
        lin = np.where(quad, w, 0.0)
        with np.errstate(over="ignore"):  # inf only if a flat utility overflows
            flat = float(np.sum(0.5 * w[~quad] * sat[~quad]))
        # G x <= r; each cost piece below signs the slot rows, which changes no rank.
        # Row 0 is a null constraint that pads every set to N*T rows.
        rows = np.vstack([0.0 * eye[:1], -eye[quad], eye[quad], -eye[~quad], daily, -daily,
                          slots])
        bounds = np.concatenate([np.zeros(1 + quad.sum()), sat[quad], -sat[~quad],
                                 scenario.d_max, -scenario.d_min, scenario.blocks.b * n])
        sets = np.array([s + (0,) * (nt - k) for k in range(nt + 1)
                         for s in itertools.combinations(range(1, len(rows)), k)])
        pattern = np.diag(quad * 1.0) + np.einsum("si,sj->ij", slots, slots)
        with np.errstate(divide="ignore", invalid="ignore"):
            det = _gauss_jordan(_kkt(pattern, rows[sets], sets == 0),
                                np.zeros((len(sets), 2 * nt)))[1]
        sets = sets[np.abs(det) > 0.5]
        for high in map(np.array, itertools.product((False, True), repeat=t)):
            side = np.concatenate([np.ones(len(rows) - t), np.where(high, -1.0, 1.0)])
            g, r = side[:, None] * rows, side * bounds
            beta = np.where(high, scenario.cost.beta2, scenario.cost.beta1)
            hess = (np.diag(np.where(quad, alpha, 0.0))
                    + 2.0 * np.einsum("si,s,sj->ij", slots, beta, slots))
            scale = hess.max()  # the system of H/scale, lin/scale has the same x
            kkt = _kkt(hess / scale, g[sets], sets == 0)
            rhs = np.hstack([np.tile(lin / scale, (len(sets), 1)), r[sets]])
            z = _gauss_jordan(kkt, rhs)[0]
            x = (z + _gauss_jordan(kkt, rhs - np.einsum("cij,cj->ci", kkt, z))[0])[:, :nt]
            tol = 1e-9 * (nt * np.abs(x).max(axis=1, keepdims=True) + np.abs(r))
            x = x[np.all(np.einsum("ci,ri->cr", x, g) - r <= tol, axis=1)]
            value = (np.einsum("ci,i->c", x, lin) + flat
                     - 0.5 * np.einsum("ci,ij,cj->c", x, hess, x))
            if value.size and value.max() > best:
                best, best_x = float(value.max()), x[np.argmax(value)]

    return _solution(scenario, np.maximum(best_x, 0.0).reshape(n, t), best, "piecewise-exact")


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
