"""The customers' price response on the whole (N, T) allocation: the
projected-gradient step, the batched daily-band projection, net utility,
and equilibrium (KKT) residuals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Allocation, PriceSchedule, Scenario, utility_gradient, utility_value

# A per-slot bound (x = b, x = 0) counts as active within this margin.
_ACTIVE_TOL = 1e-9


@dataclass(frozen=True)
class KktMultipliers:
    """Per-customer multipliers, shape (N,), for the daily d_max (lambda1)
    and d_min (lambda2) constraints."""

    lambda1: np.ndarray
    lambda2: np.ndarray


@dataclass(frozen=True)
class KktResidual:
    """Max-norm violations of the four equilibrium conditions over all customers."""

    stationarity_y: float
    stationarity_z: float
    comp_slack_1: float
    comp_slack_2: float

    def worst(self) -> float:
        return max(self.stationarity_y, self.stationarity_z,
                   self.comp_slack_1, self.comp_slack_2)


def project_band(x: np.ndarray, d_min, d_max) -> np.ndarray:
    """Euclidean projection of each row of ``x`` onto ``{x >= 0, d_min <= sum(x) <= d_max}``.

    ``x`` has shape (N, T); the bounds are scalars or shape (N,).  A row
    whose clipped sum lies in its band is only clipped.  Any other row
    becomes ``max(x - tau, 0)`` with the exact shift ``tau`` that puts its
    sum on the violated edge, found by sorting the row (Duchi et al.,
    "Efficient projections onto the l1-ball for learning in high
    dimensions", ICML 2008).
    """
    x = np.asarray(x, dtype=float)
    n, t = x.shape
    d_min = np.broadcast_to(np.asarray(d_min, dtype=float), (n,))
    d_max = np.broadcast_to(np.asarray(d_max, dtype=float), (n,))
    if np.any(d_min > d_max):
        raise ValueError("infeasible constraint set: d_min exceeds d_max")
    clipped = np.maximum(x, 0.0)
    total = clipped.sum(axis=1)
    target = np.clip(total, d_min, d_max)
    shift = total != target
    if not np.any(shift):
        return clipped

    rows, radius = x[shift], target[shift]
    desc = -np.sort(-rows, axis=1)
    excess = np.cumsum(desc, axis=1) - radius[:, None]
    # The entries still positive after the shift are a prefix of the sorted
    # row; the first always is, whatever rounding says.
    positive = desc - excess / np.arange(1, t + 1) > 0
    positive[:, 0] = True
    count = t - np.argmax(positive[:, ::-1], axis=1)
    tau = excess[np.arange(rows.shape[0]), count - 1] / count
    # A zero cap leaves only zeros (tau = max(row)), which the sort formula misses.
    clipped[shift] = np.where(radius[:, None] > 0,
                              np.maximum(rows - tau[:, None], 0.0), 0.0)
    return clipped


def step_profile(x: np.ndarray, prices: PriceSchedule, gamma: float,
                 scenario: Scenario) -> np.ndarray:
    """One projected-gradient update of every customer's daily profile.

    Per slot the block variables ``y = min(x, b)`` and ``z = max(x, b)``
    step by ``gamma*(U'(x) - p_l)`` and ``gamma*(U'(x) - p_u)`` and are then
    clipped to their block bounds (``y <= b``, ``z >= b``), so that a block
    variable sitting at its bound cannot drag consumption through the other
    block's price.  The rebuilt consumption ``y + z - b`` is projected onto
    each customer's daily band.  Returns the new (N, T) consumption.  An
    overflowing step raises ``FloatingPointError``, without numpy's overflow
    warnings, before the projection, which would clip a ``-inf`` entry to 0
    unnoticed.
    """
    if gamma < 0:
        raise ValueError("step size must be nonnegative")
    b = scenario.blocks.b
    grad = utility_gradient(x, scenario.w, scenario.alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        y = np.minimum(np.minimum(x, b) + gamma * (grad - prices.p_l), b)
        z = np.maximum(np.maximum(x, b) + gamma * (grad - prices.p_u), b)
        raw = y + z - b
    if not np.all(np.isfinite(raw)):
        raise FloatingPointError("raw consumption must be finite")
    return project_band(raw, scenario.d_min, scenario.d_max)


def net_utility(x: np.ndarray, prices: PriceSchedule, scenario: Scenario) -> np.ndarray:
    """Each customer's utility minus block payments, shape (N,):
    ``sum_t U(x) - p_l*min(x, b) - p_u*(max(x, b) - b)``."""
    b = scenario.blocks.b
    util = utility_value(x, scenario.w, scenario.alpha)
    payment = prices.p_l * np.minimum(x, b) + prices.p_u * (np.maximum(x, b) - b)
    return np.sum(util - payment, axis=1)


def _free_gaps(scenario: Scenario, alloc: Allocation, prices: PriceSchedule):
    """Stationarity gaps ``U' - p_l`` and ``U' - p_u`` with the slots where
    consumption is positive and below (resp. above) ``b``, so that the first
    (resp. second) block variable is off its bound."""
    x, b = alloc.x, scenario.blocks.b
    grad = utility_gradient(x, scenario.w, scenario.alpha)
    positive = x > _ACTIVE_TOL
    y_free = positive & (x < b - _ACTIVE_TOL)
    z_free = positive & (x > b + _ACTIVE_TOL)
    return grad - prices.p_l, grad - prices.p_u, y_free, z_free


def kkt_residual(scenario: Scenario, alloc: Allocation, prices: PriceSchedule,
                 mult: KktMultipliers) -> KktResidual:
    """Equilibrium-condition violations, worst over all customers.

    Stationarity in the first block is checked on slots with positive
    consumption below ``b``, and in the second block on slots above ``b``.
    Slots at an active bound are absorbed by bound multipliers that are not
    modeled explicitly.
    """
    if np.any(mult.lambda1 < 0) or np.any(mult.lambda2 < 0):
        raise ValueError("multipliers must be nonnegative")
    gap_y, gap_z, y_free, z_free = _free_gaps(scenario, alloc, prices)
    shift = np.reshape(mult.lambda1 - mult.lambda2, (-1, 1))
    total = alloc.x.sum(axis=1)
    return KktResidual(
        stationarity_y=float(np.max(np.abs(gap_y - shift), where=y_free, initial=0.0)),
        stationarity_z=float(np.max(np.abs(gap_z - shift), where=z_free, initial=0.0)),
        comp_slack_1=float(np.max(np.abs(mult.lambda1 * (total - scenario.d_max)))),
        comp_slack_2=float(np.max(np.abs(mult.lambda2 * (scenario.d_min - total)))),
    )


def recover_multipliers(scenario: Scenario, alloc: Allocation, prices: PriceSchedule,
                        active_tol: float = 1e-7) -> KktMultipliers:
    """Active-set multiplier estimate for the daily energy constraints.

    For a customer whose d_max (resp. d_min) constraint is active, lambda1
    (resp. lambda2) is the average stationarity gap over slots with inactive
    block bounds; otherwise both of its multipliers are zero.
    """
    gap_y, gap_z, y_free, z_free = _free_gaps(scenario, alloc, prices)
    count = np.count_nonzero(y_free, axis=1) + np.count_nonzero(z_free, axis=1)
    gap_sum = (np.sum(gap_y, axis=1, where=y_free)
               + np.sum(gap_z, axis=1, where=z_free))
    mean_gap = np.divide(gap_sum, count, out=np.zeros_like(gap_sum), where=count > 0)
    total = alloc.x.sum(axis=1)
    at_cap = (total >= scenario.d_max - active_tol) & (mean_gap > 0)
    at_floor = (total <= scenario.d_min + active_tol) & (mean_gap < 0)
    return KktMultipliers(lambda1=np.where(at_cap, mean_gap, 0.0),
                          lambda2=np.where(at_floor, -mean_gap, 0.0))


def worst_kkt_residual(scenario: Scenario, alloc: Allocation,
                       prices: PriceSchedule) -> float:
    """Largest equilibrium-condition violation across all customers."""
    mult = recover_multipliers(scenario, alloc, prices)
    return kkt_residual(scenario, alloc, prices, mult).worst()
