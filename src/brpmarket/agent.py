"""The customers' price response on the whole (N, T) allocation: the
projected-gradient step, the batched daily-band projection, net utility,
and equilibrium (KKT) residuals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Allocation, PriceSchedule, Scenario, utility_gradient, utility_value

# A per-slot bound (x = b, x = 0), resp. a daily bound, counts as active within this margin.
_ACTIVE_TOL, _DAILY_ACTIVE_TOL = 1e-9, 1e-7


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
    with np.errstate(over="ignore"):  # see _onto_band
        return _onto_band(np.asarray(x, dtype=float), d_min, d_max)


def _onto_band(x: np.ndarray, d_min, d_max) -> np.ndarray:
    """:func:`project_band` of a float array; the result never shares memory
    with ``x``.  An overflow is harmless here: a row whose sum overflows to inf
    shifts, and an entry that overflows below its row's maximum ends at 0."""
    clipped = np.maximum(x, 0.0)
    total = clipped.sum(axis=1)
    # NaN sums and bounds shift; so does every row with d_min > d_max, checked below
    shift = ~((d_min <= total) & (total <= d_max))
    if not shift.any():
        return clipped
    every = shift.all()
    if not every:  # only the rows that shift are sorted
        n = len(total)
        d_min = np.broadcast_to(np.asarray(d_min, dtype=float), (n,))[shift]
        d_max = np.broadcast_to(np.asarray(d_max, dtype=float), (n,))[shift]
        x, total = x[shift], total[shift]
    if np.greater(d_min, d_max).any():
        raise ValueError("infeasible constraint set: d_min exceeds d_max")

    # Entries are measured from their row's maximum, so that an entry
    # dwarfing the band cannot round the radius away in the sums below.
    t = x.shape[1]
    radius = np.clip(total, d_min, d_max)
    desc = np.sort(x, axis=1)[:, ::-1]
    top = desc[:, :1].copy()
    desc -= top
    rows = x - top
    excess = desc.cumsum(axis=1) - radius[:, None]
    # The entries still positive after the shift are a prefix of the sorted
    # row; the first always is, whatever rounding says.
    positive = desc - excess / np.arange(1, t + 1) > 0
    positive[:, 0] = True
    count = t - positive[:, ::-1].argmax(axis=1)
    rows -= (excess[np.arange(count.size), count - 1] / count)[:, None]
    np.maximum(rows, 0.0, out=rows)
    # A cap of 0 or below leaves only zeros; the sort formula would chase a negative sum.
    if not (radius > 0).all():
        rows[~(radius > 0)] = 0.0
    if every:  # no scatter: the shifted rows are the result
        return rows
    clipped[shift] = rows
    return clipped


class _StepKernel:
    """:func:`step_profile` for every step of one loop, in (N, T) work buffers
    kept for the run.  :meth:`split` computes an iterate's ``low = min(x, b)``,
    ``high = max(x, b)`` and ``flat = ~(x < w/alpha)`` once, for its prices,
    welfare and step.  Run it with over/invalid errors ignored: ``step`` checks."""

    def __init__(self, scenario: Scenario, gamma: float):
        self.scenario, self.gamma = scenario, gamma
        self.low, self.high, self.grad, self.raw = (np.empty(scenario.w.shape) for _ in range(4))
        self.flat = np.empty(scenario.w.shape, dtype=bool)

    def split(self, x: np.ndarray) -> None:
        b = self.scenario.blocks.b
        np.minimum(x, b, out=self.low)
        np.maximum(x, b, out=self.high)
        np.logical_not(np.less(x, self.scenario.satiation, out=self.flat), out=self.flat)

    def step(self, x: np.ndarray, prices: PriceSchedule) -> np.ndarray:
        """:func:`step_profile` of the ``x`` that :meth:`split` last saw; a new array."""
        s, gamma, grad = self.scenario, self.gamma, self.grad
        b = s.blocks.b
        np.subtract(s.w, np.multiply(s.alpha, x, out=grad), out=grad)  # U'(x), 0 where flat
        if self.flat.any():
            grad[self.flat] = 0.0
        y = np.multiply(gamma, np.subtract(grad, prices.p_l, out=self.raw), out=self.raw)
        y = np.minimum(np.add(self.low, y, out=y), b, out=y)
        z = np.multiply(gamma, np.subtract(grad, prices.p_u, out=grad), out=grad)
        z = np.maximum(np.add(self.high, z, out=z), b, out=z)
        raw = np.subtract(np.add(y, z, out=y), b, out=y)
        if not np.isfinite(raw).all():
            raise FloatingPointError("raw consumption must be finite")
        return _onto_band(raw, s.d_min, s.d_max)

    def max_change(self, new_x: np.ndarray, x: np.ndarray) -> float:
        """``max(abs(new_x - x))``, formed in a work buffer."""
        diff = np.subtract(new_x, x, out=self.grad)
        return float(np.abs(diff, out=diff).max())


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
    unnoticed.  ``x`` must be nonnegative, as every projected iterate is; unchecked.
    The market loop and the centralized oracle take this step through
    ``_StepKernel``, which reuses the block split their prices were computed from.
    """
    if gamma < 0:
        raise ValueError("step size must be nonnegative")
    kernel = _StepKernel(scenario, gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # the step checks its result
        kernel.split(x)
        return kernel.step(x, prices)


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
    return _residual(scenario, alloc, mult, *_free_gaps(scenario, alloc, prices))


def _residual(scenario, alloc, mult, gap_y, gap_z, y_free, z_free) -> KktResidual:
    shift = np.reshape(mult.lambda1 - mult.lambda2, (-1, 1))
    total = alloc.x.sum(axis=1)
    return KktResidual(
        stationarity_y=float(np.max(np.abs(gap_y - shift), where=y_free, initial=0.0)),
        stationarity_z=float(np.max(np.abs(gap_z - shift), where=z_free, initial=0.0)),
        comp_slack_1=float(np.max(np.abs(mult.lambda1 * (total - scenario.d_max)))),
        comp_slack_2=float(np.max(np.abs(mult.lambda2 * (scenario.d_min - total)))),
    )


def recover_multipliers(scenario: Scenario, alloc: Allocation, prices: PriceSchedule,
                        active_tol: float = _DAILY_ACTIVE_TOL) -> KktMultipliers:
    """Active-set multiplier estimate for the daily energy constraints.

    For a customer whose d_max (resp. d_min) constraint is active, lambda1
    (resp. lambda2) is the average stationarity gap over slots with inactive
    block bounds; otherwise both of its multipliers are zero.
    """
    return _multipliers(scenario, alloc, active_tol, *_free_gaps(scenario, alloc, prices))


def _multipliers(scenario, alloc, active_tol, gap_y, gap_z, y_free, z_free) -> KktMultipliers:
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
    """Largest equilibrium-condition violation across all customers; the
    stationarity gaps are computed once, for the multipliers and the residual."""
    gaps = _free_gaps(scenario, alloc, prices)
    mult = _multipliers(scenario, alloc, _DAILY_ACTIVE_TOL, *gaps)
    return _residual(scenario, alloc, mult, *gaps).worst()
