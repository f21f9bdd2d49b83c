"""The customers' price response on the whole (N, T) allocation: the
projected-gradient step, the batched daily-band projection, net utility,
and the equilibrium (KKT) certificate."""

from __future__ import annotations

import numpy as np

from .model import Allocation, PriceSchedule, Scenario, utility_gradient, utility_value


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


def _onto_blocks(a: np.ndarray, c: np.ndarray, b: np.ndarray, d_min, d_max):
    """The lifted block-band projection: ``clip(a - s, 0, b) + max(c - s, 0)``
    with one shift ``s`` per row that puts the row sum in ``[d_min, d_max]``,
    the least in size.  Returns the (N, T) projection and the shifts, shape (N,).

    Only rows whose unshifted sum leaves the band shift.  Their sum is piecewise
    linear in ``s`` with knots ``c``, ``a - b`` and ``a``; the 3T knots are sorted and
    the sum walked down from the largest (Kiwiel, "Breakpoint searching algorithms
    for the continuous quadratic knapsack problem", Math. Programming 2008).
    """
    proj = np.clip(a, 0.0, b) + np.maximum(c, 0.0)
    total = proj.sum(axis=1)
    shift = np.zeros(len(total))
    cap = total > d_max
    moves = cap | (total < d_min)
    if not moves.any():
        return proj, shift
    target = np.where(cap, d_max, d_min)
    a, c, cap, target = a[moves], c[moves], cap[moves], target[moves]  # only these are sorted
    # measured from the row maximum, an entry dwarfing the band cannot round the target away
    top = np.maximum(a, c).max(axis=1, keepdims=True)
    a, c = a - top, c - top
    knots = np.concatenate([c, a - b, a], axis=1)
    # below a knot of c or a one more piece slopes, below one of a - b one fewer;
    # tied knots bound no segment, so their order does not matter
    order = np.argsort(knots, axis=1)[:, ::-1]
    desc = np.take_along_axis(knots, order, axis=1)
    slope = np.repeat([1.0, -1.0, 1.0], a.shape[1])[order].cumsum(axis=1)
    level = np.zeros_like(desc)  # the row sum at each knot
    np.cumsum(slope[:, :-1] * (desc[:, :-1] - desc[:, 1:]), axis=1, out=level[:, 1:])
    # the segment holding the least shift: a cap's last knot with sum <= d_max,
    # a floor's last knot with sum < d_min
    target = target[:, None]
    j = np.where(cap[:, None], level <= target, level < target).sum(axis=1, keepdims=True) - 1
    knot, level, slope = (np.take_along_axis(v, j, axis=1) for v in (desc, level, slope))
    s = knot - (target - level) / slope
    rows = np.clip(a - s, 0.0, b) + np.maximum(c - s, 0.0)
    proj[moves], shift[moves] = rows, (s + top)[:, 0]
    return proj, shift


def _natural_map(scenario: Scenario, alloc: Allocation, prices: PriceSchedule):
    """``P(x + U'(x))`` and its band shifts: ``P`` projects the lifted pair ``(x + U' - p_l,
    x + U' - p_u - b)`` onto ``0 <= y <= b``, ``z >= 0`` and the daily band of ``y + z``."""
    x, b = alloc.x, scenario.blocks.b
    ahead = x + utility_gradient(x, scenario.w, scenario.alpha)
    return _onto_blocks(ahead - prices.p_l, ahead - prices.p_u - b, b,
                        scenario.d_min, scenario.d_max)


def recover_multipliers(scenario: Scenario, alloc: Allocation,
                        prices: PriceSchedule) -> np.ndarray:
    """Each customer's daily-band multiplier, shape (N,): the shift of the projection
    in :func:`worst_kkt_residual`, positive at a binding cap, negative at a binding
    floor, else 0.  At an equilibrium it is the band's exact shadow price."""
    return _natural_map(scenario, alloc, prices)[1]


def worst_kkt_residual(scenario: Scenario, alloc: Allocation,
                       prices: PriceSchedule) -> float:
    """The natural-map residual ``max|x - P(x + U'(x))|`` at the posted prices, with
    ``P`` the lifted block-band projection of :func:`_natural_map`.  It is 0 exactly
    when ``x`` meets every customer's equilibrium (KKT) conditions at these prices
    (Facchinei & Pang, "Finite-Dimensional Variational Inequalities and
    Complementarity Problems", 2003, sec. 1.5)."""
    return float(np.abs(alloc.x - _natural_map(scenario, alloc, prices)[0]).max())
