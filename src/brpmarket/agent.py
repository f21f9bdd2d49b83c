"""The customers' price response on the whole (N, T) allocation: the
projected-gradient step, the batched daily-band projection, net utility,
and the equilibrium (KKT) certificate, all through one lifted projection of
each slot's first block ``y = min(x, b)`` and excess ``z' = max(x - b, 0)``."""

from __future__ import annotations

import math

import numpy as np

from .model import Allocation, PriceSchedule, Scenario, utility_gradient, utility_value

_NEWTON_STEPS = 4  # evaluations from a warm shift before a row falls back to the sort
_NEWTON_RTOL = 2.0 ** -46  # a row settles when |sum - bound| <= this * |bound|


def project_band(x: np.ndarray, d_min, d_max) -> np.ndarray:
    """Euclidean projection of each row of ``x`` (N, T) onto ``{x >= 0, d_min <= sum(x)
    <= d_max}``, bounds scalar or (N,): :func:`_onto_blocks` with no first block.  A
    row whose clipped sum is in its band is only clipped; any other (an overflowing
    one too) becomes ``max(x - s, 0)``, ``s`` the shift onto the violated edge.  No
    entry of ``x`` may be NaN or inf, nor a bound NaN, ``d_min`` inf or ``d_max`` < 0."""
    if not np.less_equal(d_min, d_max).all():  # false for a NaN bound too
        raise ValueError("infeasible constraint set: d_min exceeds d_max, or a bound is NaN")
    if not (np.less(d_min, math.inf) & np.greater_equal(d_max, 0)).all():
        raise ValueError("the band has no finite point: d_min is inf or d_max negative")
    if not np.isfinite(x := np.asarray(x, dtype=float)).all():
        raise ValueError("x must be finite (no NaN or inf)")
    with np.errstate(over="ignore"):
        return _onto_blocks(x, x, 0.0, d_min, d_max)[0]


class _StepKernel:
    """:func:`step_profile` for every step of one loop, in (N, T) work buffers kept
    for the run.  :meth:`split` computes an iterate's ``low = min(x, b)``, ``high =
    max(x - b, 0)`` and ``sated = x >= w/alpha`` (None if it holds nowhere) for its
    step, and its slot ``demand = x.sum(0)`` for its prices, with the run's ``2*beta``
    and, tiled to (N, T), ``b`` and ``alpha``.  Its projections start from each row's
    last band ``shift``, with the pair's ``upper`` bounds ``[b, inf)`` tiled to (N, 2T),
    in ``sides`` what depends only on which edges bind, and Newton's buffers."""

    def __init__(self, scenario: Scenario, gamma: float):
        self.scenario, self.gamma = scenario, gamma
        self.low, self.high, self.grad, self.raw = (np.empty(scenario.w.shape) for _ in range(4))
        self.flat, self.sated = np.empty(scenario.w.shape, dtype=bool), None
        (n, t), b = scenario.w.shape, scenario.blocks.b  # tiled: one shape is the fastest
        upper = np.concatenate([b, np.full(t, np.inf)])
        self.shift, self.upper, self.sides = np.zeros(n), np.tile(upper, (n, 1)), None
        self.ones, self.clipped = np.ones(2 * t), np.empty((n, 2 * t))
        self.two_beta = 2.0 * scenario.cost.beta1, 2.0 * scenario.cost.beta2
        self.b, self.alpha = np.tile(b, (n, 1)), np.repeat(scenario.alpha, t, axis=1)

    def split(self, x: np.ndarray) -> None:
        np.minimum(x, self.b, out=self.low)
        np.maximum(np.subtract(x, self.b, out=self.high), 0.0, out=self.high)
        flat = np.greater_equal(x, self.scenario.satiation, out=self.flat)
        self.sated = flat if flat.any() else None
        self.demand = x.sum(axis=0)

    def step(self, x: np.ndarray, prices: PriceSchedule) -> np.ndarray:
        """:func:`step_profile` of the ``x`` that :meth:`split` last saw; a new array."""
        s, gamma, grad = self.scenario, self.gamma, self.grad
        np.subtract(s.w, np.multiply(self.alpha, x, out=grad), out=grad)  # U'(x), 0 where sated
        if self.sated is not None:
            grad[self.sated] = 0.0
        a = np.multiply(gamma, np.subtract(grad, prices.p_l, out=self.raw), out=self.raw)
        a = np.add(self.low, a, out=a)
        c = np.multiply(gamma, np.subtract(grad, prices.p_u, out=grad), out=grad)
        c = np.add(self.high, c, out=c)
        if not (math.isfinite(a.min()) and math.isfinite(c.max())):  # y at -inf, z at +inf, NaN
            raise FloatingPointError("the block updates must be finite")
        new_x, self.shift = _onto_blocks(a, c, self.b, s.d_min, s.d_max, warm=self)
        return new_x

    def max_change(self, new_x: np.ndarray, x: np.ndarray) -> float:
        """``max(abs(new_x - x))``, formed in a work buffer."""
        diff = np.subtract(new_x, x, out=self.grad)
        return float(np.abs(diff, out=diff).max())


def step_profile(x: np.ndarray, prices: PriceSchedule, gamma: float,
                 scenario: Scenario) -> np.ndarray:
    """One projected-gradient update of every customer's daily profile.

    Per slot ``y = min(x, b)`` and ``z' = max(x - b, 0)`` step by ``gamma*(U'(x) - p_l)``
    and ``gamma*(U'(x) - p_u)``; the pair is projected at once onto ``0 <= y <= b``,
    ``z' >= 0`` and the daily band of ``x = y + z'`` (:func:`_onto_blocks`), so the
    fixed points are exactly the equilibria (KKT points) at these prices, for every
    ``gamma > 0``.  Returns the new (N, T) consumption; ``x >= 0`` is unchecked.  A
    step that overflows or projects to a non-finite point raises ``FloatingPointError``,
    without numpy's warnings.  The market iteration steps a warm-started
    ``_StepKernel``; this function starts cold."""
    if not 0 <= gamma < math.inf:  # false for NaN too
        raise ValueError(f"step size must be nonnegative and finite, got {gamma!r}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        kernel = _StepKernel(scenario, gamma)
        kernel.split(x)
        new_x = kernel.step(x, prices)
    if not np.isfinite(new_x).all():
        raise FloatingPointError("the projected step must be finite")
    return new_x


def net_utility(x: np.ndarray, prices: PriceSchedule, scenario: Scenario) -> np.ndarray:
    """Each customer's utility minus block payments, shape (N,):
    ``sum_t U(x) - p_l*min(x, b) - p_u*max(x - b, 0)``."""
    b = scenario.blocks.b
    util = utility_value(x, scenario.w, scenario.alpha)
    payment = prices.p_l * np.minimum(x, b) + prices.p_u * np.maximum(x - b, 0.0)
    return np.sum(util - payment, axis=1)


def _onto_blocks(a: np.ndarray, c: np.ndarray, b, d_min, d_max, warm=None):
    """The lifted block-band projection ``x = clip(a - s, 0, b) + max(c - s, 0)`` of the
    pair ``(y, z') = (a, c)`` onto ``0 <= y <= b``, ``z' >= 0`` and the daily band of
    ``x = y + z'``: the least shift ``s`` per row that puts its sum in ``[d_min, d_max]``,
    0 inside; ``b`` is scalar, (T,) or (N, T).  Returns x (N, T) and the shifts (N,).

    A row's sum falls piecewise linearly in ``s``, by the count of cells with ``0 <
    y < b`` or ``z' > 0``.  With a ``warm`` start (a ``_StepKernel``) a row shifted
    there takes Newton steps (Cominetti et al., Math. Prog. Comp. 2014); any other,
    and one that does not settle, is checked unshifted, and one outside its band
    sorts its 3T knots ``c``, ``a - b``, ``a`` (Kiwiel, Math. Prog. 2008)."""
    n, t = a.shape
    if warm is not None and np.count_nonzero(warm.shift):
        pair, shift, settled = _newton_rows(np.concatenate([a, c], axis=1), d_min, d_max, warm)
        x = pair[:, :t] + pair[:, t:]
        if np.count_nonzero(settled) < n:
            rest = ~settled
            x[rest], shift[rest] = _onto_blocks(a[rest], c[rest], *(np.broadcast_to(
                v, shape)[rest] for v, shape in ((b, a.shape), (d_min, n), (d_max, n))))
        return x, shift
    x = np.maximum(c, 0.0)
    x += np.maximum(np.minimum(a, b), 0.0)
    shift = np.zeros(n)
    total = x.sum(axis=1)
    cap = total > d_max
    moves = cap | (total < d_min)
    if np.count_nonzero(moves):
        b = np.broadcast_to(b, a.shape)[moves]
        x[moves], shift[moves] = _sorted_rows(a[moves], c[moves], b,
                                              np.where(cap, d_max, d_min)[moves], cap[moves])
    return x, shift


def _newton_rows(pair, d_min, d_max, warm):
    """Newton steps on ``pair``, (a, c) side by side, from the shifts of ``warm`` to the
    band edge of each one's sign.  Returns the clipped pair, the shifts and which rows
    settled: at a shift of the warm sign whose sum meets the edge to ``tol``, with a cell
    sloping ``tol`` either side so no flat stretch hides a lesser shift; else unshifted."""
    s, upper = warm.shift, warm.upper
    cap, cold = s > 0, s == 0
    if warm.sides is None or warm.sides[0] != cap.tobytes():  # first use, or an edge changed
        tol = _NEWTON_RTOL * np.abs(target := np.where(cap, d_max, d_min))
        warm.sides = cap.tobytes(), target, tol, tol.max(), upper - tol.max()
    _, target, tol, inner_lo, inner_hi = warm.sides
    ones, clipped, some_cold = warm.ones, warm.clipped, np.count_nonzero(cold) > 0
    for k in range(_NEWTON_STEPS):
        np.subtract(pair, s[:, None], out=clipped)
        np.maximum(np.minimum(clipped, upper, out=clipped), 0.0, out=clipped)
        total = np.dot(clipped, ones)
        if not k and some_cold:
            target = np.where(cold, np.clip(total, d_min, d_max), target)
        excess = total - target
        slope = np.dot((inner_lo < clipped) & (clipped < inner_hi), ones)
        settled = np.abs(excess) <= tol  # a flat one fails the slope test at the end
        if np.count_nonzero(settled) == len(s):
            break
        excess[settled | cold if some_cold else settled] = 0.0
        s = s + excess / np.maximum(slope, 1.0)
    return clipped, s, settled & ((slope > 0) | cold) & ((s > 0) == cap)


def _sorted_rows(a, c, b, target, cap):
    """The rows of :func:`_onto_blocks` that leave their band, solved exactly;
    ``target`` is the violated edge, a cap where ``cap``.  Returns x and shifts."""
    # measured from the row maximum, an entry dwarfing the band cannot round the target away
    top = np.maximum(a, c).max(axis=1, keepdims=True)
    a, c = a - top, c - top
    # the knots c, a - b, a, negated to sort down from the largest; below c or a one
    # more piece slopes, below a - b one fewer; ties bound no segment
    knots = np.concatenate([-c, b - a, -a], axis=1)
    order = np.argsort(knots, axis=1)
    rows = np.arange(len(a))[:, None]
    desc = -knots[rows, order]
    slope = np.repeat([1.0, -1.0, 1.0], a.shape[1])[order].cumsum(axis=1)
    level = np.zeros_like(desc)  # the row sum at each knot
    # levels from an inf knot on, which sorts last, are inf or NaN (inf - inf): below no target
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(slope[:, :-1] * (desc[:, :-1] - desc[:, 1:]), axis=1, out=level[:, 1:])
    # the segment of the least shift: a cap's last knot with sum <= d_max, a floor's < d_min
    target = target[:, None]
    j = np.where(cap[:, None], level <= target, level < target).sum(axis=1, keepdims=True) - 1
    s = desc[rows, j] - (target - level[rows, j]) / slope[rows, j]
    x = np.maximum(np.minimum(a - s, b), 0.0) + np.maximum(c - s, 0.0)
    return x, (s + top)[:, 0]


def _natural_map(scenario: Scenario, alloc: Allocation, prices: PriceSchedule):
    """``P(x + U'(x))`` and its band shifts, ``P`` the lifted projection of the pair
    ``(x + U' - p_l, x + U' - b - p_u)``: :func:`_onto_blocks` at step 1, started cold."""
    x, b = alloc.x, scenario.blocks.b
    ahead = x + utility_gradient(x, scenario.w, scenario.alpha)
    return _onto_blocks(ahead - prices.p_l, ahead - b - prices.p_u, b,
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
