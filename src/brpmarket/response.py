"""The customers' exact best responses to the marginal-cost block prices at a slot demand
D, summed into the slot demand they ask for, and that sum's Jacobian in D: the pieces
of the centralized oracle's equilibrium solver, :func:`oracle.solve_welfare_centralized`.
They share no code with the market's step or its projection."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .model import Scenario


def _respond(s: Scenario, demand: np.ndarray) -> SimpleNamespace:
    """Every customer's best response to the block prices ``2*beta*D`` at slot demand D: at
    band multiplier lam a cell buys its first block to ``(w - p_l - lam)/alpha`` in [0, b]
    and its excess to ``(w - p_u - lam)/alpha - b``, or, at an effective price of 0, any
    point of its flat stretch past satiation.  lam is 0 if the row's sum is in its band,
    else the least shift that puts it there, from the row sum's 5T sorted knots: the cells'
    kinks, and their jumps onto the flat stretch at ``lam = -p_l`` and ``-p_u``.  A floor met
    on a jump ``pin``s lam there; the row's flat cells of that block stand at the stretch's
    start, sharing the floor's ``rest`` up to their ``room``.  A ``free`` cell's price
    slope is ``g = 2*beta/alpha``."""
    (n, t), w, alpha, b = s.w.shape, s.w, s.alpha, s.b
    v = np.stack([2.0 * s.beta1, 2.0 * s.beta2])
    (p_l, p_u), lam, pin = v * demand, np.zeros(n), np.full(n, -1)
    total = (np.clip((w - p_l) / alpha, 0.0, b) + np.maximum((w - p_u) / alpha - b, 0.0)).sum(1)
    if (moves := (total < s.d_min) | (total > s.d_max)).any():
        wm, am, rows = w[moves], alpha[moves], np.arange(np.count_nonzero(moves))[:, None]
        top, zero = np.maximum(wm - am * b, 0.0), np.zeros_like(wm)
        knots = np.hstack([wm, top, zero, top, zero]) - np.concatenate([p_l, p_l, p_l, p_u, p_u])
        order = np.argsort(-knots, axis=1)  # lam falling, the row sum rising
        knots = knots[rows, order]
        slope = np.repeat([1.0, -1.0, 0.0, 1.0, -1.0], t)[order].cumsum(axis=1) / am
        jump = np.hstack([zero, zero, np.maximum(b - wm / am, 0.0), zero, zero + np.inf])
        rise = np.pad(slope[:, :-1] * -np.diff(knots), ((0, 0), (1, 0)))
        level = np.cumsum(jump[rows, order] + rise, axis=1)  # the sum just below each knot
        above = np.pad(level[:, :-1], ((0, 0), (1, 0))) + rise  # and just above it

        def reach(d):  # the largest lam at which the row sum reaches d, and the knot if a jump
            j = (level < d[:, None]).sum(axis=1, keepdims=True)
            k, jumped = np.maximum(j - 1, 0), above[rows, j] < d[:, None]
            at = np.where(jumped, knots[rows, j], knots[rows, k]
                          - (d[:, None] - level[rows, k]) / slope[rows, k])
            return np.maximum(at, knots[rows, j])[:, 0], np.where(jumped, order[rows, j], -1)[:, 0]

        floor, knot = reach(s.d_min[moves])
        lam[moves] = np.minimum(np.maximum(reach(s.d_max[moves])[0], 0.0), floor)
        pin[moves] = np.where(lam[moves] == floor, knot, -1)
    q_l, q_u = p_l + lam[:, None], p_u + lam[:, None]
    flat = (pin >= 0)[:, None] & (w < alpha * b)
    y = np.where(q_l < 0, np.where(flat, w / alpha, b), np.clip((w - q_l) / alpha, 0.0, b))
    x = y + np.maximum((w - q_u) / alpha - b, 0.0)
    free = np.stack([(q_l > 0) & (w - q_l > 0) & (w - q_l < alpha * b),
                     (q_u > 0) & (w - q_u > alpha * b)])
    return SimpleNamespace(
        x=x, lam=lam, pin=pin, v=v, free=free.any(axis=0),
        g=np.einsum("kit,kt->it", free, v) / alpha, room=np.where(flat, b - y, 0.0),
        rest=np.where(pin >= 0, np.maximum(s.d_min - x.sum(axis=1), 0.0), 0.0))


def _fill(base, v, room, total):
    """The water-filling m >= 0, summing to ``total``, that fills each slot's first-block
    ``room`` at the price ``v[0]*(base + m)`` and then its excess at ``v[1]*(base + m)``,
    the cheapest first, and the price level it reaches."""
    ends = base + room
    knots = np.concatenate([v[0] * base, v[0] * ends, v[1] * ends])
    order = np.argsort(knots)
    slope = np.concatenate([1.0 / v[0], -1.0 / v[0], 1.0 / v[1]])[order].cumsum()
    knots = knots[order]
    filled = np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(knots))])
    j = max(np.count_nonzero(filled < total) - 1, 0)
    level = knots[j] + (total - filled[j]) / slope[j]
    return np.clip(level / v[0] - base, 0.0, room) + np.maximum(level / v[1] - ends, 0.0), level


def _excess(s: Scenario, demand: np.ndarray) -> SimpleNamespace:
    """``F(D) = D - G(D)``, G the best responses' slot demand, the pinned rows' rests shared
    by water-filling, one fill per group of rows with the same flat first blocks and pinned
    block, the fills repeated in turn until none moves.  Adds F, the answer x and groups."""
    st = _respond(s, demand)
    base, extras, st.groups = st.x.sum(axis=0), np.zeros_like(st.x), []
    pinned, t = np.flatnonzero(st.pin >= 0), len(base)
    keys = np.column_stack([st.room[pinned] > 0, st.pin[pinned] >= 4 * t])
    for key in np.unique(keys, axis=0) if pinned.size else ():
        rows = pinned[(keys == key).all(axis=1)]
        st.groups.append(SimpleNamespace(rows=rows, room=st.room[rows].sum(axis=0),
                                         total=st.rest[rows].sum(), fill=0.0 * base))
    for _ in range(100 if st.groups else 0):
        before = [g.fill for g in st.groups]
        for g in st.groups:
            g.others = base + sum(other.fill for other in st.groups) - g.fill
            g.fill, g.level = _fill(g.others, st.v, g.room, g.total)
        if all(np.array_equal(fill, g.fill) for fill, g in zip(before, st.groups)):
            break
    st.fits = True  # each row's share fits its own first blocks, or fills them
    for g in st.groups:
        share = extras[g.rows] = st.rest[g.rows, None] / (g.total or 1.0) * g.fill
        full = g.level > st.v[1] * (g.others + g.room)
        st.fits &= bool(np.all(np.where(full, share >= st.room[g.rows], share <= st.room[g.rows])))
    st.answer, st.F = st.x + extras, demand - base - extras.sum(axis=0)
    return st


def _jacobian(s: Scenario, st: SimpleNamespace) -> np.ndarray:
    """``dF/dD = I - dG/dD``: a free cell's response falls by g per unit of its slot's
    demand, less its row's multiplier, which a binding row moves by its free cells' mean
    price change and a pinned row by its pinned cell's: ``-diag(sum g) + sum_i f_i h_i^T``.
    A slot inside a group's fill takes the fill's level, shared by the groups that fill it.
    In einsum, not BLAS."""
    count, t, pinned = st.free.sum(axis=1), st.x.shape[1], np.flatnonzero(st.pin >= 0)
    h = np.where((st.lam != 0) & (st.pin < 0), 1.0 / np.maximum(count, 1), 0.0)[:, None] * st.g
    slot = st.pin[pinned] % t
    h[pinned, slot] += st.v[st.pin[pinned] // (4 * t), slot] / s.alpha[pinned, 0]
    jac = np.einsum("it,is->ts", st.free * 1.0, h) - np.diag(st.g.sum(axis=0))
    out = jac.copy()
    fills = []  # per group, 1/v where its fill holds the slot at its level, D = level/v
    for g in st.groups:
        ends = g.others + g.room
        fills.append((np.where(g.level > st.v[1] * ends, 1.0 / st.v[1], np.where(
            (st.v[0] * g.others < g.level) & (g.level < st.v[0] * ends), 1.0 / st.v[0], 0.0)),
            g.rows))
    while fills:  # groups filling a common slot move together, at one level rescaled there
        (per, rows), apart = fills.pop(), []
        for other, more in fills:
            if (common := (other > 0) & (per > 0)).any():
                k = np.argmax(common)
                per, rows = np.maximum(per, other * per[k] / other[k]), np.r_[rows, more]
            else:
                apart.append((other, more))
        if len(apart) < len(fills):
            fills = apart + [(per, rows)]  # the merged group may meet one passed before
        elif (filling := per > 0).any():
            rise = np.einsum("t,ts->s", filling, jac) + (st.g - count[:, None] * h)[rows].sum(0)
            out[filling] = per[filling, None] * rise / per.sum()
    return np.eye(t) - out
