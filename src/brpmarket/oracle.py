"""Independent certification of the market equilibrium.

Solves for the equilibrium slot demand by semismooth Newton on the customers' exact
best responses (:mod:`brpmarket.response`), finds the exact welfare maximum of tiny
instances (N*T <= 3) from the KKT systems of the welfare's concave quadratic pieces, and
compares either against a distributed run.  Each answers, as the market does, with an
:class:`~brpmarket.model.EquilibriumReport`.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

# step_profile is unused here; the benchmark's tracer wraps it in this namespace
from .agent import step_profile, worst_kkt_residual  # noqa: F401
from .model import Allocation, EquilibriumReport, Scenario, cost_value, utility_value
from .pricing import block_prices
from .response import _excess, _jacobian

BOUNDARY_TOL = 1e-6
WELFARE_TOL = 1e-4  # the welfare gap below which a comparison passes
_NEWTON_STEPS = 50  # a solve that has not settled by then is reported unconverged


@dataclass(frozen=True)
class ComparisonReport:
    """Distributed-vs-oracle agreement at the requested tolerances."""

    allocation_gap: float
    demand_gap: float
    welfare_gap: float
    passed: bool
    boundary_degenerate: bool

    def as_dict(self) -> dict:
        fields = asdict(self)
        fields["pass"] = fields.pop("passed")
        return fields


def solve_welfare_centralized(scenario: Scenario) -> EquilibriumReport:
    """The equilibrium as the root of ``F(D) = D - sum_i BR_i(p(D))`` in the T slot demands,
    by semismooth Newton (Qi & Sun, Math. Programming 1993) with backtracking on ``max|F|``,
    from the demand of unclipped first blocks.  F is piecewise affine, so the steps end at
    its root up to rounding; ``converged`` means that ``max|F|``, or the Newton step, is at
    most ``1e-12 * max D`` within ``_NEWTON_STEPS``, each pinned row's share fits its
    cells, each row's sum lies in its daily band to ``1e-12`` of that sum plus its
    satiation energy, and the welfare is finite.  Past satiation only D is unique.
    Uses no market or step code.  Its answer's ``iterations`` are the Newton steps taken,
    its ``prices`` those of its settled D, to which x is the best response (at steep prices,
    those of ``x.sum(0)`` differ by rounding), or of an unsettled x's ``x.sum(0)``, and its
    ``worst_kkt_residual`` is :func:`agent.worst_kkt_residual` of x at those prices."""
    s = scenario
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        demand = (s.w / s.alpha).sum(axis=0) / (1.0 + 2.0 * s.beta1 * (1.0 / s.alpha).sum())
        st = _excess(s, demand)
        for steps in range(_NEWTON_STEPS):
            # F, or the change in D that it asks for (F at rounding where prices are steep)
            if settled := (size := np.abs(st.F).max()) <= 1e-12 * demand.max():
                break
            delta, shrink = _gauss_jordan(_jacobian(s, st)[None], -st.F[None])[0][0], 1.0
            if settled := np.abs(delta).max() <= 1e-12 * demand.max():
                break
            while True:
                trial = _excess(s, step := np.maximum(demand + shrink * delta, 0.0))
                if np.abs(trial.F).max() < (1.0 - 1e-4 * shrink) * size or shrink < 1e-9:
                    break  # a decrease, or a last tiny step from a point without one
                shrink /= 2.0
            demand, st = step, trial
        else:
            steps, settled = _NEWTON_STEPS, np.abs(st.F).max() <= 1e-12 * demand.max()
        x, total, rows = st.answer, st.answer.sum(axis=0), st.answer.sum(axis=1)
        welfare = float(utility_value(x, s.w, s.alpha).sum()
                        - cost_value(total, s.b * s.num_customers, s.beta1, s.beta2).sum())
        slack = 1e-12 * (rows + s.satiation.sum(axis=1))  # rounding of x, or of (w - p)/alpha
    converged = bool(settled and st.fits and np.isfinite(welfare)
                     and np.all((rows >= s.d_min - slack) & (rows <= s.d_max + slack)))
    allocation = Allocation(x)
    prices = block_prices(demand if settled else total, s.beta1, s.beta2)
    return EquilibriumReport(converged, steps, allocation, prices, welfare,
                             float(worst_kkt_residual(s, allocation, prices)), s.fingerprint())


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


def welfare_optimum(scenario: Scenario) -> EquilibriumReport:
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
    the maximizer need not be unique.  All systems are stacked, in one elimination each for
    the determinants, solves and refinements; the first best in (cell piece, cost piece,
    set) order wins, a piece with a NaN score is passed over; ``ValueError`` if none is kept.
    Its answer is converged after no iterations, with the prices and KKT certificate of
    its own D."""
    n, t, nt = scenario.num_customers, scenario.num_slots, scenario.w.size
    if nt > 3:
        raise ValueError("welfare optimum limited to N*T <= 3 variables")
    # cells run customer-major, the row-major order of x
    w, sat = scenario.w.ravel(), scenario.satiation.ravel()
    alpha = np.repeat(scenario.alpha[:, 0], t)
    slots = np.tile(np.eye(t), n)             # (T, N*T): each slot's cells
    daily = np.repeat(np.eye(n), t, axis=1)   # (N, N*T): each customer's cells
    eye = np.eye(nt)
    # G x <= r, every row of some piece: a null row that pads every set to N*T rows,
    # x >= 0 and x <= w/alpha (quadratic cells), x >= w/alpha (flat cells), the bands and
    # the slots' piece bounds, which each cost piece signs; that changes no rank
    rows = np.vstack([0.0 * eye[:1], -eye, eye, -eye, daily, -daily, slots])
    bounds = np.concatenate([np.zeros(1 + nt), sat, -sat, scenario.d_max, -scenario.d_min,
                             scenario.b * n])
    quads = np.array(list(itertools.product((True, False), repeat=nt)))
    highs = np.array(list(itertools.product((False, True), repeat=t)))
    held = np.ones((len(quads), len(rows)), bool)  # each cell piece's rows
    held[:, 1:1 + 3 * nt] = np.hstack([quads, quads, ~quads])
    # a piece's sets in index order of its own rows, the null row (0) padding them
    combos = np.array([s + (0,) * (nt - k) for k in range(nt + 1)
                       for s in itertools.combinations(range(1, held.sum(1).max()), k)])
    q, c = np.nonzero(combos.max(axis=1) < held.sum(axis=1)[:, None])
    sets = np.argsort(~held, axis=1, kind="stable")[q[:, None], combos[c]]
    pattern = np.einsum("si,sj->ij", slots, slots) + eye * quads[q][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = _gauss_jordan(_kkt(pattern, rows[sets], combos[c] == 0),
                            np.zeros((len(sets), 2 * nt)))[1]
    q, sets = q[live := np.abs(det) > 0.5], sets[live]
    # each nonsingular set under each cost piece, by cell piece, then cost piece, then set
    piece, j = np.nonzero(np.arange(len(quads) * len(highs))[:, None] // len(highs) == q)
    q, sets, high = q[j], sets[j], highs[piece % len(highs)]
    r = (side := np.hstack([np.ones((len(j), len(rows) - t)), np.where(high, -1.0, 1.0)])) * bounds
    hess = (eye * np.where(quads, alpha, 0.0)[:, None, None] + 2.0 * np.einsum(
        "si,hs,sj->hij", slots, np.where(highs, scenario.beta2, scenario.beta1),
        slots)).reshape(-1, nt, nt)
    scale, lin = hess.max(axis=(1, 2)), np.where(quads, w, 0.0)  # H/scale, lin/scale: same x
    kkt = _kkt((hess / scale[:, None, None])[piece],
               np.take_along_axis(side, sets, 1)[..., None] * rows[sets], sets == 0)
    rhs = np.hstack([lin[q] / scale[piece, None], np.take_along_axis(r, sets, 1)])
    with np.errstate(divide="ignore", invalid="ignore"):  # a NaN x is not kept below
        z = _gauss_jordan(kkt, rhs)[0]
        x = (z + _gauss_jordan(kkt, rhs - np.einsum("cij,cj->ci", kkt, z))[0])[:, :nt]
    tol = 1e-9 * (nt * np.abs(x).max(axis=1, keepdims=True) + np.abs(r))
    kept = np.all((np.einsum("ci,ri->cr", x, rows) * side - r <= tol) | ~held[q], axis=1)
    x, piece, q = x[kept], piece[kept], q[kept]
    with np.errstate(over="ignore"):  # inf only if a flat utility overflows
        flat = np.sum(np.where(quads, 0.0, 0.5 * w * sat), axis=1)
    value = (np.einsum("ci,ci->c", x, lin[q]) + flat[q]
             - 0.5 * np.einsum("ci,cij,cj->c", x, hess[piece], x))
    value[np.isin(piece, piece[np.isnan(value)])] = -np.inf
    if not value.size:
        raise ValueError("no KKT solution of the welfare's pieces lies in its piece")
    allocation = Allocation(np.maximum(x[best := np.argmax(value)], 0.0).reshape(n, t))
    prices = block_prices(allocation.x.sum(axis=0), scenario.beta1, scenario.beta2)
    return EquilibriumReport(True, 0, allocation, prices, float(value[best]),
                             float(worst_kkt_residual(scenario, allocation, prices)),
                             scenario.fingerprint())


def compare_equilibrium(scenario: Scenario, report: EquilibriumReport,
                        reference: EquilibriumReport, tol_demand: float = 1e-3) -> ComparisonReport:
    """Measure the allocation, slot-demand and welfare gaps between two answers for
    ``scenario``, a distributed run's ``report`` and an oracle's ``reference``; pass on
    demand and welfare, which every equilibrium shares where x is not unique:
    ``demand_gap < tol_demand`` and ``welfare_gap < WELFARE_TOL``.  The reference is
    ``boundary_degenerate`` where a slot's demand lies within ``BOUNDARY_TOL`` of ``bN``,
    where the marginal-cost prices are undefined.  An answer for another scenario raises
    ``ValueError``."""
    if not report.scenario_fingerprint == reference.scenario_fingerprint == scenario.fingerprint():
        raise ValueError("scenario mismatch between the scenario and an answer for it")
    x, x_ref = report.allocation.x, reference.allocation.x
    with np.errstate(over="ignore"):  # a shifted x may sum past the float range: gap inf
        allocation_gap = float(np.max(np.abs(x - x_ref)))
        demand_gap = float(np.max(np.abs(x.sum(axis=0) - x_ref.sum(axis=0))))
        bn_gap = np.abs(x_ref.sum(axis=0) - scenario.b * scenario.num_customers)
    welfare_gap = abs(report.welfare - reference.welfare)
    return ComparisonReport(
        allocation_gap=allocation_gap,
        demand_gap=demand_gap,
        welfare_gap=welfare_gap,
        passed=demand_gap < tol_demand and welfare_gap < WELFARE_TOL,
        boundary_degenerate=bool(np.any(bn_gap < BOUNDARY_TOL)),
    )
