"""Distributed market loop: aggregate demand, price, broadcast, step customers.

Each iteration updates the full daily profile of every customer at once
(all slots priced, one array step over the (N, T) allocation, each
customer's daily-sum projection applied once), so the daily energy band
constraints stay enforced throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# step_profile is unused here; the benchmark's tracer wraps it in this namespace
from .agent import _StepKernel, step_profile, worst_kkt_residual  # noqa: F401
from .model import Allocation, PriceSchedule, Scenario, _cost, _nonnegative, _utility
from .pricing import _prices

TRACE_COMMENT = (
    "# welfare and max_change are per-iteration summary values repeated on "
    "every row of that iteration; max_change is the max-norm allocation "
    "change vs the previous iteration (nan for iteration 0)"
)
TRACE_COLUMNS = ["iter", "slot", "customer", "x", "y", "z",
                 "p_l", "p_u", "welfare", "max_change"]


class DivergenceError(RuntimeError):
    """Raised when an iterate turns non-finite (step size too large)."""

    def __init__(self, iteration: int):
        super().__init__(f"market iteration diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class RunConfig:
    """Step size, tolerance and iteration cap of the market iteration: ``run_market`` stops
    once allocation and prices both move by less than ``tol``, the centralized oracle once
    a step moves less than ``0.1*gamma*tol`` and its KKT residual is below ``tol``."""

    gamma: float
    tol: float = 1e-6
    max_iter: int = 50000

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:  # false for NaN too
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """One market iterate: allocation, prices, welfare, allocation change."""

    allocation: Allocation
    prices: PriceSchedule
    welfare: float
    max_change: float


@dataclass
class IterationTrace:
    """Time series of market iterates, with the per-slot block threshold
    ``b`` of their run, from which the trace's block split is derived.

    A trace of :func:`run_market` holds its run alone (scenario, config, stopping iteration,
    scenario fingerprint); its first read (``records``, ``trace[k]``, iteration) replays it,
    one more market solve, and keeps the records, and :meth:`to_csv` streams the replay and
    keeps none.  A replay of a scenario changed since its run raises ``ValueError``."""

    b: np.ndarray
    _records: list[IterationRecord] = field(default_factory=list)
    _run: tuple | None = None

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)  # a run's trace replays the run first

    def __len__(self) -> int:
        return len(self._records) if self._run is None else self._run[2] + 1

    def __getitem__(self, idx) -> IterationRecord:
        return self.records[idx]

    @property
    def records(self) -> list[IterationRecord]:
        """Every record; a run's trace replays the run on first read."""
        if self._run is not None:
            self._records, self._run = list(self._replay()), None
        return self._records

    def _replay(self):
        """The run's records, one at a time, each welfare from the step kernel's buffers."""
        scenario, config, last, fingerprint = self._run
        if scenario.fingerprint() != fingerprint:
            raise ValueError("the scenario changed after its run; its trace cannot be replayed")
        return (IterationRecord(Allocation(x), prices, _welfare(
                    x, kernel.demand, kernel.sated, scenario, kernel.half_alpha,
                    kernel.block_total, (kernel.grad, kernel.raw)), max_change)
                for _, x, prices, max_change, kernel in _iterates(
                    scenario, replace(config, max_iter=last)))

    def to_csv(self, path) -> None:
        """Write one row per (iteration, slot, customer), full float precision.

        The bytes are fixed: the comment line ends in LF; the header and every
        row end in CRLF, as ``csv.writer`` writes them.  Rows run iteration by
        iteration, slot-major within an iteration, and every float is written
        as the ``repr`` of its Python ``float``, so it round-trips exactly.
        The block split ``y = min(x, b)``, ``z = max(x, b)`` is derived here.

        Each iterate is one array of pieces joined once: its number, cached row prefixes
        and commas, the texts of :func:`_cell_texts` (one ``repr`` per distinct bit
        pattern of x and of b) and each slot's ``,p_l,p_u,welfare,max_change`` line end.
        """
        shape, records = None, self._records if self._run is None else self._replay()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TRACE_COMMENT + "\n")
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            for k, rec in enumerate(records):
                if np.shape(rec.allocation.x) != shape:
                    n, t = shape = np.shape(rec.allocation.x)
                    pieces = np.full((t, n, 8), ",", dtype=object)  # k ,slot,cust, x , y , z end
                    pieces[..., 1] = [[f",{s},{c}," for c in range(n)] for s in range(t)]
                tail = f",{float(rec.welfare)!r},{float(rec.max_change)!r}\r\n"
                pieces[..., 0] = str(k)
                pieces[..., 2::2] = _cell_texts(rec.allocation.x, self.b)
                pieces[..., 7] = np.array([f",{p_l!r},{p_u!r}{tail}" for p_l, p_u in zip(
                    np.asarray(rec.prices.p_l, dtype=float).tolist(),
                    np.asarray(rec.prices.p_u, dtype=float).tolist())], dtype=object)[:, None]
                fh.write("".join(pieces.ravel().tolist()))


def _cell_texts(x, b) -> np.ndarray:
    """The ``repr`` of x, ``min(x, b)`` and ``max(x, b)`` of every cell, (slot, customer, 3):
    one per distinct float64 bit pattern of x and b (bits, not ``==``, keep -0.0 apart
    from 0.0).  Each y and z is, bit for bit, its x or its b; one that is neither (a NaN
    the comparison quietened) gets its own ``repr``."""
    x, b = np.asarray(x, dtype=float).T, np.asarray(b, dtype=float)[:, None]
    bits, index = np.unique(np.append(x, b).view(np.int64), return_inverse=True)
    table = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    cells = np.stack([x, np.minimum(x, b), np.maximum(x, b)], axis=-1)
    from_x = (cell_bits := cells.view(np.int64)) == cell_bits[..., :1]
    texts = table[np.where(from_x, index[:x.size].reshape(*x.shape, 1),
                           index[x.size:, None, None])]
    odd = ~from_x & (cell_bits != b.view(np.int64)[..., None])
    texts[odd] = list(map(repr, cells[odd].tolist()))
    return texts


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of a market run."""

    converged: bool
    iterations: int
    allocation: Allocation
    prices: PriceSchedule
    welfare: float
    worst_kkt_residual: float
    scenario_fingerprint: str


def social_welfare(alloc: Allocation, scenario: Scenario) -> float:
    """Total customer utility minus total production cost."""
    x = _nonnegative(alloc.x, "consumption")
    return _welfare(x, x.sum(axis=0), x >= scenario.satiation, scenario,
                    0.5 * scenario.alpha, scenario.blocks.b * scenario.num_customers)


def _welfare(x, demand, sated, scenario: Scenario, half_alpha, block_total,
             out=None) -> float:
    """:func:`social_welfare` of ``x >= 0`` given its slot ``demand = x.sum(0)``,
    ``sated``, as :func:`model._utility` takes it, ``alpha/2`` and ``b*N``, with the
    utilities in ``out``; unchecked."""
    total = float(_utility(x, scenario.w, scenario.alpha, half_alpha, sated, out).sum())
    return total - float(_cost(demand, block_total, scenario.cost).sum())


def default_step_size(scenario: Scenario) -> float:
    """The optimal fixed step ``2/(lam_lo + lam_hi)`` of the linearized iteration, with
    ``lam_lo = min alpha`` and ``lam_hi = 2*max alpha + 2*max_t(beta1 + beta2)*N``.

    On a piece where each cell's free blocks stay free and only box constraints bind,
    a step moves slot t's free loads x by ``-gamma*(K x - r)``, with ``K = diag(m_i
    alpha_i) + 2 c 1^T``: ``m_i`` in {1, 2} counts cell i's free blocks (``0 < y < b``,
    ``z' > 0``) and ``c_i = beta1*[y free] + beta2*[z' free] > 0``.  ``diag(c)**-0.5 K
    diag(c)**0.5 = diag(m alpha) + 2 sqrt(c) sqrt(c)^T`` is symmetric, so K's eigenvalues
    are real; the rank-one term is positive semidefinite, so they lie in ``[min m alpha,
    max m alpha + 2 sum c]``, inside ``[lam_lo, lam_hi]``.  This step minimizes the worst
    contraction ``|1 - gamma lam|`` over that interval, ``(lam_hi - lam_lo)/(lam_hi +
    lam_lo) < 1``, below the stability limit ``2/lam_hi`` (Polyak, "Introduction to
    Optimization", 1987, ch. 1).  That is proven only on such pieces.  A binding daily
    band, a switch between pieces, and ``beta1 != beta2``, where the map is not
    monotone, are covered only by measurement: the step converges on the tests' random
    scenarios to the point the smaller steps reach.
    """
    beta = max(map(float.__add__, scenario.cost.beta1.tolist(), scenario.cost.beta2.tolist()))
    lam_hi = 2.0 * (float(scenario.alpha.max()) + beta * scenario.num_customers)
    return 2.0 / (float(scenario.alpha.min()) + lam_hi)  # Python floats overflow unwarned


def _iterates(scenario: Scenario, config: RunConfig, x: np.ndarray | None = None):
    """The market iteration from ``x`` (default ``d_min/T``): ``(k, x, prices, max_change,
    kernel)`` for iterate 0 (change nan) and each step to ``config.max_iter``, priced at
    its slot demand; ``kernel`` (``agent._StepKernel``) holds x's block split, satiation
    mask and slot demand, and its buffers ``grad`` and ``raw`` are free until the next
    step.  Raises :class:`DivergenceError` at a non-finite step.  Loop over it in a
    ``for`` statement, whose break or raise drops the generator, ending its numpy
    errstate, at once."""
    if x is None:
        x = np.repeat(scenario.d_min[:, None] / scenario.num_slots, scenario.num_slots, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # every iterate is checked finite
        kernel = _StepKernel(scenario, config.gamma)  # 2*beta may overflow
        kernel.split(x)
        prices = _prices(kernel.demand, *kernel.two_beta)
        yield 0, x, prices, math.nan, kernel
        for k in range(1, config.max_iter + 1):
            try:
                new_x = kernel.step(x, prices)
            except FloatingPointError:
                raise DivergenceError(k) from None
            # x is finite, so the change is finite iff the new iterate is
            max_change = kernel.max_change(new_x, x)
            if not math.isfinite(max_change):
                raise DivergenceError(k)
            x = new_x
            kernel.split(x)
            prices = _prices(kernel.demand, *kernel.two_beta)
            yield k, x, prices, max_change, kernel


def run_market(scenario: Scenario, config: RunConfig):
    """Iterate the distributed price/demand loop to equilibrium.

    Returns ``(EquilibriumReport, IterationTrace)``.  The run holds one iterate at a time
    and computes only the stopping iterate's welfare, in the step kernel's buffers; its
    trace holds the run, not its iterates, and replays them when read.  From iterate 1
    on, a non-finite ``p_u`` or welfare raises :class:`DivergenceError`.  The welfare is
    finite, and not computed for that check, while ``(N*T + 1)*(max w*max D + (max
    alpha/2 + max beta2)*max D**2) < 1e300`` and ``max w < 1e150`` at slot demand D: each
    cell lies in ``[0, D]``, so ``|U| <= w*D + alpha/2*D**2``, a sated cell's
    ``w**2/(2*alpha) = w*(w/alpha)/2 <= w*D/2`` and the cost is at most ``beta2*D**2``.
    Past the bound it is computed at once.
    """
    cells, w_max = scenario.w.size + 1, float(scenario.w.max())
    quad = 0.5 * float(scenario.alpha.max()) + float(scenario.cost.beta2.max())
    for k, x, prices, max_change, kernel in _iterates(scenario, config):
        # max_change is nan at k = 0, so no earlier prices are read there
        converged = (max_change < config.tol
                     and float(np.abs(prices.p_l - last.p_l).max()) < config.tol
                     and float(np.abs(prices.p_u - last.p_u).max()) < config.tol)
        d, welfare = float(kernel.demand.max()), None
        if (converged or k == config.max_iter
                or k and not (w_max < 1e150 and cells * (w_max * d + quad * d * d) < 1e300)):
            welfare = _welfare(x, kernel.demand, kernel.sated, scenario, kernel.half_alpha,
                               kernel.block_total, (kernel.grad, kernel.raw))
        # iterate 0 is left to the first step; a finite p_u has a finite p_l, as
        # demand >= 0 and the validated beta1 <= beta2
        if k and not (math.isfinite(prices.p_u.max())
                      and (welfare is None or math.isfinite(welfare))):
            raise DivergenceError(k)
        if converged:
            break
        last = prices

    allocation, fingerprint = Allocation(x), scenario.fingerprint()
    report = EquilibriumReport(
        converged=converged,
        iterations=k,
        allocation=allocation,
        prices=prices,
        welfare=welfare,
        worst_kkt_residual=worst_kkt_residual(scenario, allocation, prices),
        scenario_fingerprint=fingerprint,
    )
    return report, IterationTrace(scenario.blocks.b, _run=(scenario, config, k, fingerprint))
