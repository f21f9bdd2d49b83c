"""Distributed market loop: aggregate demand, price, broadcast, step customers.

Each iteration updates the full daily profile of every customer at once
(all slots priced, one array step over the (N, T) allocation, each
customer's daily-sum projection applied once), so the daily energy band
constraints stay enforced throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agent import step_profile, worst_kkt_residual
from .model import Allocation, PriceSchedule, Scenario, cost_value, utility_value
from .pricing import block_prices

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
    """Step size, convergence tolerance and iteration cap for a market run."""

    gamma: float
    tol: float = 1e-6
    max_iter: int = 50000

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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
    ``b`` of their run, from which the trace's block split is derived."""

    b: np.ndarray
    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, idx) -> IterationRecord:
        return self.records[idx]

    def to_csv(self, path) -> None:
        """Write one row per (iteration, slot, customer), full float precision.

        The bytes are fixed: the comment line ends in LF; the header and every
        row end in CRLF, as ``csv.writer`` writes them.  Rows run iteration by
        iteration, slot-major within an iteration, and every float is written
        as the ``repr`` of its Python ``float``, so it round-trips exactly.
        The block split ``y = min(x, b)``, ``z = max(x, b)`` is derived here.

        Each iterate is written with one ``write``.  Its x, y and z hold few
        distinct values (one of y and z is x, the other is the slot's ``b``),
        so ``repr`` runs once per distinct float64 bit pattern, not per cell.
        """
        prefixes, shape = [], None
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TRACE_COMMENT + "\n")
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            for k, rec in enumerate(self.records):
                if np.shape(rec.allocation.x) != shape:
                    shape = np.shape(rec.allocation.x)
                    prefixes = [[f",{slot},{cust}," for cust in range(shape[0])]
                                for slot in range(shape[1])]
                texts = iter(_cell_texts(rec.allocation.x, self.b))
                tail = f",{float(rec.welfare)!r},{float(rec.max_change)!r}\r\n"
                suffixes = [f",{p_l!r},{p_u!r}{tail}" for p_l, p_u in zip(
                    np.asarray(rec.prices.p_l, dtype=float).tolist(),
                    np.asarray(rec.prices.p_u, dtype=float).tolist())]
                fh.write("".join(
                    f"{k}{prefix}{xs},{ys},{zs}{suffix}"
                    for slot_prefixes, suffix in zip(prefixes, suffixes)
                    for prefix, xs, ys, zs in zip(slot_prefixes, texts, texts, texts)))


def _cell_texts(x, b) -> list[str]:
    """The ``repr`` of x, ``min(x, b)`` and ``max(x, b)`` of every cell,
    slot-major, then customer.

    ``repr`` runs once per distinct float64 bit pattern; keying on bits, not
    on ``==``, keeps -0.0 apart from 0.0.
    """
    x, b = np.asarray(x, dtype=float).T, np.asarray(b, dtype=float)[:, None]
    cells = np.stack([x, np.minimum(x, b), np.maximum(x, b)], axis=-1)
    bits, index = np.unique(cells.view(np.int64), return_inverse=True)
    table = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return table[index.ravel()].tolist()


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
    total = float(np.sum(utility_value(alloc.x, scenario.w, scenario.alpha)))
    demand = alloc.x.sum(axis=0)
    block_total = scenario.blocks.b * scenario.num_customers
    total -= float(np.sum(cost_value(demand, block_total, scenario.cost)))
    return total


def detect_convergence(trace: IterationTrace, tol: float) -> bool:
    """True iff both allocation and prices settled over the last iterate."""
    if len(trace) < 2:
        raise ValueError("need at least two iterates to detect convergence")
    prev, cur = trace[-2], trace[-1]
    alloc_change = float(np.max(np.abs(cur.allocation.x - prev.allocation.x)))
    price_change = max(
        float(np.max(np.abs(cur.prices.p_l - prev.prices.p_l))),
        float(np.max(np.abs(cur.prices.p_u - prev.prices.p_u))),
    )
    return alloc_change < tol and price_change < tol


def default_step_size(scenario: Scenario) -> float:
    """A step size safely inside the stability region of the iteration.

    When consumption sits below the block threshold but the marginal
    utility exceeds both prices, the two block variables move together and
    the effective step doubles, so the stability bound carries a factor 2.
    """
    alpha_max = float(np.max(scenario.alpha))
    beta_max = float(np.max(scenario.cost.beta2))
    return 0.5 / (alpha_max + 2.0 * beta_max * scenario.num_customers)


def _posted_prices(alloc: Allocation, scenario: Scenario) -> PriceSchedule:
    """Block prices at the demand the supplier sells: first-block energy
    plus second-block energy, summed over customers per slot."""
    x, b = alloc.x, scenario.blocks.b
    demand = np.minimum(x, b).sum(axis=0) + (np.maximum(x, b) - b).sum(axis=0)
    return block_prices(demand, scenario.cost)


def run_market(scenario: Scenario, config: RunConfig):
    """Iterate the distributed price/demand loop to equilibrium.

    Returns ``(EquilibriumReport, IterationTrace)``.  Raises
    :class:`DivergenceError` if any iterate turns non-finite.
    """
    t = scenario.num_slots
    x = np.repeat(scenario.d_min[:, None] / t, t, axis=1)

    trace = IterationTrace(scenario.blocks.b)
    alloc = Allocation(x)
    prices = _posted_prices(alloc, scenario)
    trace.append(IterationRecord(alloc, prices, social_welfare(alloc, scenario),
                                 float("nan")))

    converged = False
    iterations = 0
    for k in range(1, config.max_iter + 1):
        try:
            new_x = step_profile(x, prices, config.gamma, scenario)
        except FloatingPointError:
            raise DivergenceError(k) from None
        new_alloc = Allocation(new_x)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            new_prices = _posted_prices(new_alloc, scenario)
            welfare = social_welfare(new_alloc, scenario)
        if not (np.all(np.isfinite(new_x))
                and np.all(np.isfinite(new_prices.p_l))
                and np.all(np.isfinite(new_prices.p_u))
                and np.isfinite(welfare)):
            raise DivergenceError(k)

        max_change = float(np.max(np.abs(new_x - x)))
        trace.append(IterationRecord(new_alloc, new_prices, welfare, max_change))
        x, alloc, prices = new_x, new_alloc, new_prices
        iterations = k
        if detect_convergence(trace, config.tol):
            converged = True
            break

    report = EquilibriumReport(
        converged=converged,
        iterations=iterations,
        allocation=alloc,
        prices=prices,
        welfare=social_welfare(alloc, scenario),
        worst_kkt_residual=worst_kkt_residual(scenario, alloc, prices),
        scenario_fingerprint=scenario.fingerprint(),
    )
    return report, trace
