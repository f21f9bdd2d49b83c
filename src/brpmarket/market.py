"""Distributed market loop: aggregate demand, price, broadcast, step customers.

Each iteration updates the full daily profile of every customer at once
(all slots priced, one array step over the (N, T) allocation, each
customer's daily-sum projection applied once), so the daily energy band
constraints stay enforced throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# step_profile is unused here; the benchmark's tracer wraps it in this namespace
from .agent import _StepKernel, step_profile, worst_kkt_residual  # noqa: F401
from .model import Allocation, PriceSchedule, Scenario, cost_value, utility_value
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
    """Step size, tolerance and iteration cap of the market iteration; ``run_market`` stops
    once allocation and prices both move by less than ``tol``."""

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
    """The read-only view of one :func:`run_market` call: its scenario, its ``RunConfig``
    up to the stopping iteration and the scenario fingerprint, not its iterates.

    The first read (``records``, ``trace[k]``, iteration) replays the run, one more market
    solve, and keeps the records; :meth:`to_csv` streams the replay of an unread trace and
    keeps none.  A replay of a scenario changed since its run raises ``ValueError``."""

    _scenario: Scenario
    _config: RunConfig
    _fingerprint: str
    _records: list[IterationRecord] | None = None

    def __len__(self) -> int:
        return self._config.max_iter + 1

    def __getitem__(self, idx) -> IterationRecord:
        return self.records[idx]

    @property
    def records(self) -> list[IterationRecord]:
        if self._records is None:
            self._records = list(self._replay())
        return self._records

    def _replay(self):
        """The run's records, one at a time, each welfare from :func:`social_welfare`."""
        if (scenario := self._scenario).fingerprint() != self._fingerprint:
            raise ValueError("the scenario changed after its run; its trace cannot be replayed")
        return (IterationRecord(Allocation(x), prices,
                                social_welfare(Allocation(x), scenario), max_change)
                for _, x, prices, max_change, _ in _iterates(scenario, self._config))

    def to_csv(self, path) -> None:
        """Write the run's ``trace.csv`` with :class:`_TraceCsv`: the replay of an unread
        trace, streamed and not kept, or the kept records of a read one."""
        records = self._replay() if self._records is None else self._records
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write = _TraceCsv(fh, self._scenario.blocks.b)
            for k, rec in enumerate(records):
                write(k, rec.allocation.x, rec.prices, rec.welfare, rec.max_change)


class _TraceCsv:
    """The one ``trace.csv`` writer, fed one iterate at a time by ``to_csv`` or a
    ``run_market`` observer.  Fixed bytes: a comment line ending in LF, then the header and
    a row per (iteration, slot, customer), slot-major, ending in CRLF as ``csv.writer`` ends
    them; each float is its ``repr``.  An iterate is its number and one join of five pieces
    a row: ``,slot,customer,``, x, ``,`` or ``,b,``, x, and the slot's tail (``b,`` or not,
    ``p_l,p_u,welfare,max_change``, CRLF, the next row's number), as ``y = min(x, b)`` and
    ``z = max(x, b)`` are, bit for bit, x or b.  x's texts come from :func:`_float_reprs`,
    one per distinct bit pattern (-0.0 apart from 0.0); b's are made once per trace."""

    def __init__(self, fh, b):
        fh.write(TRACE_COMMENT + "\n" + ",".join(TRACE_COLUMNS) + "\r\n")
        self._fh, self._b, self._pieces = fh, b[:, None], None
        self._seps = np.array([[",", f",{v!r},"] for v in b.tolist()], dtype=object)

    def __call__(self, k, x, prices, welfare, max_change) -> None:
        xt, b, seps, end = x.T, self._b, self._seps, f",{welfare!r},{max_change!r}\r\n{k}"
        if (pieces := self._pieces) is None:  # not before a replay starts: that raised peak RSS
            pieces = self._pieces = np.empty((*xt.shape, 5), dtype=object)
            pieces[..., 0] = [[f",{s},{c}," for c in range(xt.shape[1])] for s in range(len(b))]
        bits, index = np.unique(xt.view(np.int64), return_inverse=True)
        pieces[..., 1] = pieces[..., 3] = _float_reprs(bits.view(np.float64))[
            index.reshape(xt.shape)]
        y, z = np.minimum(xt, b), np.maximum(xt, b)
        low = z.view(np.int64) == b.view(np.int64)  # z is b: the tail holds it
        odd = low != (y.view(np.int64) == xt.view(np.int64))  # y and z both x, or both b
        pick = 2 * np.arange(len(b))[:, None] + (~low | odd)
        pieces[..., 2] = seps.take(pick)
        pieces[..., 4] = (seps[:, ::-1] + np.array([f"{p_l!r},{p_u!r}{end}" for p_l, p_u in zip(
            prices.p_l.tolist(), prices.p_u.tolist())], dtype=object)[:, None]).take(pick)
        for s, c in zip(*np.nonzero(odd)):  # only where x and b are zeros of opposite sign
            pieces[s, c, 2:4] = f",{y[s, c].item()!r},", repr(z[s, c].item())
        pieces[-1, -1, 4] = pieces[-1, -1, 4][:-len(str(k))]  # ends in CRLF: no next row here
        self._fh.writelines((str(k), "".join(pieces.ravel().tolist())))


# The tables are built from Python floats and array copies, so that importing the module
# pages in no numpy arithmetic code that a run writing no trace would not use.
# 10**k for k <= 22, each exact in float64, and its Veltkamp split into two halves of at
# most 26 significant bits, whose products with such halves of v are exact
_TEN = np.array([float(10**k) for k in range(23)])
_TEN_HI = np.array([t * 134217729.0 - (t * 134217729.0 - t) for t in _TEN.tolist()])
_TEN_LO = np.array([t - h for t, h in zip(_TEN.tolist(), _TEN_HI.tolist())])
_MARGIN = 1e-9  # a distance this close to a tie or an interval edge is left to repr
# the four ASCII digits of each of 0..9999, read as one uint32: two of the hundred pairs
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_DIGITS = np.empty((100, 100, 2), np.uint16)
_DIGITS[..., 0], _DIGITS[..., 1] = _PAIRS[:, None], _PAIRS
_DIGITS = _DIGITS.view(np.uint32).ravel()
_ROW = np.arange(22, dtype=np.int8)[:, None]  # a text's character positions


def _float_reprs(values) -> np.ndarray:
    """``repr(v)`` of each float64 v, as an object array of str.

    ``repr`` is the specification: the shortest digits that read back as v, the nearest
    to v of those (Steele and White 1990; Adams, "Ryu", PLDI 2018), written ``ddd.ddd``,
    ``ddd.0`` or ``0.000ddd`` for ``1e-4 <= v < 1e16`` and in exponent form elsewhere.
    Arrays compute that positional range here; every other value, and any whose answer
    lies within ``1e-9`` of a tie or an edge of v's rounding interval, is passed to
    ``repr``.  The digits' arrays are freed before the texts' are made.
    """
    x = np.ravel(values)
    n, q, fast = _shortest_digits(x)
    return _render(n, q, x, fast)


def _shortest_digits(x):
    """``(n, q, fast)``: the shortest digits of each x as a 17-digit integer n, nearest x
    of those, with ``x ~ n * 10**(q - 16)``, where ``fast``.

    With ``q = floor(log10 x)`` and ``k = 16 - q``, ``S = x*10**k`` lies in ``[1e16,
    1e17)`` (else not ``fast``), and Dekker's product gives it exactly as ``hi + lo``.
    The reals that round to x are ``(S - W, S + W)``, ``W = 10**k * ulp(x)/2`` in (0.55,
    11.2), so n is the integer in that interval that is a multiple of the largest power
    of ten there: of 100, which is alone there if there is one, else the nearest
    multiple of 10 or the nearest integer.  For a power of two they start at ``S - W/2``;
    the 67 in range, 2**-13 to 2**53, each find their n there, as ``repr`` confirms.
    """
    fast = (x >= 1e-4) & (x < 1e16)
    v = np.where(fast, x, 1.0)
    exponent = np.frexp(v)[1]
    q = np.floor(np.log10(v))
    k = (16.0 - q).astype(np.intp)
    ten = _TEN.take(k)
    hi = v * ten
    half_ulp = np.ldexp(ten, exponent - 54)
    v_hi = v * 134217729.0
    v_hi -= v_hi - v
    v_lo = v - v_hi
    ten_hi, ten_lo = _TEN_HI.take(k), _TEN_LO.take(k)
    lo = ((v_hi * ten_hi - hi) + v_hi * ten_lo + v_lo * ten_hi) + v_lo * ten_lo
    fast &= (hi >= 1e16) & (hi < 1e17)
    h = hi.astype(np.int64)  # hi is an integer from 2**53 on
    # S's excess t over the multiple of 100 below h, and the nearest multiples of 100, of
    # 10 and of 1 to S, as offsets from that multiple and from h, and their distances d
    r100 = h - h // 100 * 100
    t = r100 + lo
    m100, m10, m1 = np.rint(t * 0.01) * 100.0, np.rint(t * 0.1) * 10.0, np.rint(lo)
    d100, d10, d1 = np.abs(t - m100), np.abs(t - m10), np.abs(lo - m1)
    offset = np.where(d10 < half_ulp, m10 - r100, m1)
    np.copyto(offset, m100 - r100, where=d100 < half_ulp)
    h += offset.astype(np.int64)
    fast &= ((h < 10**17) & (np.abs(d100 - half_ulp) > _MARGIN)
             & (np.abs(d10 - half_ulp) > _MARGIN) & (d10 < 5.0 - _MARGIN)
             & (d1 < 0.5 - _MARGIN))
    return h, q.astype(np.int8), fast


def _render(n, q, x, fast) -> np.ndarray:
    """The ``repr`` text of ``n * 10**(q - 16)``, n of 17 digits, where ``fast``, and
    ``repr(x)`` elsewhere.  Each text is a column of 22 characters, one row per
    position, taken from the column of n's digits shifted past the decimal point."""
    chunks = np.empty((5, n.size), np.int64)  # n in base 10**4, the top chunk below 10
    for row, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(n, scale, out=chunks[row])
    chunks[4] = n
    chunks[1:] -= 10000 * chunks[:-1]
    z = np.zeros((27, n.size), np.uint8)  # "00000", n's 17 digits, NULs
    z[:2] = 48
    z[2:22] = (_DIGITS.take(chunks).view(np.uint8).reshape(5, -1, 4)
               .transpose(0, 2, 1).reshape(20, -1))
    del chunks
    whole = q.clip(min=0) + 1  # integer digits, a lone 0 below 1
    out = z[4:26].copy()  # after the point, character c is n's digit c - 1
    np.copyto(out, z[5:27], where=_ROW < whole)  # before it, digit c
    for s in range(-4, 0):  # below 1, "0." and -q - 1 zeros, then n's digits
        if (rows := q == s).any():
            np.copyto(out, z[4 + s:26 + s], where=rows)
    np.copyto(out, 46, where=_ROW == whole)
    digits = ((z[5:22] != 48) * _ROW[1:18]).max(axis=0)  # n's, to its last nonzero one
    del z
    out *= _ROW < whole + 1 + (digits - q - 1).clip(min=1)
    texts = np.ascontiguousarray(out.T, dtype=np.uint32).view("U22").ravel().astype(object)
    slow = np.flatnonzero(~fast)
    texts[slow] = list(map(repr, x[slow].tolist()))
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
    """Total customer utility minus total production cost at the slot demand
    ``x.sum(0)``: the one welfare function, of a run's report and of its trace."""
    x = np.asarray(alloc.x, dtype=float)
    utility = float(utility_value(x, scenario.w, scenario.alpha).sum())
    return utility - float(cost_value(x.sum(axis=0), scenario.blocks.b * scenario.num_customers,
                                      scenario.cost).sum())


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


def _iterates(scenario: Scenario, config: RunConfig):
    """The market iteration from ``x = d_min/T``: ``(k, x, prices, max_change,
    demand)`` for iterate 0 (change nan) and each step to ``config.max_iter``, priced at
    its slot ``demand = x.sum(0)``.  Raises :class:`DivergenceError` at a non-finite
    step.  Loop over it in a ``for`` statement, whose break or raise drops the
    generator, ending its numpy errstate, at once."""
    x = np.repeat(scenario.d_min[:, None] / scenario.num_slots, scenario.num_slots, axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # iterates are checked
        kernel = _StepKernel(scenario, config.gamma)  # 2*beta may overflow
        kernel.split(x)
        prices = _prices(kernel.demand, *kernel.two_beta)
        yield 0, x, prices, math.nan, kernel.demand
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
            yield k, x, prices, max_change, kernel.demand


def run_market(scenario: Scenario, config: RunConfig, observe=lambda *iterate: None):
    """Iterate the distributed price/demand loop to equilibrium.

    Returns ``(EquilibriumReport, IterationTrace)``.  The run holds one iterate at a time
    and computes only the stopping iterate's :func:`social_welfare`; its trace holds the
    run, not its iterates, and replays them when read.  ``observe`` sees each tuple of
    :func:`_iterates` once, when that iterate has passed the divergence checks: the CLI
    streams ``trace.csv`` so.  From iterate 1 on, a non-finite ``p_u`` or welfare raises
    :class:`DivergenceError`.  The welfare is finite, and not computed for that check,
    while ``(N*T + 1)*(max w*max D + (max alpha/2 + max beta2)*max D**2) < 1e300`` and
    ``max w < 1e150`` at slot demand D: each cell lies in ``[0, D]``, so ``|U| <= w*D +
    alpha/2*D**2``, a sated cell's ``w**2/(2*alpha) = w*(w/alpha)/2 <= w*D/2`` and the
    cost is at most ``beta2*D**2``.  Past the bound it is computed at once.
    """
    cells, w_max = scenario.w.size + 1, float(scenario.w.max())
    quad = 0.5 * float(scenario.alpha.max()) + float(scenario.cost.beta2.max())
    for k, x, prices, max_change, demand in _iterates(scenario, config):
        # max_change is nan at k = 0, so no earlier prices are read there
        converged = (max_change < config.tol
                     and float(np.abs(prices.p_l - last.p_l).max()) < config.tol
                     and float(np.abs(prices.p_u - last.p_u).max()) < config.tol)
        d, welfare = float(demand.max()), None
        if (converged or k == config.max_iter
                or k and not (w_max < 1e150 and cells * (w_max * d + quad * d * d) < 1e300)):
            welfare = social_welfare(Allocation(x), scenario)
        # iterate 0 is left to the first step; a finite p_u has a finite p_l, as
        # demand >= 0 and the validated beta1 <= beta2
        if k and not (math.isfinite(prices.p_u.max())
                      and (welfare is None or math.isfinite(welfare))):
            raise DivergenceError(k)
        observe(k, x, prices, max_change, demand)
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
    return report, IterationTrace(scenario, replace(config, max_iter=k), fingerprint)
