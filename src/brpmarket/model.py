"""Domain types and pricing-model primitives.

Customers have a quadratic-then-flat utility of consumption; the supplier
has a two-segment quadratic cost that switches at an aggregate threshold.
Consumption at each slot is billed in two blocks around a per-slot
threshold ``b``: ``min(x, b)`` in the first, ``max(x - b, 0)`` in the second.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ScenarioError(ValueError):
    """Raised when a scenario document violates a model invariant."""


_BOOLS = (bool, np.bool_)  # not numbers, although float(True) is 1


def _as_slot_array(value, num_slots: int, path: str) -> np.ndarray:
    """Broadcast a scalar to a per-slot vector, or validate vector length."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past 1e308
        raise ScenarioError(f"{path}: expected a number or a list of numbers")
    items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
    if (flag := next((v for v in items if isinstance(v, _BOOLS)), None)) is not None:
        raise ScenarioError(f"{path}: must be a number, got {flag!r}")
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{path}: must be finite (no NaN or inf)")
    if arr.ndim == 0:
        return np.full(num_slots, float(arr))
    if arr.shape != (num_slots,):
        raise ScenarioError(f"{path}: expected a scalar or an array of length {num_slots}, "
                            f"got shape {arr.shape}")
    return arr.astype(float).copy()


def _slot_rows(values, num_slots: int, path: str) -> tuple[np.ndarray, dict]:
    """Per-slot ``values`` as one (N, T) array; :func:`_as_slot_array` parses alone each row
    with a 0 or 1 (maybe a boolean), or all if they do not stack: its messages by row."""
    rows, alone, wrong = np.empty((len(values), num_slots)), range(len(values)), {}
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        stacked = np.array([v if type(v) is list else [v] * num_slots for v in values], float)
        if stacked.shape == rows.shape:  # not broadcast: a list of one number is no scalar
            rows = stacked
            alone = np.flatnonzero(((rows == 0) | (rows == 1)).any(axis=1)).tolist()
    for i in alone:
        try:
            rows[i] = _as_slot_array(values[i], num_slots, path)
        except ScenarioError as err:
            rows[i], wrong[i] = np.nan, str(err)
    return rows, wrong


def _floats(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``float(v)`` of each value, NaN where that raises; where it raises; and where a value
    is a boolean.  Ints and floats alone (no booleans) are converted in one call."""
    out, bad = np.full(len(values), np.nan), np.zeros(len(values), bool)
    if set(map(type, values)) <= {int, float}:
        with contextlib.suppress(OverflowError):
            return np.array(values, dtype=float), bad, bad
    for i, value in enumerate(values):
        try:
            out[i] = float(value)
        except (TypeError, ValueError, OverflowError):
            bad[i] = True
    return out, bad, np.array([isinstance(v, _BOOLS) for v in values])


def _integer(value) -> int | None:
    """An int, an integral float or a string of an int, else None; never truncated, and
    never a boolean, although ``int(True)`` is 1."""
    try:
        result = int(value)
    except (TypeError, ValueError, OverflowError):  # null, "a", NaN, inf
        return None
    bad = isinstance(value, _BOOLS) or not (isinstance(value, str) or result == value)
    return None if bad else result


@dataclass(frozen=True)
class Customer:
    """One customer: per-slot willingness, satiation rate, daily energy band."""

    id: int
    w: np.ndarray       # willingness coefficient per slot (utils/kWh)
    alpha: float        # satiation coefficient (utils/kWh^2)
    d_min: float        # minimum daily energy (kWh)
    d_max: float        # maximum daily energy (kWh)
    satiation: np.ndarray  # per-slot level w/alpha beyond which utility is flat


@dataclass(frozen=True)
class PriceSchedule:
    """Per-slot prices for the first and second block."""

    p_l: np.ndarray     # first-block price (currency/kWh)
    p_u: np.ndarray     # second-block price (currency/kWh)


@dataclass(frozen=True)
class Scenario:
    """A full market instance.

    The customers are stored once, as stacked arrays: ``ids``, ``d_min`` and
    ``d_max`` (N,), ``w`` (N, T) and ``alpha`` (N, 1), which broadcasts over
    slots.  ``customers`` derives one :class:`Customer` per row from them.
    The slots' facts are (T,) arrays: the block threshold ``b`` (kWh) and the
    cost coefficients ``beta1`` and ``beta2`` (currency/kWh^2) below and above
    the aggregate threshold ``b*N``.
    """

    ids: np.ndarray
    w: np.ndarray
    alpha: np.ndarray
    d_min: np.ndarray
    d_max: np.ndarray
    b: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray

    @property
    def num_customers(self) -> int:
        return self.w.shape[0]

    @property
    def num_slots(self) -> int:
        return self.w.shape[1]

    @cached_property
    def customers(self) -> tuple[Customer, ...]:
        """One :class:`Customer` per row of the stacked arrays."""
        return tuple(Customer(id=int(i), w=w, alpha=float(a), d_min=float(lo),
                              d_max=float(hi), satiation=sat)
                     for i, w, a, lo, hi, sat in zip(self.ids, self.w, self.alpha[:, 0],
                                                     self.d_min, self.d_max,
                                                     self.satiation))

    @cached_property
    def satiation(self) -> np.ndarray:
        """Per-slot consumption ``w/alpha`` beyond which utility is flat, (N, T)."""
        return self.w / self.alpha

    def fingerprint(self) -> str:
        """Stable digest of all scenario data, used to match solver outputs."""
        h = hashlib.sha256()
        h.update(np.array(self.w.shape).tobytes())
        # one row per customer (id, alpha, d_min, d_max, w); digests depend on it
        h.update(np.column_stack([self.ids.astype(float), self.alpha, self.d_min,
                                  self.d_max, self.w]).tobytes())
        for per_slot in (self.b, self.beta1, self.beta2):
            h.update(np.asarray(per_slot, dtype=float).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class Allocation:
    """Per-(customer, slot) consumption.  Its block split ``min(x, b)``,
    ``max(x - b, 0)`` is derived where it is read, never stored."""

    x: np.ndarray       # consumption, shape (N, T)


@dataclass(frozen=True)
class EquilibriumReport:
    """A solver's answer for one scenario: the market run's stopping iterate, the
    centralized equilibrium or the welfare maximum, with its block prices, its welfare,
    its KKT certificate at those prices and the fingerprint of the scenario it answers.
    ``iterations`` counts the market's iterations or the oracle's Newton steps."""

    converged: bool
    iterations: int
    allocation: Allocation
    prices: PriceSchedule
    welfare: float
    worst_kkt_residual: float
    scenario_fingerprint: str


def _nonnegative(values, name: str) -> np.ndarray:
    if not np.all((values := np.asarray(values, dtype=float)) >= 0):  # NaN too
        raise ValueError(f"{name} must be nonnegative")
    return values


def utility_value(x, w, alpha):
    """Customer utility of consumption.

    Quadratic ``w*x - (alpha/2)*x**2`` up to the satiation point ``w/alpha``,
    flat at ``w**2 / (2*alpha)`` beyond it.  Continuous, nondecreasing and
    concave, with zero utility at zero consumption.  The flat value is formed
    only where a cell is sated, as ``w*w`` overflows for w past ~1e154; a float
    for 0-d input.
    """
    w = np.asarray(w, dtype=float)
    x = _nonnegative(x, "consumption")
    val = np.asarray(w * x - 0.5 * alpha * x * x)
    if (sated := x >= w / alpha).any():
        w_flat = np.broadcast_to(w, val.shape)[sated]
        val[sated] = w_flat * w_flat / (2.0 * np.broadcast_to(alpha, val.shape)[sated])
    return float(val) if val.ndim == 0 else val


def utility_gradient(x, w, alpha):
    """Marginal utility: ``w - alpha*x`` below satiation, 0 at and beyond it.

    The subgradient at the kink is taken on the saturated side (0) so a
    gradient step never pushes consumption past satiation.
    """
    w = np.asarray(w, dtype=float)
    x = _nonnegative(x, "consumption")
    grad = np.where(x < w / alpha, w - alpha * x, 0.0)
    return float(grad) if grad.ndim == 0 else grad


def cost_value(demand, block_total, beta1, beta2):
    """Supplier cost of serving aggregate demand at one or more slots.

    ``beta1 * D**2`` while demand is at or below the aggregate block
    threshold ``block_total`` (= b * N), ``beta2 * D**2`` above it.  Note the
    cost itself jumps at the threshold whenever beta1 != beta2.
    """
    demand = _nonnegative(demand, "demand")
    val = np.where(demand <= block_total, beta1, beta2) * demand * demand
    return float(val) if val.ndim == 0 else val


def validate_scenario(doc: dict) -> Scenario:
    """Validate a parsed scenario document and build a Scenario.  Scalars broadcast to
    per-slot vectors; keys starting with an underscore are ignored (free-form notes).
    Every invariant violation is reported with the path of the offending field."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")

    if "num_slots" not in doc:
        raise ScenarioError("num_slots: field is required")
    if (num_slots := _integer(doc["num_slots"])) is None:
        raise ScenarioError(f"num_slots: must be an integer, got {doc['num_slots']!r}")
    if num_slots < 1:
        raise ScenarioError("num_slots: must be at least 1")

    raw_customers = doc.get("customers")
    if not isinstance(raw_customers, list) or not raw_customers:
        raise ScenarioError("customers: must be a non-empty list")
    if len(raw_customers) * num_slots > np.iinfo(np.intp).max // 8:
        raise ScenarioError("num_slots: too large for an array of N x num_slots floats")

    # every customer's fields stacked once; the first customer that fails a check, in
    # document order, is reported with the first check it fails, in the order below
    n, entries = len(raw_customers), [e if isinstance(e, dict) else {} for e in raw_customers]
    w, wrong = _slot_rows([e.get("w") for e in entries], num_slots, ".w")
    (alpha, alpha_bad, alpha_bool), (d_min, lo_bad, lo_bool), (d_max, hi_bad, hi_bool) = (
        _floats([e.get(key, default) for e in entries])
        for key, default in (("alpha", None), ("d_min", 0.0), ("d_max", None)))
    raw_ids = [e.get("id", i) for i, e in enumerate(entries)]
    ids = [v if type(v) is int else _integer(v) for v in raw_ids]
    first = dict(zip(reversed(ids), range(n - 1, -1, -1)))  # each id's first customer
    checks = [
        ([not isinstance(e, dict) for e in raw_customers], ": must be an object"),
        (~np.isfinite(w).all(axis=1), "{w}"),
        ((w <= 0).any(axis=1), ".w: w must be strictly positive for every slot"),
        (alpha_bad, ".alpha: must be a number"),
        (alpha_bool, ".alpha: must be a number, got {alpha!r}"),
        (alpha <= 0, ".alpha: alpha must be strictly positive"),
        (lo_bad | hi_bad, ": d_min/d_max must be numbers"),
        (lo_bool, ".d_min: must be a number, got {d_min!r}"),
        (hi_bool, ".d_max: must be a number, got {d_max!r}"),
        *((~np.isfinite(v), f".{k}: must be finite (no NaN or inf)")
          for k, v in (("alpha", alpha), ("d_min", d_min), ("d_max", d_max))),
        (d_min < 0, ".d_min: must be nonnegative"),
        (d_min > d_max, ": d_min exceeds d_max"),
        ([v is None for v in ids], ".id: must be an integer, got {id!r}"),
        ([first[v] != i for i, v in enumerate(ids)], ".id: duplicate customer id {cid}"),
    ]  # counted, not .any(): that reduction pages in numpy code that nothing else here uses
    if np.count_nonzero(fails := np.array([mask for mask, _ in checks]).T):
        i, k = np.argwhere(fails)[0].tolist()
        raise ScenarioError(f"customers[{i}]" + checks[k][1].format(
            w=wrong.get(i, ".w: must be finite (no NaN or inf)"), id=raw_ids[i], cid=ids[i],
            **{key: entries[i].get(key) for key in ("alpha", "d_min", "d_max")}))

    blocks_doc = doc.get("blocks")
    if not isinstance(blocks_doc, dict):
        raise ScenarioError("blocks: must be an object with field b")
    b = _as_slot_array(blocks_doc.get("b", None), num_slots, "blocks.b")
    if np.any(b <= 0):
        raise ScenarioError("blocks.b: thresholds must be strictly positive")

    cost_doc = doc.get("cost")
    if not isinstance(cost_doc, dict):
        raise ScenarioError("cost: must be an object with fields beta1, beta2")
    beta1 = _as_slot_array(cost_doc.get("beta1", None), num_slots, "cost.beta1")
    beta2 = _as_slot_array(cost_doc.get("beta2", None), num_slots, "cost.beta2")
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if np.any(beta <= 0):
            raise ScenarioError(f"cost.{name}: must be strictly positive")
    if np.any(beta2 < beta1):
        raise ScenarioError("cost.beta2: must be at least beta1 in every slot, got "
                            f"beta2 < beta1 in slots {np.flatnonzero(beta2 < beta1).tolist()}")

    scenario = Scenario(ids=np.array(ids), w=w, alpha=alpha[:, None], d_min=d_min, d_max=d_max,
                        b=b, beta1=beta1, beta2=beta2)
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        satiation, total_satiation = scenario.satiation, scenario.satiation.sum(axis=1)
    overflowed = ~np.isfinite(satiation).all(axis=1)
    if (bad := np.flatnonzero(overflowed | (scenario.d_min > total_satiation))).size:
        idx = bad[0]
        if overflowed[idx]:
            raise ScenarioError(
                f"customers[{idx}]: satiation w/alpha must be finite, overflows in "
                f"slots {np.flatnonzero(~np.isfinite(satiation[idx])).tolist()}")
        raise ScenarioError(f"customers[{idx}]: infeasible scenario, d_min exceeds the total "
                            f"satiation energy sum(w/alpha) = {float(total_satiation[idx])!r}")
    return scenario


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})")
    return validate_scenario(doc)
