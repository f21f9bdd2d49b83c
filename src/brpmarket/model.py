"""Domain types and pricing-model primitives.

Customers have a quadratic-then-flat utility of consumption; the supplier
has a two-segment quadratic cost that switches at an aggregate threshold.
Consumption at each slot is billed in two blocks around a per-slot
threshold ``b``: ``min(x, b)`` in the first, ``max(x, b) - b`` in the second.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ScenarioError(ValueError):
    """Raised when a scenario document violates a model invariant."""


def _as_slot_array(value, num_slots: int, path: str) -> np.ndarray:
    """Broadcast a scalar to a per-slot vector, or validate vector length."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past 1e308
        raise ScenarioError(f"{path}: expected a number or a list of numbers")
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{path}: must be finite (no NaN or inf)")
    if arr.ndim == 0:
        return np.full(num_slots, float(arr))
    if arr.shape != (num_slots,):
        raise ScenarioError(
            f"{path}: expected a scalar or an array of length {num_slots}, "
            f"got shape {arr.shape}"
        )
    return arr.astype(float).copy()


def _as_integer(value, path: str) -> int:
    """An int, an integral float or a string of an int; never truncated, and
    never a boolean, although ``int(True)`` is 1."""
    try:
        result = int(value)
    except (TypeError, ValueError, OverflowError):  # null, "a", NaN, inf
        result = None
    if (result is None or isinstance(value, (bool, np.bool_))
            or not (isinstance(value, str) or result == value)):
        raise ScenarioError(f"{path}: must be an integer, got {value!r}")
    return result


@dataclass(frozen=True)
class Customer:
    """One customer: per-slot willingness, satiation rate, daily energy band."""

    id: int
    w: np.ndarray       # willingness coefficient per slot (utils/kWh)
    alpha: float        # satiation coefficient (utils/kWh^2)
    d_min: float        # minimum daily energy (kWh)
    d_max: float        # maximum daily energy (kWh)

    @property
    def satiation(self) -> np.ndarray:
        """Per-slot consumption level beyond which utility is flat."""
        return self.w / self.alpha


@dataclass(frozen=True)
class BlockSchedule:
    """Per-slot consumption threshold separating the two price blocks."""

    b: np.ndarray       # block threshold per slot (kWh)


@dataclass(frozen=True)
class CostParams:
    """Two-segment quadratic production cost coefficients (per slot)."""

    beta1: np.ndarray   # first-segment coefficient (currency/kWh^2)
    beta2: np.ndarray   # second-segment coefficient (currency/kWh^2)


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
    """

    ids: np.ndarray
    w: np.ndarray
    alpha: np.ndarray
    d_min: np.ndarray
    d_max: np.ndarray
    blocks: BlockSchedule
    cost: CostParams

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
                              d_max=float(hi))
                     for i, w, a, lo, hi in zip(self.ids, self.w, self.alpha[:, 0],
                                                self.d_min, self.d_max))

    def fingerprint(self) -> str:
        """Stable digest of all scenario data, used to match solver outputs."""
        h = hashlib.sha256()
        h.update(np.array(self.w.shape).tobytes())
        # one row per customer (id, alpha, d_min, d_max, w); digests depend on it
        h.update(np.column_stack([self.ids.astype(float), self.alpha, self.d_min,
                                  self.d_max, self.w]).tobytes())
        for per_slot in (self.blocks.b, self.cost.beta1, self.cost.beta2):
            h.update(np.asarray(per_slot, dtype=float).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class Allocation:
    """Per-(customer, slot) consumption.  Its block split ``min(x, b)``,
    ``max(x, b)`` is derived where it is read, never stored."""

    x: np.ndarray       # consumption, shape (N, T)


def utility_value(x, w, alpha):
    """Customer utility of consumption.

    Quadratic ``w*x - (alpha/2)*x**2`` up to the satiation point ``w/alpha``,
    flat at ``w**2 / (2*alpha)`` beyond it.  Continuous, nondecreasing and
    concave, with zero utility at zero consumption.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("consumption must be nonnegative")
    w = np.asarray(w, dtype=float)
    val = np.asarray(w * x - 0.5 * alpha * x * x)
    # the flat value only where it is used: w*w overflows for w past ~1e154
    flat = ~(x < w / alpha)
    if flat.any():
        w_flat = np.broadcast_to(w, val.shape)[flat]
        val[flat] = w_flat * w_flat / (2.0 * np.broadcast_to(alpha, val.shape)[flat])
    return float(val) if val.ndim == 0 else val


def utility_gradient(x, w, alpha):
    """Marginal utility: ``w - alpha*x`` below satiation, 0 at and beyond it.

    The subgradient at the kink is taken on the saturated side (0) so a
    gradient step never pushes consumption past satiation.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("consumption must be nonnegative")
    w = np.asarray(w, dtype=float)
    grad = np.where(x < w / alpha, w - alpha * x, 0.0)
    return float(grad) if grad.ndim == 0 else grad


def cost_value(demand, block_total, cost: CostParams):
    """Supplier cost of serving aggregate demand at one or more slots.

    ``beta1 * D**2`` while demand is at or below the aggregate block
    threshold ``block_total`` (= b * N), ``beta2 * D**2`` above it.  Note the
    cost itself jumps at the threshold whenever beta1 != beta2.
    """
    demand = np.asarray(demand, dtype=float)
    if np.any(demand < 0):
        raise ValueError("demand must be nonnegative")
    beta = np.where(demand <= np.asarray(block_total, dtype=float),
                    np.asarray(cost.beta1, dtype=float),
                    np.asarray(cost.beta2, dtype=float))
    val = beta * demand * demand
    return float(val) if val.ndim == 0 else val


def validate_scenario(doc: dict) -> Scenario:
    """Validate a parsed scenario document and build a Scenario.

    Scalars broadcast to per-slot vectors.  Keys starting with an underscore
    are ignored (free-form notes).  Every invariant violation is reported
    with the path of the offending field.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")

    if "num_slots" not in doc:
        raise ScenarioError("num_slots: field is required")
    num_slots = _as_integer(doc["num_slots"], "num_slots")
    if num_slots < 1:
        raise ScenarioError("num_slots: must be at least 1")

    raw_customers = doc.get("customers")
    if not isinstance(raw_customers, list) or not raw_customers:
        raise ScenarioError("customers: must be a non-empty list")

    rows, seen = [], set()
    for idx, entry in enumerate(raw_customers):
        path = f"customers[{idx}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{path}: must be an object")
        w = _as_slot_array(entry.get("w", None), num_slots, f"{path}.w")
        if np.any(w <= 0):
            raise ScenarioError(f"{path}.w: w must be strictly positive for every slot")
        try:
            alpha = float(entry["alpha"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ScenarioError(f"{path}.alpha: must be a number")
        if alpha <= 0:
            raise ScenarioError(f"{path}.alpha: alpha must be strictly positive")
        try:
            d_min = float(entry.get("d_min", 0.0))
            d_max = float(entry["d_max"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ScenarioError(f"{path}: d_min/d_max must be numbers")
        for name, value in (("alpha", alpha), ("d_min", d_min), ("d_max", d_max)):
            if not math.isfinite(value):
                raise ScenarioError(f"{path}.{name}: must be finite (no NaN or inf)")
        if d_min < 0:
            raise ScenarioError(f"{path}.d_min: must be nonnegative")
        if d_min > d_max:
            raise ScenarioError(f"{path}: d_min exceeds d_max")
        cid = _as_integer(entry.get("id", idx), f"{path}.id")
        if cid in seen:
            raise ScenarioError(f"{path}.id: duplicate customer id {cid}")
        seen.add(cid)
        rows.append((cid, w, alpha, d_min, d_max))

    ids, ws, alphas, d_mins, d_maxs = zip(*rows)
    w, alpha, d_min = np.stack(ws), np.array(alphas)[:, None], np.array(d_mins)
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        satiation = w / alpha
        total_satiation = satiation.sum(axis=1)
    overflowed = ~np.isfinite(satiation).all(axis=1)
    bad = np.flatnonzero(overflowed | (d_min > total_satiation))
    if bad.size:
        idx = bad[0]
        if overflowed[idx]:
            raise ScenarioError(
                f"customers[{idx}]: satiation w/alpha must be finite, overflows in "
                f"slots {np.flatnonzero(~np.isfinite(satiation[idx])).tolist()}")
        raise ScenarioError(
            f"customers[{idx}]: infeasible scenario, d_min exceeds the total "
            f"satiation energy sum(w/alpha) = {float(total_satiation[idx])!r}"
        )

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
    if np.any(beta1 <= 0):
        raise ScenarioError("cost.beta1: must be strictly positive")
    if np.any(beta2 <= 0):
        raise ScenarioError("cost.beta2: must be strictly positive")
    if np.any(beta2 < beta1):
        raise ScenarioError("cost.beta2: must be at least beta1 in every slot, got "
                            f"beta2 < beta1 in slots {np.flatnonzero(beta2 < beta1).tolist()}")

    return Scenario(ids=np.array(ids), w=w, alpha=alpha, d_min=d_min, d_max=np.array(d_maxs),
                    blocks=BlockSchedule(b=b), cost=CostParams(beta1=beta1, beta2=beta2))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})")
    return validate_scenario(doc)
