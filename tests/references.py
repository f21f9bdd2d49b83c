"""References for the tests.  Per-item references for the batched code in ``brpmarket``:
the per-piece loop of the exact welfare optimum and the per-entry scenario validator, whose
bits and messages the batched functions must give.  And what only tests read: a customer's
net utility, the iterates of a market run as the run produced them, and the plain market
loop, with no exact finish, written out from public functions."""

import itertools
import math
from typing import NamedTuple

import numpy as np

from brpmarket import (Allocation, block_prices, oracle, social_welfare, step_profile,
                       worst_kkt_residual)
from brpmarket.market import run_market
from brpmarket.model import PriceSchedule, Scenario, ScenarioError, utility_value


class Record(NamedTuple):
    """One iterate of a market run: as the run's observer saw it, and its welfare."""

    k: int
    x: np.ndarray
    prices: PriceSchedule
    max_change: float
    welfare: float


def recorded_run(scenario, config):
    """``(report, records)``: :func:`run_market` with an observer that keeps each iterate
    the run produced, ``(k, x, prices, max_change, welfare)``, as the run passed it."""
    records = []
    report, _ = run_market(scenario, config, lambda *iterate: records.append(Record(*iterate)))
    return report, records


def reference_market(scenario, config):
    """The plain distributed loop written out from public functions, every (x, p_l, p_u,
    welfare, max_change) it produces: it steps until x and the prices move by less than
    tol at an iterate whose certificate is below tol, with no exact finish on a face."""
    t = scenario.num_slots
    x = np.repeat(scenario.d_min[:, None] / t, t, axis=1)
    prices = block_prices(x.sum(axis=0), scenario.beta1, scenario.beta2)
    records = [(x, prices.p_l, prices.p_u,
                social_welfare(Allocation(x), scenario), float("nan"))]
    for _ in range(config.max_iter):
        new_x = step_profile(x, prices, config.gamma, scenario)
        change = float(np.max(np.abs(new_x - x)))
        new_prices = block_prices(new_x.sum(axis=0), scenario.beta1, scenario.beta2)
        records.append((new_x, new_prices.p_l, new_prices.p_u,
                        social_welfare(Allocation(new_x), scenario), change))
        done = (change < config.tol
                and float(np.max(np.abs(new_prices.p_l - prices.p_l))) < config.tol
                and float(np.max(np.abs(new_prices.p_u - prices.p_u))) < config.tol
                and worst_kkt_residual(scenario, Allocation(new_x), new_prices) < config.tol)
        x, prices = new_x, new_prices
        if done:
            break
    return records


def net_utility(x, prices, scenario):
    """Each customer's utility minus block payments, shape (N,):
    ``sum_t U(x) - p_l*min(x, b) - p_u*max(x - b, 0)``."""
    b = scenario.b
    util = utility_value(x, scenario.w, scenario.alpha)
    payment = prices.p_l * np.minimum(x, b) + prices.p_u * np.maximum(x - b, 0.0)
    return np.sum(util - payment, axis=1)


def reference_welfare_optimum(scenario):
    """:func:`oracle.welfare_optimum`'s ``(x, welfare)``, one cell piece and one cost piece
    at a time: the best piece's first maximum, a later piece winning only with a larger
    value."""
    n, t = scenario.num_customers, scenario.num_slots
    nt = n * t
    if nt > 3:
        raise ValueError("welfare optimum limited to N*T <= 3 variables")
    # cells run customer-major, the row-major order of x
    w, sat = scenario.w.ravel(), scenario.satiation.ravel()
    alpha = np.repeat(scenario.alpha[:, 0], t)
    slots = np.tile(np.eye(t), n)             # (T, N*T): each slot's cells
    daily = np.repeat(np.eye(n), t, axis=1)   # (N, N*T): each customer's cells
    eye = np.eye(nt)
    best, best_x = -np.inf, None
    for quad in map(np.array, itertools.product((True, False), repeat=nt)):
        lin = np.where(quad, w, 0.0)
        with np.errstate(over="ignore"):  # inf only if a flat utility overflows
            flat = float(np.sum(0.5 * w[~quad] * sat[~quad]))
        # G x <= r; each cost piece below signs the slot rows, which changes no rank.
        # Row 0 is a null constraint that pads every set to N*T rows.
        rows = np.vstack([0.0 * eye[:1], -eye[quad], eye[quad], -eye[~quad], daily, -daily,
                          slots])
        bounds = np.concatenate([np.zeros(1 + quad.sum()), sat[quad], -sat[~quad],
                                 scenario.d_max, -scenario.d_min, scenario.b * n])
        sets = np.array([s + (0,) * (nt - k) for k in range(nt + 1)
                         for s in itertools.combinations(range(1, len(rows)), k)])
        pattern = np.diag(quad * 1.0) + np.einsum("si,sj->ij", slots, slots)
        with np.errstate(divide="ignore", invalid="ignore"):
            det = oracle._gauss_jordan(oracle._kkt(pattern, rows[sets], sets == 0),
                                       np.zeros((len(sets), 2 * nt)))[1]
        sets = sets[np.abs(det) > 0.5]
        for high in map(np.array, itertools.product((False, True), repeat=t)):
            side = np.concatenate([np.ones(len(rows) - t), np.where(high, -1.0, 1.0)])
            g, r = side[:, None] * rows, side * bounds
            beta = np.where(high, scenario.beta2, scenario.beta1)
            hess = (np.diag(np.where(quad, alpha, 0.0))
                    + 2.0 * np.einsum("si,s,sj->ij", slots, beta, slots))
            scale = hess.max()  # the system of H/scale, lin/scale has the same x
            kkt = oracle._kkt(hess / scale, g[sets], sets == 0)
            rhs = np.hstack([np.tile(lin / scale, (len(sets), 1)), r[sets]])
            z = oracle._gauss_jordan(kkt, rhs)[0]
            x = (z + oracle._gauss_jordan(kkt, rhs - np.einsum("cij,cj->ci", kkt, z))[0])[:, :nt]
            tol = 1e-9 * (nt * np.abs(x).max(axis=1, keepdims=True) + np.abs(r))
            x = x[np.all(np.einsum("ci,ri->cr", x, g) - r <= tol, axis=1)]
            value = (np.einsum("ci,i->c", x, lin) + flat
                     - 0.5 * np.einsum("ci,ij,cj->c", x, hess, x))
            if value.size and value.max() > best:
                best, best_x = float(value.max()), x[np.argmax(value)]

    return np.maximum(best_x, 0.0).reshape(n, t), best


def _is_bool(value):
    return isinstance(value, (bool, np.bool_))


def _slot_array(value, num_slots, path):
    """A per-slot field: a scalar broadcast, or a list of ``num_slots`` numbers."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{path}: expected a number or a list of numbers")
    for item in value if isinstance(value, (list, tuple, np.ndarray)) else [value]:
        if _is_bool(item):
            raise ScenarioError(f"{path}: must be a number, got {item!r}")
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


def _integer(value, path):
    try:
        result = int(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    if result is None or _is_bool(value) or not (isinstance(value, str) or result == value):
        raise ScenarioError(f"{path}: must be an integer, got {value!r}")
    return result


def reference_validate_scenario(doc):
    """:func:`brpmarket.validate_scenario`, one entry and one check at a time."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    if "num_slots" not in doc:
        raise ScenarioError("num_slots: field is required")
    num_slots = _integer(doc["num_slots"], "num_slots")
    if num_slots < 1:
        raise ScenarioError("num_slots: must be at least 1")
    raw_customers = doc.get("customers")
    if not isinstance(raw_customers, list) or not raw_customers:
        raise ScenarioError("customers: must be a non-empty list")
    if len(raw_customers) * num_slots * 8 > np.iinfo(np.intp).max:
        raise ScenarioError("num_slots: too large for an array of N x num_slots floats")

    rows, seen = [], set()
    for idx, entry in enumerate(raw_customers):
        path = f"customers[{idx}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{path}: must be an object")
        w = _slot_array(entry.get("w", None), num_slots, f"{path}.w")
        if np.any(w <= 0):
            raise ScenarioError(f"{path}.w: w must be strictly positive for every slot")
        try:
            alpha = float(entry["alpha"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ScenarioError(f"{path}.alpha: must be a number")
        if _is_bool(entry["alpha"]):
            raise ScenarioError(f"{path}.alpha: must be a number, got {entry['alpha']!r}")
        if alpha <= 0:
            raise ScenarioError(f"{path}.alpha: alpha must be strictly positive")
        try:
            d_min = float(entry.get("d_min", 0.0))
            d_max = float(entry["d_max"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ScenarioError(f"{path}: d_min/d_max must be numbers")
        for name in ("d_min", "d_max"):
            if _is_bool(entry.get(name)):
                raise ScenarioError(f"{path}.{name}: must be a number, got {entry[name]!r}")
        for name, value in (("alpha", alpha), ("d_min", d_min), ("d_max", d_max)):
            if not math.isfinite(value):
                raise ScenarioError(f"{path}.{name}: must be finite (no NaN or inf)")
        if d_min < 0:
            raise ScenarioError(f"{path}.d_min: must be nonnegative")
        if d_min > d_max:
            raise ScenarioError(f"{path}: d_min exceeds d_max")
        cid = _integer(entry.get("id", idx), f"{path}.id")
        if cid in seen:
            raise ScenarioError(f"{path}.id: duplicate customer id {cid}")
        seen.add(cid)
        rows.append((cid, w, alpha, d_min, d_max))

    blocks_doc = doc.get("blocks")
    if not isinstance(blocks_doc, dict):
        raise ScenarioError("blocks: must be an object with field b")
    b = _slot_array(blocks_doc.get("b", None), num_slots, "blocks.b")
    if np.any(b <= 0):
        raise ScenarioError("blocks.b: thresholds must be strictly positive")
    cost_doc = doc.get("cost")
    if not isinstance(cost_doc, dict):
        raise ScenarioError("cost: must be an object with fields beta1, beta2")
    beta1 = _slot_array(cost_doc.get("beta1", None), num_slots, "cost.beta1")
    beta2 = _slot_array(cost_doc.get("beta2", None), num_slots, "cost.beta2")
    if np.any(beta1 <= 0):
        raise ScenarioError("cost.beta1: must be strictly positive")
    if np.any(beta2 <= 0):
        raise ScenarioError("cost.beta2: must be strictly positive")
    if np.any(beta2 < beta1):
        raise ScenarioError("cost.beta2: must be at least beta1 in every slot, got "
                            f"beta2 < beta1 in slots {np.flatnonzero(beta2 < beta1).tolist()}")

    ids, ws, alphas, d_mins, d_maxs = zip(*rows)
    scenario = Scenario(ids=np.array(ids), w=np.stack(ws), alpha=np.array(alphas)[:, None],
                        d_min=np.array(d_mins), d_max=np.array(d_maxs),
                        b=b, beta1=beta1, beta2=beta2)
    with np.errstate(over="ignore"):
        satiation = scenario.satiation
        total_satiation = satiation.sum(axis=1)
    for idx, row in enumerate(satiation):
        if not np.isfinite(row).all():
            raise ScenarioError(
                f"customers[{idx}]: satiation w/alpha must be finite, overflows in "
                f"slots {np.flatnonzero(~np.isfinite(row)).tolist()}")
        if scenario.d_min[idx] > total_satiation[idx]:
            raise ScenarioError(
                f"customers[{idx}]: infeasible scenario, d_min exceeds the total "
                f"satiation energy sum(w/alpha) = {float(total_satiation[idx])!r}")
    return scenario
