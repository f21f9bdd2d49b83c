"""Supplier side: marginal-cost block prices."""

from __future__ import annotations

import numpy as np

from .model import CostParams, PriceSchedule


def block_prices(demand, cost: CostParams) -> PriceSchedule:
    """Marginal-cost prices for both blocks, evaluated at per-slot total demand.

    The first-block price uses the first-segment cost coefficient and the
    second-block price the second-segment coefficient, both at the current
    total demand D: ``p_l = 2*beta1*D``, ``p_u = 2*beta2*D``.  Consequently
    ``p_u/p_l == beta2/beta1`` whenever D > 0.
    """
    demand = np.asarray(demand, dtype=float)
    return PriceSchedule(p_l=2.0 * np.asarray(cost.beta1, dtype=float) * demand,
                         p_u=2.0 * np.asarray(cost.beta2, dtype=float) * demand)

