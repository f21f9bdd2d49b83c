"""Supplier side: marginal-cost block prices and revenue accounting."""

from __future__ import annotations

import numpy as np

from .model import Allocation, BlockSchedule, CostParams, PriceSchedule, cost_gradients, cost_value


def block_prices(demand, cost: CostParams) -> PriceSchedule:
    """Marginal-cost prices for both blocks, evaluated at per-slot total demand.

    The first-block price uses the first-segment cost coefficient and the
    second-block price the second-segment coefficient, both at the current
    total demand D: ``p_l = 2*beta1*D``, ``p_u = 2*beta2*D``.  Consequently
    ``p_u/p_l == beta2/beta1`` whenever D > 0.
    """
    return PriceSchedule(*cost_gradients(demand, cost))


def revenue(alloc: Allocation, prices: PriceSchedule, blocks: BlockSchedule,
            cost: CostParams) -> float:
    """Supplier net revenue: block sales income minus production cost."""
    first_block = alloc.y.sum(axis=0)
    second_block = (alloc.z - blocks.b).sum(axis=0)
    n = alloc.x.shape[0]
    income = prices.p_l * first_block + prices.p_u * second_block
    production = cost_value(first_block + second_block, blocks.b * n, cost)
    return float(np.sum(income - production))
