"""Supplier side: marginal-cost block prices."""

from __future__ import annotations

import numpy as np

from .model import PriceSchedule


def block_prices(demand, beta1, beta2) -> PriceSchedule:
    """Marginal-cost prices for both blocks, evaluated at per-slot total demand.

    The first-block price uses the first-segment cost coefficient and the
    second-block price the second-segment coefficient, both at the current
    total demand D: ``p_l = 2*beta1*D``, ``p_u = 2*beta2*D``.  Consequently
    ``p_u/p_l == beta2/beta1`` whenever D > 0.
    """
    return _prices(np.asarray(demand, dtype=float), 2.0 * np.asarray(beta1, dtype=float),
                   2.0 * np.asarray(beta2, dtype=float))


def _prices(demand, two_beta1, two_beta2) -> PriceSchedule:
    """:func:`block_prices` given ``2*beta1`` and ``2*beta2``; unchecked."""
    return PriceSchedule(p_l=two_beta1 * demand, p_u=two_beta2 * demand)
