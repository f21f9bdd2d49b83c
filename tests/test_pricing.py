import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brpmarket import block_prices


def demand(first, second):
    """Per-slot total demand from first-block and second-block energy."""
    return np.asarray(first, dtype=float) + np.asarray(second, dtype=float)


class TestBlockPrices:
    def test_zero_demand_zero_prices(self):
        prices = block_prices(demand([0.0], [0.0]), 0.5, 0.6)
        assert prices.p_l[0] == 0.0
        assert prices.p_u[0] == 0.0

    def test_marginal_of_quadratic(self):
        prices = block_prices(demand([40.0], [0.0]), 0.5, 0.6)
        assert prices.p_l[0] == pytest.approx(40.0)
        assert prices.p_u[0] == pytest.approx(48.0)

    def test_price_ratio_equals_beta_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            b1 = rng.uniform(0.1, 2.0)
            b2 = rng.uniform(0.1, 2.0)
            d1 = rng.uniform(0.1, 100.0)
            d2 = rng.uniform(0.0, 50.0)
            prices = block_prices(demand([d1], [d2]), b1, b2)
            assert prices.p_u[0] / prices.p_l[0] == pytest.approx(b2 / b1, abs=1e-12)

    def test_second_block_pricier_when_beta2_larger(self):
        prices = block_prices(demand([10.0], [5.0]), 0.5, 0.6)
        assert prices.p_u[0] > prices.p_l[0]

    def test_linear_in_demand(self):
        cost = (0.5, 0.6)
        p1 = block_prices(demand([12.0], [3.0]), *cost)
        p2 = block_prices(demand([24.0], [6.0]), *cost)
        assert p2.p_l[0] == pytest.approx(2 * p1.p_l[0])
        assert p2.p_u[0] == pytest.approx(2 * p1.p_u[0])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.floats(5e-324, 1.7976931348623157e308), st.floats(0.0, 1.0),
           st.lists(st.floats(0.0, np.inf), min_size=1, max_size=4))
    def test_finite_second_block_price_bounds_the_first(self, beta2, share, demands):
        # run_market checks p_u alone: with 0 < beta1 <= beta2, as the validator
        # enforces, and demand >= 0 (inf too), p_l <= p_u, so a finite p_u (its
        # max is NaN if any entry is) makes p_l finite
        beta1 = max(beta2 * share, 5e-324)
        with np.errstate(over="ignore", invalid="ignore"):
            prices = block_prices(demands, np.full(len(demands), beta1),
                                  np.full(len(demands), beta2))
        if np.isfinite(prices.p_u.max()):
            assert np.isfinite(prices.p_l).all() and np.all(prices.p_l <= prices.p_u)


class TestAggregateDemand:
    def test_decomposition_identity(self):
        rng = np.random.default_rng(9)
        b = rng.uniform(5, 40, size=4)
        x = rng.uniform(0, 80, size=(3, 4))
        # first-block plus second-block energy per slot is the total demand
        first_block = np.minimum(x, b).sum(axis=0)
        second_block = np.maximum(x - b, 0.0).sum(axis=0)
        assert np.all(first_block >= -1e-12)
        assert np.all(second_block >= -1e-12)
        np.testing.assert_allclose(first_block + second_block, x.sum(axis=0),
                                   rtol=1e-12)
