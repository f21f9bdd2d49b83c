import numpy as np
import pytest

from brpmarket import (
    Allocation,
    BlockSchedule,
    CostParams,
    block_prices,
    revenue,
)


def demand(first, second):
    """Per-slot total demand from first-block and second-block energy."""
    return np.asarray(first, dtype=float) + np.asarray(second, dtype=float)


class TestBlockPrices:
    def test_zero_demand_zero_prices(self):
        prices = block_prices(demand([0.0], [0.0]), CostParams(0.5, 0.6))
        assert prices.p_l[0] == 0.0
        assert prices.p_u[0] == 0.0

    def test_marginal_of_quadratic(self):
        prices = block_prices(demand([40.0], [0.0]), CostParams(0.5, 0.6))
        assert prices.p_l[0] == pytest.approx(40.0)
        assert prices.p_u[0] == pytest.approx(48.0)

    def test_price_ratio_equals_beta_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            b1 = rng.uniform(0.1, 2.0)
            b2 = rng.uniform(0.1, 2.0)
            d1 = rng.uniform(0.1, 100.0)
            d2 = rng.uniform(0.0, 50.0)
            prices = block_prices(demand([d1], [d2]), CostParams(b1, b2))
            assert prices.p_u[0] / prices.p_l[0] == pytest.approx(b2 / b1, abs=1e-12)

    def test_second_block_pricier_when_beta2_larger(self):
        prices = block_prices(demand([10.0], [5.0]), CostParams(0.5, 0.6))
        assert prices.p_u[0] > prices.p_l[0]

    def test_linear_in_demand(self):
        cost = CostParams(0.5, 0.6)
        p1 = block_prices(demand([12.0], [3.0]), cost)
        p2 = block_prices(demand([24.0], [6.0]), cost)
        assert p2.p_l[0] == pytest.approx(2 * p1.p_l[0])
        assert p2.p_u[0] == pytest.approx(2 * p1.p_u[0])


class TestRevenue:
    def test_no_sales_no_cost(self):
        blocks = BlockSchedule(b=np.array([25.0]))
        alloc = Allocation.from_consumption(np.zeros((2, 1)), blocks)
        from brpmarket import PriceSchedule
        prices = PriceSchedule(p_l=np.array([2.0]), p_u=np.array([5.0]))
        assert revenue(alloc, prices, blocks, CostParams(0.5, 0.6)) == 0.0

    def test_single_customer_first_block(self):
        from brpmarket import PriceSchedule
        blocks = BlockSchedule(b=np.array([25.0]))
        alloc = Allocation.from_consumption(np.array([[10.0]]), blocks)
        prices = PriceSchedule(p_l=np.array([2.0]), p_u=np.array([5.0]))
        # 2*10 - 0.01*100
        assert revenue(alloc, prices, blocks, CostParams(0.01, 0.01)) == pytest.approx(19.0)

    def test_two_customers_spanning_blocks(self):
        from brpmarket import PriceSchedule
        blocks = BlockSchedule(b=np.array([25.0]))
        alloc = Allocation.from_consumption(np.array([[30.0], [30.0]]), blocks)
        prices = PriceSchedule(p_l=np.array([1.0]), p_u=np.array([2.0]))
        # Y = 50, Z = 10, zero cost coefficients: 1*50 + 2*10
        assert revenue(alloc, prices, blocks, CostParams(0.0, 0.0)) == pytest.approx(70.0)


class TestAggregateDemand:
    def test_decomposition_identity(self):
        rng = np.random.default_rng(9)
        blocks = BlockSchedule(b=rng.uniform(5, 40, size=4))
        x = rng.uniform(0, 80, size=(3, 4))
        alloc = Allocation.from_consumption(x, blocks)
        first_block = alloc.y.sum(axis=0)
        second_block = (alloc.z - blocks.b).sum(axis=0)
        assert np.all(first_block >= -1e-12)
        assert np.all(second_block >= -1e-12)
        np.testing.assert_allclose(first_block + second_block, x.sum(axis=0),
                                   rtol=1e-12)
