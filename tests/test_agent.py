import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brpmarket import (
    Allocation,
    KktMultipliers,
    PriceSchedule,
    kkt_residual,
    net_utility,
    project_band,
    recover_multipliers,
    run_market,
    RunConfig,
    step_profile,
    utility_gradient,
    validate_scenario,
)
from conftest import single_customer_scenario


def scenario(w=40.0, alpha=1.0, d_min=0.0, d_max=100.0, num_slots=1, b=25.0):
    return single_customer_scenario(w=w, alpha=alpha, b=b, d_min=d_min,
                                    d_max=d_max, num_slots=num_slots)


def prices(p_l, p_u):
    return PriceSchedule(p_l=np.atleast_1d(np.asarray(p_l, dtype=float)),
                         p_u=np.atleast_1d(np.asarray(p_u, dtype=float)))


def alloc(x):
    return Allocation(np.atleast_2d(np.asarray(x, dtype=float)))


def project_row(raw, d_min, d_max):
    return project_band(np.asarray(raw, dtype=float)[None, :], d_min, d_max)[0]


def grid_projection(raw, d_min, d_max, step):
    """Nearest feasible point of a two-slot row on a dense grid."""
    axis = np.arange(0.0, max(d_max, raw.max(), 0.0) + step, step)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    feasible = (g1 + g2 >= d_min) & (g1 + g2 <= d_max)
    dist = (g1 - raw[0]) ** 2 + (g2 - raw[1]) ** 2
    dist[~feasible] = np.inf
    j = np.unravel_index(np.argmin(dist), dist.shape)
    return np.array([axis[j[0]], axis[j[1]]])


class TestGradientStep:
    def test_stationary_when_gradient_matches_both_prices(self):
        scen = scenario()
        x = np.array([[10.0]])
        # U'(10) = 30 equals both prices
        np.testing.assert_allclose(step_profile(x, prices(30.0, 30.0), 0.1, scen), x)

    def test_worked_update_from_zero(self):
        # y: 0 + 0.1*(40 - 20) = 2; z: 25 + 0.1*(40 - 30) = 26; x = y + z - b
        out = step_profile(np.array([[0.0]]), prices(20.0, 30.0), 0.1, scenario())
        assert out[0, 0] == pytest.approx(3.0)

    def test_zero_step_size_unchanged(self):
        x = np.array([[17.0]])
        out = step_profile(x, prices(5.0, 9.0), 0.0, scenario())
        np.testing.assert_array_equal(out, x)

    def test_overflow_to_minus_inf_raises(self):
        # y steps to -inf; the band projection alone would clip it to 0
        x = np.array([[30.0]])
        with pytest.raises(FloatingPointError, match="must be finite"):
            step_profile(x, prices(1e300, 1e300), 1e10, scenario())


class TestProjectProfile:
    def test_feasible_point_unchanged(self):
        assert project_row([12.0], 0.0, 100.0)[0] == 12.0

    def test_negativity_clipped_sum_slack(self):
        np.testing.assert_allclose(project_row([-5.0, 10.0], 0.0, 100.0), [0.0, 10.0])

    def test_sum_constraint_uniform_shift(self):
        np.testing.assert_allclose(project_row([30.0, 30.0], 0.0, 40.0),
                                   [20.0, 20.0], atol=1e-8)

    def test_against_dense_grid_search(self):
        # independent oracle: nearest feasible point on a dense grid
        raw = np.array([30.0, 30.0])
        best = grid_projection(raw, 0.0, 40.0, 0.05)
        np.testing.assert_allclose(project_row(raw, 0.0, 40.0), best, atol=0.05)

    def test_batch_against_dense_grid_search(self):
        rng = np.random.default_rng(23)
        raw = rng.uniform(-10.0, 30.0, size=(6, 2))
        d_min = np.array([0.0, 0.0, 0.0, 30.0, 45.0, 5.0])
        d_max = np.array([10.0, 20.0, 60.0, 40.0, 50.0, 5.0])
        out = project_band(raw, d_min, d_max)
        for row, lo, hi, got in zip(raw, d_min, d_max, out):
            np.testing.assert_allclose(got, grid_projection(row, lo, hi, 0.05),
                                       atol=0.05)

    def test_batch_matches_single_rows(self):
        rng = np.random.default_rng(24)
        raw = rng.uniform(-20.0, 60.0, size=(50, 5))
        d_min = rng.uniform(0.0, 40.0, size=50)
        d_max = d_min + rng.uniform(0.0, 80.0, size=50)
        out = project_band(raw, d_min, d_max)
        for i in range(50):
            np.testing.assert_array_equal(out[i], project_row(raw[i], d_min[i], d_max[i]))

    def test_equal_bounds_fix_the_daily_sum(self):
        rng = np.random.default_rng(25)
        raw = rng.uniform(-20.0, 60.0, size=(20, 4))
        d = rng.uniform(0.5, 80.0, size=20)
        out = project_band(raw, d, d)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), d, rtol=1e-12)

    def test_zero_cap_gives_zeros(self):
        rng = np.random.default_rng(26)
        raw = rng.uniform(-20.0, 60.0, size=(10, 4))
        np.testing.assert_array_equal(project_band(raw, 0.0, 0.0), np.zeros((10, 4)))

    def test_all_negative_row_raised_to_floor(self):
        rng = np.random.default_rng(27)
        raw = -rng.uniform(1.0, 20.0, size=(10, 3))
        out = project_band(raw, 6.0, 50.0)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 6.0, rtol=1e-12)
        # the largest entry is raised first and only entries above the
        # common cut-off end up positive
        for row, got in zip(raw, out):
            positive = got > 0
            assert positive[np.argmax(row)]
            np.testing.assert_allclose(got[positive] - row[positive],
                                       (got - row)[positive][0])

    def test_tied_entries(self):
        rng = np.random.default_rng(28)
        value = rng.uniform(5.0, 20.0, size=8)
        raw = np.repeat(value[:, None], 4, axis=1)
        out = project_band(raw, 0.0, 8.0)
        np.testing.assert_allclose(out, 2.0, rtol=1e-12)
        floor = project_band(-raw, 8.0, 100.0)
        np.testing.assert_allclose(floor, 2.0, rtol=1e-12)

    def test_infeasible_band_rejected(self):
        with pytest.raises(ValueError, match="d_min exceeds d_max"):
            project_band(np.array([[1.0]]), 5.0, 2.0)
        with pytest.raises(ValueError, match="d_min exceeds d_max"):
            project_band(np.ones((2, 3)), [0.0, 5.0], [1.0, 2.0])

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            t = int(rng.integers(1, 6))
            raw = rng.uniform(-20, 60, size=t)
            d_min = float(rng.uniform(0, 10))
            d_max = d_min + float(rng.uniform(0, 50))
            once = project_row(raw, d_min, d_max)
            twice = project_row(once, d_min, d_max)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_variational_inequality(self):
        rng = np.random.default_rng(22)
        t = 3
        d_min, d_max = 2.0, 30.0
        raw = rng.uniform(-20, 60, size=t)
        p = project_row(raw, d_min, d_max)
        for _ in range(100):
            q = project_row(rng.uniform(0, 40, size=t), d_min, d_max)
            assert float(np.dot(raw - p, q - p)) <= 1e-9


class TestNetUtility:
    def test_zero_profile(self):
        assert net_utility(np.array([[0.0]]), prices(2.0, 7.0), scenario())[0] == 0.0

    def test_first_block_only(self):
        # U(10) = 350, payment 2*10
        assert net_utility(np.array([[10.0]]), prices(2.0, 7.0),
                           scenario())[0] == pytest.approx(330.0)

    def test_spanning_blocks(self):
        # (3000 - 450) - 1*25 - 2*(30 - 25)
        assert net_utility(np.array([[30.0]]), prices(1.0, 2.0),
                           scenario(w=100.0))[0] == pytest.approx(2515.0)


class TestStepProfileDescent:
    def test_never_decreases_net_utility_at_fixed_prices(self, demo_scenario):
        # follow the market trajectory; at each iterate a small-step update
        # must not lower any customer's net utility under the same prices
        report, trace = run_market(demo_scenario, RunConfig(gamma=0.01))
        for rec in trace.records[::10]:
            x = rec.allocation.x
            before = net_utility(x, rec.prices, demo_scenario)
            after = net_utility(step_profile(x, rec.prices, 0.01, demo_scenario),
                                rec.prices, demo_scenario)
            assert np.all(after >= before - 1e-9)


class TestConvergedPointConditions:
    def test_segment_correct_marginal_prices(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        blk = demo_scenario.blocks
        for i, cust in enumerate(demo_scenario.customers):
            x = report.allocation.x[i]
            grad = utility_gradient(x, cust.w, cust.alpha)
            for t in range(demo_scenario.num_slots):
                b = blk.b[t]
                p_l, p_u = report.prices.p_l[t], report.prices.p_u[t]
                if 0 < x[t] < b:
                    assert abs(grad[t] - p_l) < 1e-4
                elif x[t] > b:
                    assert abs(grad[t] - p_u) < 1e-4
                else:
                    assert p_l - 1e-4 <= grad[t] <= p_u + 1e-4


def multipliers(lambda1, lambda2):
    return KktMultipliers(lambda1=np.array([lambda1]), lambda2=np.array([lambda2]))


class TestKktResidual:
    def test_exact_interior_stationarity(self):
        scen = scenario()
        res = kkt_residual(scen, alloc([10.0]), prices(30.0, 35.0),
                           multipliers(0.0, 0.0))
        assert res.stationarity_y == 0.0
        # z = b is an active bound: excluded
        assert res.stationarity_z == 0.0

    def test_slack_with_positive_multiplier_violates(self):
        scen = scenario(d_max=100.0)
        res = kkt_residual(scen, alloc([10.0]), prices(30.0, 35.0),
                           multipliers(1.0, 0.0))
        assert res.comp_slack_1 > 0

    def test_negative_multiplier_rejected(self):
        scen = scenario()
        with pytest.raises(ValueError):
            kkt_residual(scen, alloc([10.0]), prices(30.0, 35.0),
                         multipliers(-1.0, 0.0))

    def test_equilibrium_with_recovered_multipliers(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        mult = recover_multipliers(demo_scenario, report.allocation, report.prices)
        res = kkt_residual(demo_scenario, report.allocation, report.prices, mult)
        assert res.worst() < 1e-5


class TestMultiplierRecovery:
    def test_binding_d_max_positive_lambda1(self):
        doc = {
            "num_slots": 1,
            "customers": [{"id": 0, "w": 80, "alpha": 1.0,
                           "d_min": 0.0, "d_max": 10.0}],
            "blocks": {"b": 60},
            "cost": {"beta1": 0.5, "beta2": 0.6},
        }
        scen = validate_scenario(doc)
        report, _ = run_market(scen, RunConfig(gamma=0.2, tol=1e-8))
        mult = recover_multipliers(scen, report.allocation, report.prices)
        # demand capped at 10 while U'(10) = 70 > p_l = 10: scarcity rent
        assert report.allocation.x[0, 0] == pytest.approx(10.0, abs=1e-6)
        assert mult.lambda1[0] == pytest.approx(70.0 - 10.0, abs=1e-4)
        res = kkt_residual(scen, report.allocation, report.prices, mult)
        assert res.worst() < 1e-5


@st.composite
def band_rows(draw):
    """A batch of rows with one daily band per row: (x, d_min, d_max)."""
    n = draw(st.integers(1, 4))
    t = draw(st.integers(1, 6))
    entry = st.floats(-50.0, 100.0)
    x = np.array(draw(st.lists(st.lists(entry, min_size=t, max_size=t),
                               min_size=n, max_size=n)))
    d_min = np.array(draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.floats(0.0, 80.0), min_size=n, max_size=n)))
    return x, d_min, d_min + width


PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=200,
                             deadline=None)


class TestProjectBandProperties:
    """Properties of the projection onto {x >= 0, d_min <= sum(x) <= d_max}."""

    @PROPERTY_SETTINGS
    @given(band_rows())
    def test_idempotent(self, case):
        x, d_min, d_max = case
        once = project_band(x, d_min, d_max)
        np.testing.assert_allclose(project_band(once, d_min, d_max), once,
                                   rtol=0, atol=1e-12 * (1 + np.abs(x).max()))

    @PROPERTY_SETTINGS
    @given(band_rows())
    def test_feasible(self, case):
        x, d_min, d_max = case
        p = project_band(x, d_min, d_max)
        assert p.shape == x.shape
        assert np.all(p >= 0.0)
        tol = 1e-12 * (1 + np.abs(x).sum(axis=1))
        daily = p.sum(axis=1)
        assert np.all(daily >= d_min - tol) and np.all(daily <= d_max + tol)

    @PROPERTY_SETTINGS
    @given(band_rows(), st.data())
    def test_variational_inequality(self, case, data):
        # (x - P(x)) . (q - P(x)) <= 0 for every feasible q
        x, d_min, d_max = case
        p = project_band(x, d_min, d_max)
        n, t = x.shape
        weights = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=t, max_size=t),
            min_size=n, max_size=n))) + 1e-3
        share = np.array(data.draw(st.lists(st.floats(0.0, 1.0),
                                            min_size=n, max_size=n)))
        daily = d_min + share * (d_max - d_min)
        q = weights * (daily / weights.sum(axis=1))[:, None]
        inner = np.sum((x - p) * (q - p), axis=1)
        assert np.all(inner <= 1e-9 * (1 + np.abs(x).max()) ** 2)
