import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brpmarket import (
    Allocation,
    PriceSchedule,
    net_utility,
    project_band,
    recover_multipliers,
    run_market,
    RunConfig,
    step_profile,
    utility_gradient,
    validate_scenario,
    worst_kkt_residual,
)
from brpmarket.agent import _onto_blocks, _StepKernel
from conftest import make_scenario, single_customer_scenario
from test_market import nan_step_document


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
        # y: 0 + 0.1*(40 - 20) = 2; z': 0 + 0.1*(40 - 30) = 1; x = y + z'
        out = step_profile(np.array([[0.0]]), prices(20.0, 30.0), 0.1, scenario())
        assert out[0, 0] == pytest.approx(3.0)

    def test_zero_step_size_unchanged(self):
        x = np.array([[17.0]])
        out = step_profile(x, prices(5.0, 9.0), 0.0, scenario())
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("gamma", [-0.1, np.nan, np.inf])
    def test_negative_or_non_finite_step_size_rejected(self, gamma):
        # not the step's FloatingPointError: the step size itself is named
        with pytest.raises(ValueError, match="step size must be nonnegative and finite"):
            step_profile(np.array([[17.0]]), prices(5.0, 9.0), gamma, scenario())

    def test_overflow_to_minus_inf_raises(self):
        # y steps to -inf; the band projection alone would clip it to 0
        x = np.array([[30.0]])
        with pytest.raises(FloatingPointError, match="must be finite"):
            step_profile(x, prices(1e300, 1e300), 1e10, scenario())

    def test_non_finite_projection_raises(self):
        # the updates are finite, their band projection divides by a zero slope
        scen = validate_scenario(nan_step_document())
        x = np.array([[1.5e7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="must be finite"):
                step_profile(x, prices(2.0 * 1.5e7, 2e300 * 1.5e7), 10.0, scen)


class TestProjectProfile:
    def test_feasible_point_unchanged(self):
        assert project_row([12.0], 0.0, 100.0)[0] == 12.0

    def test_overflowing_knots_warn_nothing(self):
        # the row minus its maximum overflows to -inf; inf - inf between the sorted
        # knots is NaN only past every finite level
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_band([[-1e308, 1.7e308, 5e-324]], 1.0, 1e308)
        assert out.tolist() == [[0.0, 1e308, 0.0]]

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

    @pytest.mark.parametrize("raw, expected", [
        ([1e17], [10.0]),
        ([4e299], [10.0]),
        ([1e17, 5.0, 1e17 - 64], [10.0, 0.0, 0.0]),
    ])
    def test_entry_dwarfing_the_band(self, raw, expected):
        # the cap of 10 must survive sums whose terms are of order 1e17 or more
        np.testing.assert_array_equal(project_row(raw, 0.0, 10.0), expected)

    def test_row_summing_past_the_float_range(self):
        # the clipped row sum overflows to inf; that row shifts onto its cap,
        # without numpy's overflow warning
        out = project_band([[1e308, 1e308]], 0, 10)
        np.testing.assert_array_equal(out, [[5.0, 5.0]])

    def test_input_left_unchanged(self):
        raw = np.array([[30.0, -4.0, 30.0], [1.0, 2.0, 3.0]])
        before = raw.copy()
        for d_max in (40.0, [40.0, 10.0]):  # one row shifts, then both
            out = project_band(raw, 0.0, d_max)
            np.testing.assert_array_equal(raw, before)
            assert not np.shares_memory(out, raw)

    def test_run_with_willingness_dwarfing_the_band(self):
        # the first step lands near 4e299; its projection must keep the cap
        scen = single_customer_scenario(w=1e300, alpha=1e-6, d_max=10.0, beta=0.5)
        report, _ = run_market(scen, RunConfig(gamma=0.4))
        assert report.converged
        assert report.allocation.x.tolist() == [[10.0]]
        assert report.welfare == 1e301
        # the certificate's projection measures from the row maximum too
        assert report.worst_kkt_residual == 0.0

    def test_infeasible_band_rejected(self):
        with pytest.raises(ValueError, match="d_min exceeds d_max"):
            project_band(np.array([[1.0]]), 5.0, 2.0)
        with pytest.raises(ValueError, match="d_min exceeds d_max"):
            project_band(np.ones((2, 3)), [0.0, 5.0], [1.0, 2.0])

    @pytest.mark.parametrize("d_min, d_max", [(np.nan, 10.0), (0.0, np.nan),
                                              (0.0, [10.0, np.nan])])
    def test_nan_bound_rejected(self, d_min, d_max):
        # it used to be ignored: [[1, 2]] came back unchanged under a NaN floor
        with pytest.raises(ValueError, match="a bound is NaN"):
            project_band([[1.0, 2.0], [3.0, 4.0]], d_min, d_max)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected(self, bad):
        # an inf entry used to become a NaN row, with three RuntimeWarnings
        with pytest.raises(ValueError, match="x must be finite"):
            project_band([[bad, 1.0]], 0.0, 10.0)

    @pytest.mark.parametrize("d_min, d_max", [
        (np.inf, np.inf), (-np.inf, -np.inf), (-5.0, -1.0), ([0.0, np.inf], np.inf)])
    def test_band_without_finite_point_rejected(self, d_min, d_max):
        # [[1, 2]] used to come back as [[inf, inf]] under an inf floor, and as
        # [[0, 0]], above the cap, under a -inf one
        with pytest.raises(ValueError, match="band has no finite point"):
            project_band([[1.0, 2.0], [3.0, 4.0]], d_min, d_max)

    def test_infinite_cap_accepted(self):
        out = project_band([[3.0, -1.0]], 1.0, np.inf)
        np.testing.assert_array_equal(out, [[3.0, 0.0]])

    @pytest.mark.parametrize("d_max, expected", [(np.inf, [[3.0, 0.0]]), (2.0, [[2.0, 0.0]])])
    def test_minus_inf_floor_accepted(self, d_max, expected):
        out = project_band([[3.0, -1.0]], -np.inf, d_max)
        np.testing.assert_array_equal(out, expected)

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


class TestNaturalMapResidual:
    """The natural-map residual ``max|x - P(x + U'(x))|`` on one slot, with
    w = 40, alpha = 1 and b = 25 unless given: 0 exactly at an equilibrium,
    the distance one projected unit step moves ``x`` elsewhere."""

    @pytest.mark.parametrize("x, p_l, p_u, extra, residual, multiplier", [
        # non-equilibria, each with a slot at a bound
        pytest.param(0.0, 30.0, 35.0, {}, 10.0, 0.0, id="nothing-bought-below-p_l"),
        pytest.param(25.0, 10.0, 12.0, {}, 3.0, 0.0, id="at-b-above-p_u"),
        pytest.param(25.0, 20.0, 30.0, {}, 5.0, 0.0, id="at-b-below-p_l"),
        # closed-form equilibria
        pytest.param(10.0, 30.0, 35.0, {}, 0.0, 0.0, id="first-block"),
        pytest.param(10.0, 30.0, 30.0, {}, 0.0, 0.0, id="both-prices"),
        pytest.param(25.0, 10.0, 20.0, {}, 0.0, 0.0, id="at-b"),
        pytest.param(30.0, 5.0, 10.0, {}, 0.0, 0.0, id="second-block"),
        pytest.param(0.0, 45.0, 50.0, {}, 0.0, 0.0, id="nothing-bought"),
        pytest.param(10.0, 10.0, 12.0, {"w": 80.0, "b": 60.0, "d_max": 10.0}, 0.0, 60.0,
                     id="binding-cap"),
        pytest.param(30.0, 5.0, 20.0, {"d_min": 30.0}, 0.0, -10.0, id="binding-floor"),
        # a b that dwarfs x must not round the first block away
        pytest.param(0.0, 0.0, 0.0, {"w": 10.0, "b": 1e17, "d_max": 5.0}, 5.0, 5.0,
                     id="huge-b-below-cap"),
    ])
    def test_natural_map_residual(self, x, p_l, p_u, extra, residual, multiplier):
        scen, at = scenario(**extra), prices(p_l, p_u)
        assert worst_kkt_residual(scen, alloc([x]), at) == pytest.approx(residual, abs=1e-12)
        assert recover_multipliers(scen, alloc([x]), at).tolist() == \
            [pytest.approx(multiplier, abs=1e-12)]

    def test_nan_consumption_rejected(self):
        # NaN used to pass the x >= 0 check and give a NaN residual
        with pytest.raises(ValueError, match="consumption must be nonnegative"):
            worst_kkt_residual(scenario(num_slots=2), alloc([[1.0, np.nan]]), prices(
                [1.0, 1.0], [2.0, 2.0]))

    def test_equilibrium_with_recovered_multipliers(self, demo_scenario):
        report, _ = run_market(demo_scenario, RunConfig(gamma=0.1, tol=1e-10))
        assert report.worst_kkt_residual < 1e-5
        # the demo's daily bands are slack
        mult = recover_multipliers(demo_scenario, report.allocation, report.prices)
        np.testing.assert_array_equal(mult, np.zeros(2))


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
        assert mult.shape == (1,)
        assert mult[0] == pytest.approx(70.0 - 10.0, abs=1e-4)
        assert report.worst_kkt_residual < 1e-5


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


def reference_project_row(row, d_min, d_max):
    """The sort formula of project_band before it became the lifted projection
    with no first block (Duchi et al., ICML 2008), written out for one row."""
    t = row.size
    clipped = np.maximum(row, 0.0)
    total = clipped.sum()
    if d_min <= total <= d_max:
        return clipped
    radius = np.clip(total, d_min, d_max)
    desc = np.sort(row)[::-1]
    top = desc[0]
    desc = desc - top
    excess = np.cumsum(desc) - radius
    positive = desc - excess / np.arange(1, t + 1) > 0
    positive[0] = True
    count = t - np.argmax(positive[::-1])
    tau = excess[count - 1] / count
    return np.maximum((row - top) - tau, 0.0) if radius > 0 else np.zeros(t)


ROW_KINDS = ("above", "below", "inside", "zero_cap")


@st.composite
def shifting_batches(draw, kinds=ROW_KINDS):
    """A batch whose rows are each drawn above, below or inside their band,
    or against a zero cap: (x, d_min, d_max).  With ``kinds`` limited to the
    first, second and last, every row shifts."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, 8))
    entry = st.one_of(st.floats(-100.0, 100.0),
                      st.sampled_from([0.0, -0.0, 1.0, 1e17, -1e17]))
    x = np.array(draw(st.lists(st.lists(entry, min_size=t, max_size=t),
                               min_size=n, max_size=n)))
    d_min, d_max = np.zeros(n), np.zeros(n)
    for i, kind in enumerate(draw(st.lists(st.sampled_from(kinds),
                                           min_size=n, max_size=n))):
        if kind in ("above", "zero_cap") and not (x[i] > 0).any():
            x[i, 0] = 1.0  # a positive row, so that a cap below its sum binds
        total = np.maximum(x[i], 0.0).sum()
        share = draw(st.floats(0.0, 1.0))
        if kind == "above":
            d_max[i] = 0.5 * share * total
            d_min[i] = draw(st.floats(0.0, 1.0)) * d_max[i]
        elif kind == "below":
            d_min[i] = 2.0 * total + 1.0 + 50.0 * share
            d_max[i] = d_min[i] + draw(st.floats(0.0, 50.0))
        elif kind == "inside":
            d_min[i] = share * total
            d_max[i] = total + draw(st.floats(0.0, 50.0))
        # zero_cap keeps d_min = d_max = 0
    return x, d_min, d_max


class TestProjectBandBitwise:
    """project_band matches the former sort formula row by row, to 1e-14 of the
    row's largest entry before or after the projection (the two round
    differently), when every row shifts, when shifting and in-band rows mix,
    and on zero caps."""

    @staticmethod
    def check(case):
        x, d_min, d_max = case
        out = project_band(x, d_min, d_max)
        assert out.shape == x.shape and out.dtype == np.float64
        want = np.array([reference_project_row(row, lo, hi)
                         for row, lo, hi in zip(x, d_min, d_max)])
        scale = np.maximum(np.abs(x).max(axis=1), np.abs(want).max(axis=1))
        assert np.all(np.abs(out - want).max(axis=1) <= 1e-14 * scale)

    @PROPERTY_SETTINGS
    @given(shifting_batches(kinds=("above", "below", "zero_cap")))
    def test_every_row_shifts(self, case):
        x, d_min, d_max = case
        total = np.maximum(x, 0.0).sum(axis=1)
        assert not ((d_min <= total) & (total <= d_max)).any()
        self.check(case)

    @PROPERTY_SETTINGS
    @given(shifting_batches())
    def test_shifting_and_in_band_rows_mix(self, case):
        self.check(case)

    @PROPERTY_SETTINGS
    @given(shifting_batches(), st.floats(0.0, 50.0))
    def test_scalar_bounds(self, case, width):
        x, d_min, _ = case
        lo = float(d_min[0])
        self.check((x, np.full(len(x), lo), np.full(len(x), lo + width)))
        out = project_band(x, lo, lo + width)
        assert out.tobytes() == project_band(x, np.full(len(x), lo),
                                             np.full(len(x), lo + width)).tobytes()


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


LIFTED_KINDS = ("above", "below", "inside", "zero_cap", "equal")


def unshifted_rows(a, c, b):
    """The lifted projection at shift 0: ``clip(a, 0, b) + max(c, 0)``."""
    return np.maximum(c, 0.0) + np.clip(a, 0.0, b)


@st.composite
def lifted_rows(draw, huge_b=False):
    """Inputs of the lifted block-band projection, (a, c, b, d_min, d_max):
    the pair (a, c) drawn around a per-slot ``b`` and passed as the excess
    form (a, c - b), and one band per row, drawn above, below or around the
    unshifted row sum, a zero cap or ``d_min == d_max``.  With ``huge_b``,
    ``b`` is then 1e17, far past every entry but those of order 1e17, and the
    first row's band is a zero cap."""
    n = draw(st.integers(1, 4))
    t = draw(st.integers(1, 6))
    entry = st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, 1e17, -1e17]))
    a, c = (np.array(draw(st.lists(st.lists(entry, min_size=t, max_size=t),
                                   min_size=n, max_size=n))) for _ in range(2))
    b = np.array(draw(st.lists(st.floats(0.5, 50.0), min_size=t, max_size=t)))
    c = c - b
    if huge_b:
        b = np.full(t, 1e17)
    total = unshifted_rows(a, c, b).sum(axis=1)
    d_min, d_max = np.zeros(n), np.zeros(n)
    kinds = draw(st.lists(st.sampled_from(LIFTED_KINDS), min_size=n, max_size=n))
    for i, kind in enumerate(["zero_cap", *kinds[1:]] if huge_b else kinds):
        share, width = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 50.0))
        if kind == "above":
            d_max[i] = 0.5 * share * total[i]
            d_min[i] = draw(st.floats(0.0, 1.0)) * d_max[i]
        elif kind == "below":
            d_min[i] = total[i] + 1.0 + 50.0 * share
            d_max[i] = d_min[i] + width
        elif kind == "inside":
            d_min[i], d_max[i] = share * total[i], total[i] + width
        elif kind == "equal":
            d_min[i] = d_max[i] = 100.0 * share
        # zero_cap keeps d_min = d_max = 0
    return a, c, b, d_min, d_max


def bisect_lifted_row(a, c, b, target, cap):
    """One shifting row of the lifted projection by bisection on its shift:
    the least shift in size that brings ``sum(clip(a - s, 0, b) + max(c - s, 0))``
    down to a cap or up to a floor ``target``.  Returns (projection,
    shift - top, top) with ``top`` the row maximum that shifts are measured from."""
    top = max(a.max(), c.max())
    a, c = a - top, c - top

    def at(s):
        return np.clip(a - s, 0.0, b) + np.maximum(c - s, 0.0)

    # the row sum is above target at lo and 0 at hi; a cap takes the least s
    # whose sum is at most target, a floor the greatest whose sum is at least target
    lo, hi = min(c.min(), (a - b).min()) - target - 1.0, 0.0
    while hi - lo > 1e-13 * max(1.0, -lo):
        mid = 0.5 * (lo + hi)
        total = at(mid).sum()
        lo, hi = (lo, mid) if (total <= target if cap else total < target) else (mid, hi)
    s = hi if cap else lo
    return at(s), s, top


class TestLiftedProjectionProperties:
    """``agent._onto_blocks``, the projection of the pair (y, z') onto
    ``0 <= y <= b``, ``z' >= 0``, ``d_min <= sum(y + z') <= d_max``."""

    @PROPERTY_SETTINGS
    @given(lifted_rows(), st.data())
    def test_against_bisection(self, case, data):
        a, c, b, d_min, d_max = case
        proj, shift = _onto_blocks(a, c, b, d_min, d_max)
        assert proj.shape == a.shape and shift.shape == (len(a),)
        unshifted = unshifted_rows(a, c, b)
        for i in range(len(a)):
            if d_min[i] <= unshifted[i].sum() <= d_max[i]:
                # in band: no shift, the clipped entries
                assert shift[i] == 0.0
                assert proj[i].tobytes() == unshifted[i].tobytes()
                continue
            cap = unshifted[i].sum() > d_max[i]
            target = d_max[i] if cap else d_min[i]
            want, s_rel, top = bisect_lifted_row(a[i], c[i], b, target, cap)
            scale = 1.0 + abs(s_rel) + d_max[i]
            np.testing.assert_allclose(proj[i], want, rtol=0, atol=1e-9 * scale)
            assert shift[i] == pytest.approx(s_rel + top, rel=1e-9, abs=1e-9 * scale)
            # feasible, with the shift's sign that of the bound that binds
            assert np.all(proj[i] >= 0.0)
            daily = proj[i].sum()
            assert d_min[i] - 1e-9 * scale <= daily <= d_max[i] + 1e-9 * scale
            assert (shift[i] if cap else -shift[i]) >= -1e-9 * scale
            # optimal: (v - p) . (q - p) <= 0 for every feasible pair q, with
            # v = (a, c) and p = (y, z) rebuilt from the kernel's shift, which
            # is exact only to the rounding of its row maximum
            s, slack = shift[i] - top, 1e-9 * (scale + abs(top))
            rel_a, rel_c = a[i] - top, c[i] - top
            y = np.clip(rel_a - s, 0.0, b)
            z = np.maximum(rel_c - s, 0.0)
            np.testing.assert_allclose(y + z, proj[i], rtol=0, atol=slack)
            t = len(b)
            reach = 1.0 + max(np.abs(rel_a - s - y).max(), np.abs(rel_c - s - z).max())
            for _ in range(3):
                day = d_min[i] + data.draw(st.floats(0.0, 1.0)) * (d_max[i] - d_min[i])
                q_y = b * np.array(data.draw(st.lists(st.floats(0.0, 1.0),
                                                      min_size=t, max_size=t)))
                if q_y.sum() > day:
                    q_y *= day / q_y.sum()
                q_z = np.full(t, (day - q_y.sum()) / t)
                inner = (np.dot(rel_a - s - y, q_y - y) + np.dot(rel_c - s - z, q_z - z))
                assert inner <= slack * reach * t

    @pytest.mark.parametrize("a, c_above_b, d_min, d_max, shift", [
        (35.0, 5.0, 0.0, 25.0, 5.0),  # sum 25 for s in [5, 10]
        (20.0, -10.0, 25.0, 100.0, -5.0),  # sum 25 for s in [-10, -5]
    ])
    def test_least_shift_on_a_flat_sum(self, a, c_above_b, d_min, d_max, shift):
        # the band edge is a flat stretch of the row sum: every shift on it
        # projects alike, and the multiplier is the one least in size
        proj, got = _onto_blocks(np.array([[a]]), np.array([[c_above_b]]),
                                 np.array([25.0]), d_min, d_max)
        assert proj.tolist() == [[25.0]] and got.tolist() == [shift]

    def test_entry_dwarfing_the_band(self):
        # knots of order 1e17 must not round the cap of 10 away
        proj, shift = _onto_blocks(np.array([[1e17]]), np.array([[1e17 - 25.0]]),
                                   np.array([25.0]), 0.0, 10.0)
        assert proj.tolist() == [[10.0]]
        assert shift.tolist() == [1e17 - 10.0]


WARM_KINDS = ("zero", "exact", "nearly", "beyond", "wrong_sign", "huge", "any")


def warm_kernel(b, shift):
    """A step kernel whose warm start is ``shift``, for rows of per-slot ``b``;
    the projection reads only its ``shift`` and ``upper``."""
    customers = [{"id": i, "w": 1.0, "alpha": 1.0, "d_min": 0.0, "d_max": 1.0}
                 for i in range(len(shift))]
    kernel = _StepKernel(make_scenario(len(b), customers, b=b.tolist(), beta1=1.0,
                                       beta2=1.0), 1.0)
    kernel.shift = shift
    return kernel


def draw_warm_shift(data, exact):
    """A warm shift for a row whose cold shift is ``exact``: 0, exact, nearly
    right, further out (past a flat stretch, say), of the wrong sign, huge or
    arbitrary."""
    kind = data.draw(st.sampled_from(WARM_KINDS))
    if kind == "exact":
        return exact
    if kind == "nearly":
        return exact * (1.0 + data.draw(st.floats(-1e-9, 1e-9))) + 1e-9
    if kind == "beyond":
        return exact + np.sign(exact) * data.draw(st.floats(0.0, 100.0))
    if kind == "wrong_sign":
        return -exact if exact else data.draw(st.sampled_from([-1.0, 1.0]))
    if kind == "huge":
        return data.draw(st.sampled_from([-1e30, 1e30]))
    if kind == "any":
        return data.draw(st.floats(-100.0, 100.0))
    return 0.0


@st.composite
def flat_stretch_rows(draw):
    """Rows whose violated band edge is a flat stretch of the row sum: for
    shifts from ``max(c)`` to ``min(a - b)`` every y sits at b and every z' at
    0, so the sum is ``sum(b)``, the cap or floor of the row."""
    n = draw(st.integers(1, 4))
    t = draw(st.integers(1, 6))
    b = np.array(draw(st.lists(st.floats(0.5, 50.0), min_size=t, max_size=t)))
    a, c = np.empty((n, t)), np.empty((n, t))
    d_min, d_max = np.zeros(n), np.full(n, b.sum())
    for i in range(n):
        cap = draw(st.booleans())
        start, width = draw(st.floats(0.5, 50.0)), draw(st.floats(0.5, 50.0))
        lo, hi = (start, start + width) if cap else (-start - width, -start)
        below = np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=t, max_size=t)))
        above = np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=t, max_size=t)))
        below[0] = above[-1] = 0.0  # the stretch is exactly [lo, hi]
        a[i], c[i] = b + hi + above, lo - below
        if not cap:
            d_min[i], d_max[i] = b.sum(), b.sum() + draw(st.floats(0.0, 50.0))
    return a, c, b, d_min, d_max


WARM_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class TestWarmStartedProjection:
    """``_onto_blocks`` with a warm start, whatever its shifts, gives the cold
    sort's projection and least shifts to rounding."""

    @staticmethod
    def check(case, data):
        a, c, b, d_min, d_max = case
        with np.errstate(over="ignore", invalid="ignore"):  # as in the step kernel
            x_cold, s_cold = _onto_blocks(a, c, b, d_min, d_max)
            warm = np.array([draw_warm_shift(data, s) for s in s_cold])
            x_warm, s_warm = _onto_blocks(a, c, b, d_min, d_max, warm=warm_kernel(b, warm))
        bound = 1e-12 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(c)).max(axis=1))
        assert np.all(np.abs(x_warm - x_cold).max(axis=1) <= bound)
        assert np.all(np.abs(s_warm - s_cold) <= bound)

    @WARM_SETTINGS
    @given(st.one_of(lifted_rows(), lifted_rows(huge_b=True)), st.data())
    def test_matches_the_sort(self, case, data):
        self.check(case, data)

    @WARM_SETTINGS
    @given(flat_stretch_rows(), st.data())
    def test_least_shift_on_flat_stretches(self, case, data):
        self.check(case, data)
