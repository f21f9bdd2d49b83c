import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brpmarket import (
    Allocation,
    DivergenceError,
    IterationRecord,
    IterationTrace,
    PriceSchedule,
    RunConfig,
    brute_force_welfare,
    default_step_size,
    detect_convergence,
    run_market,
    social_welfare,
    validate_scenario,
)
from brpmarket import cli
from brpmarket.market import TRACE_COLUMNS, TRACE_COMMENT
from conftest import make_scenario, single_customer_scenario


class TestSocialWelfare:
    def test_zero_allocation(self, demo_scenario):
        alloc = Allocation(np.zeros((2, 1)))
        assert social_welfare(alloc, demo_scenario) == 0.0

    def test_direct_evaluation(self):
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 0, "d_max": 1000},
             {"id": 1, "w": 100, "alpha": 1.0, "d_min": 0, "d_max": 1000}],
            b=25, beta1=0.5, beta2=0.6)
        alloc = Allocation(np.array([[20.0], [20.0]]))
        # 2*(2000 - 200) - 0.5*40**2, D = 40 below bN = 50
        assert social_welfare(alloc, scenario) == pytest.approx(2800.0)


class TestRunMarket:
    def test_closed_form_single_customer(self):
        scenario = single_customer_scenario()
        report, _ = run_market(scenario, RunConfig(gamma=0.05, tol=1e-10))
        assert report.converged
        assert report.allocation.x[0, 0] == pytest.approx(40.0 / 3.0, abs=1e-4)
        assert report.prices.p_l[0] == pytest.approx(80.0 / 3.0, abs=1e-3)
        # cross-check against the exhaustive grid oracle
        grid = brute_force_welfare(scenario, 0.001)
        assert abs(grid.allocation.x[0, 0] - report.allocation.x[0, 0]) < 2e-3

    def test_step_size_ordering(self, demo_scenario):
        iters = []
        for gamma in (0.01, 0.1, 0.3):
            report, _ = run_market(demo_scenario, RunConfig(gamma=gamma))
            assert report.converged
            iters.append(report.iterations)
        assert iters[2] < iters[1] < iters[0]

    def test_unprofitable_customer_consumes_nothing(self):
        # a forced-demand customer keeps prices above the small customer's
        # willingness, so the small customer settles at exactly zero
        scenario = make_scenario(
            1,
            [{"id": 0, "w": 100, "alpha": 1.0, "d_min": 40, "d_max": 40},
             {"id": 1, "w": 5, "alpha": 1.0, "d_min": 0, "d_max": 100}],
            b=60, beta1=0.5, beta2=0.6)
        report, _ = run_market(scenario, RunConfig(gamma=0.1, tol=1e-9))
        assert report.allocation.x[0, 0] == pytest.approx(40.0, abs=1e-6)
        assert report.allocation.x[1, 0] == pytest.approx(0.0, abs=1e-9)

    def test_initialization_is_feasible_throughout(self):
        scenario = make_scenario(
            2,
            [{"id": 0, "w": 50, "alpha": 1.0, "d_min": 10, "d_max": 30},
             {"id": 1, "w": 80, "alpha": 1.0, "d_min": 0, "d_max": 12}],
            b=60, beta1=0.3, beta2=0.4)
        report, trace = run_market(scenario, RunConfig(gamma=0.1, tol=1e-8))
        for rec in trace.records:
            assert np.all(rec.allocation.x >= -1e-12)
            for i, cust in enumerate(scenario.customers):
                daily = rec.allocation.x[i].sum()
                assert cust.d_min - 1e-9 <= daily <= cust.d_max + 1e-9

    def test_welfare_never_ends_below_start(self, demo_scenario):
        for gamma in (0.01, 0.1):
            report, trace = run_market(demo_scenario, RunConfig(gamma=gamma))
            assert trace[-1].welfare >= trace[0].welfare - 1e-9

    def test_second_block_pricier_at_every_iterate(self, demo_scenario):
        _, trace = run_market(demo_scenario, RunConfig(gamma=0.1))
        for rec in trace.records:
            demand = rec.allocation.x.sum(axis=0)
            positive = demand > 0
            assert np.all(rec.prices.p_u[positive] > rec.prices.p_l[positive])

    def test_deterministic_bitwise(self, demo_scenario):
        r1, t1 = run_market(demo_scenario, RunConfig(gamma=0.1))
        r2, t2 = run_market(demo_scenario, RunConfig(gamma=0.1))
        assert len(t1) == len(t2)
        for a, b in zip(t1.records, t2.records):
            assert np.array_equal(a.allocation.x, b.allocation.x)
            assert np.array_equal(a.prices.p_l, b.prices.p_l)
            assert a.welfare == b.welfare

    def test_divergence_raises_with_iteration(self):
        scenario = single_customer_scenario(beta=0.5, d_max=1e200)
        with pytest.raises(DivergenceError) as err:
            run_market(scenario, RunConfig(gamma=1e160, max_iter=100))
        assert err.value.iteration >= 1

    def test_overflowing_step_raises_divergence_at_iteration_1(self):
        doc = cli.demo_scenario_document()
        for c in doc["customers"]:
            c["d_max"] = 1e308
        with pytest.raises(DivergenceError) as err:
            run_market(validate_scenario(doc), RunConfig(gamma=1e307))
        assert err.value.iteration == 1

    def test_max_iter_exhaustion_reports_not_converged(self, demo_scenario):
        report, trace = run_market(demo_scenario, RunConfig(gamma=0.01, max_iter=5))
        assert not report.converged
        assert report.iterations == 5
        assert len(trace) == 6  # initial iterate plus five updates


class TestRunConfig:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": -0.1},
        {"gamma": 0.1, "tol": 0.0}, {"gamma": 0.1, "max_iter": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestDefaultStepSize:
    def test_inside_stability_region(self, demo_scenario):
        gamma = default_step_size(demo_scenario)
        report, _ = run_market(demo_scenario, RunConfig(gamma=gamma))
        assert report.converged


def _record(x, p_l, p_u, welfare=0.0, change=0.0):
    return IterationRecord(
        allocation=Allocation(x),
        prices=PriceSchedule(p_l=np.asarray(p_l, float), p_u=np.asarray(p_u, float)),
        welfare=welfare, max_change=change)


class TestDetectConvergence:
    def test_identical_iterates(self):
        trace = IterationTrace(np.array([25.0]))
        x = np.array([[10.0]])
        trace.append(_record(x, [3.0], [4.0]))
        trace.append(_record(x, [3.0], [4.0]))
        assert detect_convergence(trace, 1e-6)

    def test_allocation_change_of_twice_tol(self):
        trace = IterationTrace(np.array([25.0]))
        tol = 1e-6
        trace.append(_record(np.array([[10.0]]), [3.0], [4.0]))
        trace.append(_record(np.array([[10.0 + 2 * tol]]), [3.0], [4.0]))
        assert not detect_convergence(trace, tol)

    def test_price_movement_alone_blocks_convergence(self):
        trace = IterationTrace(np.array([25.0]))
        x = np.array([[10.0]])
        trace.append(_record(x, [3.0], [4.0]))
        trace.append(_record(x, [3.1], [4.0]))
        assert not detect_convergence(trace, 1e-6)

    def test_requires_two_iterates(self):
        trace = IterationTrace(np.array([25.0]))
        trace.append(_record(np.array([[10.0]]), [3.0], [4.0]))
        with pytest.raises(ValueError):
            detect_convergence(trace, 1e-6)


class TestTraceCsv:
    def test_schema_and_round_trip(self, demo_scenario, tmp_path):
        _, trace = run_market(demo_scenario, RunConfig(gamma=0.3))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        rows = list(csv.DictReader(lines[1:]))
        n, t = 2, 1
        assert len(rows) == len(trace) * n * t
        assert list(rows[0].keys()) == ["iter", "slot", "customer", "x", "y", "z",
                                        "p_l", "p_u", "welfare", "max_change"]
        assert math.isnan(float(rows[0]["max_change"]))  # iteration 0
        last = rows[-1]
        k = len(trace) - 1
        assert int(last["iter"]) == k
        cust = int(last["customer"])
        assert float(last["x"]) == trace[k].allocation.x[cust, int(last["slot"])]

    def test_byte_identical_across_runs(self, demo_scenario, tmp_path):
        _, t1 = run_market(demo_scenario, RunConfig(gamma=0.3))
        _, t2 = run_market(demo_scenario, RunConfig(gamma=0.3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(p1)
        t2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def reference_trace_csv(trace, path):
    """The csv.writer loop ``to_csv`` replaced, kept as the byte reference.
    Each cell's y and z are derived one at a time from x and the slot's b."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_COMMENT + "\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for k, rec in enumerate(trace.records):
            n, t = rec.allocation.x.shape
            for slot in range(t):
                b = np.float64(trace.b[slot])
                for cust in range(n):
                    x = np.float64(rec.allocation.x[cust, slot])
                    writer.writerow([
                        k, slot, cust,
                        repr(float(x)),
                        repr(float(np.minimum(x, b))),
                        repr(float(np.maximum(x, b))),
                        repr(float(rec.prices.p_l[slot])),
                        repr(float(rec.prices.p_u[slot])),
                        repr(float(rec.welfare)),
                        repr(float(rec.max_change)),
                    ])


def straddling_document():
    """N=3, T=2 with per-slot b; the equilibrium has customers on both sides
    of b in both slots."""
    return {
        "num_slots": 2,
        "customers": [
            {"id": 0, "w": [60, 90], "alpha": 1.0, "d_min": 0, "d_max": 1000},
            {"id": 1, "w": [30, 45], "alpha": 1.0, "d_min": 0, "d_max": 1000},
            {"id": 2, "w": [80, 25], "alpha": 1.0, "d_min": 0, "d_max": 1000},
        ],
        "blocks": {"b": [20, 30]},
        "cost": {"beta1": 0.15, "beta2": 0.2},
    }


class TestTraceCsvGolden:
    def test_run_trace_matches_reference_writer(self, tmp_path):
        scenario = validate_scenario(straddling_document())
        report, trace = run_market(scenario, RunConfig(gamma=0.3))
        x, b = report.allocation.x, scenario.blocks.b
        assert np.all(np.any(x < b, axis=0)) and np.all(np.any(x > b, axis=0))
        trace.to_csv(tmp_path / "fast.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        data = (tmp_path / "fast.csv").read_bytes()
        assert data == (tmp_path / "reference.csv").read_bytes()
        comment, header, first = data.split(b"\n")[:3]
        assert not comment.endswith(b"\r") and header.endswith(b"\r")
        assert first.startswith(b"0,0,0,") and first.endswith(b",nan\r")

    def test_special_values_match_reference_writer(self, tmp_path):
        # integer arrays, numpy scalars, signed zero, tiny, huge and infinite values
        prices = PriceSchedule(p_l=[1, 2.0], p_u=np.array([3, -math.inf]))
        trace = IterationTrace(np.array([2.5, 0.0]))
        for x, welfare, change in (
                (np.array([[3, 0], [1, 2]]), 7, math.nan),
                (np.array([[1e-300, -0.0], [1e22, math.inf]]), np.float64(-0.0),
                 np.float64(1e-17))):
            trace.append(IterationRecord(Allocation(x), prices, welfare, change))
        trace.to_csv(tmp_path / "fast.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_sweep_traces_match_reference_writer(self, tmp_path):
        scenario_path = tmp_path / "straddle.json"
        scenario_path.write_text(json.dumps(straddling_document()))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", str(scenario_path),
                         "--gammas", "0.1,0.3", "--out", str(out)]) == 0
        scenario = validate_scenario(straddling_document())
        for gamma in (0.1, 0.3):
            _, trace = run_market(scenario, RunConfig(gamma=gamma))
            reference_trace_csv(trace, tmp_path / "reference.csv")
            assert ((out / f"trace_gamma_{gamma}.csv").read_bytes()
                    == (tmp_path / "reference.csv").read_bytes())

    def test_wide_slack_run_matches_reference_writer(self, tmp_path):
        # N=100, T=24 with a never-binding band: the size of the benchmark's
        # report run, about a fifth of x exactly 0 and the rest on both sides of b
        n, t = 100, 24
        w = np.random.default_rng(1).uniform(10.0, 100.0, size=(n, t))
        scenario = validate_scenario({
            "num_slots": t,
            "customers": [{"id": i, "w": row.tolist(), "alpha": 1.0, "d_min": 0.0,
                           "d_max": 1000.0 * t} for i, row in enumerate(w)],
            "blocks": {"b": 25.0},
            "cost": {"beta1": 0.5 / n, "beta2": 0.6 / n},
        })
        report, trace = run_market(scenario, RunConfig(gamma=default_step_size(scenario)))
        x = report.allocation.x
        assert report.converged and np.any(x == 0.0) and np.any(x > 25.0)
        trace.to_csv(tmp_path / "fast.csv")
        reference_trace_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestTraceSplit:
    """trace.csv derives the block split ``y = min(x, b)``, ``z = max(x, b)``
    from each iterate's x and the run's per-slot b."""

    @pytest.mark.parametrize("x,b,expected", [
        (10.0, 25.0, (10.0, 25.0)),
        (30.0, 25.0, (25.0, 30.0)),
        (25.0, 25.0, (25.0, 25.0)),
    ])
    def test_examples(self, x, b, expected, tmp_path):
        trace = IterationTrace(np.array([b]), [_record(np.array([[x]]), [1.0], [2.0])])
        trace.to_csv(tmp_path / "trace.csv")
        row = next(csv.DictReader((tmp_path / "trace.csv").read_text().splitlines()[1:]))
        assert (float(row["y"]), float(row["z"])) == expected

    def test_round_trip_exact(self, tmp_path):
        # exact on this run: each iterate's x is the step's y + z - b, and the
        # band never binds, so adding b back and taking it away again is exact
        scenario = validate_scenario(straddling_document())
        _, trace = run_market(scenario, RunConfig(gamma=0.3))
        trace.to_csv(tmp_path / "trace.csv")
        rows = list(csv.DictReader((tmp_path / "trace.csv").read_text().splitlines()[1:]))
        assert len(rows) == len(trace) * 3 * 2
        for row in rows:
            x, y, z = float(row["x"]), float(row["y"]), float(row["z"])
            b = float(scenario.blocks.b[int(row["slot"])])
            assert y == min(x, b) and z == max(x, b) and y + z - b == x


# Values that a writer caching one repr per value could mix up: both zeros,
# NaNs with other signs and payloads, infinities, subnormals, the smallest
# normal, the largest float, and floats with short and with long reprs.
_SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan,
                   np.frombuffer(bytes.fromhex("010000000000f87f"), dtype=float)[0],
                   math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                   1.7976931348623157e308, 0.1, 1 / 3, 25.0, -1.5, 1e22, 1e16]
_cell_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(width=64))


@st.composite
def _cell_array(draw, shape):
    """An array of float64s, float32s or int64s."""
    kind = draw(st.sampled_from(["float64", "float32", "int"]))
    size = shape[0] * shape[1]
    if kind == "int":
        values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=size, max_size=size))
        return np.array(values, dtype=np.int64).reshape(shape)
    values = draw(st.lists(_cell_floats, min_size=size, max_size=size))
    if kind == "float32":
        with np.errstate(over="ignore"):
            return np.array(values, dtype=np.float32).reshape(shape)
    return np.array(values, dtype=float).reshape(shape)


@st.composite
def _scalar(draw):
    """welfare or max_change: a float, an int or a numpy scalar."""
    value = draw(_cell_floats)
    wrap = draw(st.sampled_from([float, np.float64, np.float32, "int"]))
    if wrap == "int":
        return draw(st.integers(-10**6, 10**6))
    with np.errstate(over="ignore"):
        return wrap(value)


@st.composite
def _traces(draw):
    """A trace of one to three iterates; x and b are drawn from a small pool so
    values repeat and tie within an iterate.  The number of customers may
    change from one iterate to the next; b fixes the number of slots."""
    t = draw(st.integers(1, 3))
    b = draw(_cell_array((1, t)))[0]
    trace = IterationTrace(b.tolist() if draw(st.booleans()) else b)
    n = draw(st.integers(1, 4))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            n = draw(st.integers(1, 4))
        x = draw(_cell_array((n, t)))
        p_l, p_u = draw(_cell_array((2, t)))
        prices = PriceSchedule(p_l=p_l.tolist() if draw(st.booleans()) else p_l, p_u=p_u)
        trace.append(IterationRecord(Allocation(x), prices,
                                     draw(_scalar()), draw(_scalar())))
    return trace


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trace")


class TestTraceCsvProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_traces())
    @example(IterationTrace(np.array([0.0, -0.0]), [IterationRecord(
        Allocation(np.array([[-0.0, 0.0], [math.nan, -math.nan]])),
        PriceSchedule(p_l=np.array([-0.0, 0.0]), p_u=np.array([0.0, -0.0])),
        -0.0, np.float64(0.0))]))
    def test_matches_reference_writer(self, trace_dir, trace):
        trace.to_csv(trace_dir / "fast.csv")
        reference_trace_csv(trace, trace_dir / "reference.csv")
        assert (trace_dir / "fast.csv").read_bytes() == (trace_dir / "reference.csv").read_bytes()
