import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brpmarket import (
    ScenarioError,
    cost_value,
    load_scenario,
    utility_gradient,
    utility_value,
    validate_scenario,
)
from references import reference_validate_scenario
from test_market import straddling_document


class TestUtilityValue:
    def test_zero_consumption_zero_utility(self):
        assert utility_value(0.0, 40.0, 1.0) == 0.0

    def test_quadratic_branch(self):
        assert utility_value(10.0, 40.0, 1.0) == pytest.approx(350.0)

    def test_saturated_branch(self):
        # 60 is past the satiation point w/alpha = 40
        assert utility_value(60.0, 40.0, 1.0) == pytest.approx(800.0)

    def test_continuous_at_satiation(self):
        assert utility_value(40.0, 40.0, 1.0) == pytest.approx(800.0)

    def test_negative_consumption_rejected(self):
        with pytest.raises(ValueError):
            utility_value(-1.0, 40.0, 1.0)

    def test_nan_consumption_rejected(self):
        # NaN is not below 0; it used to pass as satiated, worth w*w/(2*alpha)
        with pytest.raises(ValueError, match="consumption must be nonnegative"):
            utility_value(np.array([1.0, np.nan]), 10.0, 1.0)

    def test_no_overflow_warning_below_satiation(self):
        # the flat value w*w/(2*alpha) overflows for w = 1e300, but no cell
        # here reaches satiation w/alpha = 1e306, so nothing overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = utility_value(np.array([0.0, 10.0]), 1e300, 1e-6)
        assert val.tolist() == [0.0, 1e300 * 10.0 - 0.5 * 1e-6 * 10.0 * 10.0]

    def test_matches_two_branch_formula_bitwise(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(1.0, 100.0, size=(50, 6))
        alpha = rng.uniform(0.1, 3.0, size=(50, 1))
        x = rng.uniform(0.0, 2.0, size=(50, 6)) * w / alpha
        x[::7] = (w / alpha)[::7]  # exactly at satiation
        expected = np.where(x < w / alpha, w * x - 0.5 * alpha * x * x,
                            w * w / (2.0 * alpha))
        assert np.any(x >= w / alpha) and np.any(x < w / alpha)
        assert np.array_equal(utility_value(x, w, alpha), expected)
        assert utility_value(60.0, 40.0, 1.0) == 40.0 * 40.0 / 2.0

    def test_nondecreasing_and_midpoint_concave(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            w = rng.uniform(10, 100)
            alpha = rng.uniform(0.5, 2.0)
            x1, x2 = np.sort(rng.uniform(0, 2 * w / alpha, size=2))
            u1 = utility_value(x1, w, alpha)
            u2 = utility_value(x2, w, alpha)
            mid = utility_value(0.5 * (x1 + x2), w, alpha)
            assert u1 <= u2 + 1e-12
            assert mid >= 0.5 * (u1 + u2) - 1e-9


class TestUtilityGradient:
    def test_at_origin_equals_w(self):
        assert utility_gradient(0.0, 40.0, 1.0) == 40.0

    def test_interior(self):
        assert utility_gradient(20.0, 40.0, 1.0) == pytest.approx(20.0)

    def test_kink_saturated_subgradient(self):
        assert utility_gradient(40.0, 40.0, 1.0) == 0.0

    def test_negative_consumption_rejected(self):
        with pytest.raises(ValueError):
            utility_gradient(-0.5, 40.0, 1.0)

    def test_nan_consumption_rejected(self):
        with pytest.raises(ValueError, match="consumption must be nonnegative"):
            utility_gradient(np.nan, 10.0, 1.0)

    def test_matches_central_finite_difference(self):
        rng = np.random.default_rng(11)
        h = 1e-3
        checked = 0
        while checked < 1000:
            w = rng.uniform(10, 100)
            alpha = rng.uniform(0.5, 2.0)
            x = rng.uniform(0.01, 1.5 * w / alpha)
            if abs(x - w / alpha) < 5e-3:
                continue
            fd = (utility_value(x + h, w, alpha)
                  - utility_value(x - h, w, alpha)) / (2 * h)
            grad = utility_gradient(x, w, alpha)
            if abs(grad) < 1e-8:
                assert abs(fd) < 1e-8
            else:
                assert abs(fd - grad) / abs(grad) < 1e-6
            checked += 1


class TestCostValue:
    def test_zero_demand_zero_cost(self):
        assert cost_value(0.0, 50.0, 0.5, 0.6) == 0.0

    def test_first_segment(self):
        assert cost_value(40.0, 50.0, 0.5, 0.6) == pytest.approx(800.0)

    def test_second_segment(self):
        # direct evaluation: 0.6 * 58.8**2
        assert cost_value(58.8, 50.0, 0.5, 0.6) == pytest.approx(2074.464)

    def test_boundary_uses_first_segment(self):
        assert cost_value(50.0, 50.0, 0.5, 0.6) == pytest.approx(1250.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            cost_value(-1.0, 50.0, 0.5, 0.6)

    def test_nan_demand_rejected(self):
        with pytest.raises(ValueError, match="demand must be nonnegative"):
            cost_value([10.0, np.nan], 50.0, 0.5, 0.6)

    def test_nondecreasing_per_segment_and_jump(self):
        cost = (0.5, 0.6)
        bn = 50.0
        grid1 = np.linspace(0, bn, 200)
        grid2 = np.linspace(bn + 1e-9, 3 * bn, 200)
        v1 = cost_value(grid1, bn, *cost)
        v2 = cost_value(grid2, bn, *cost)
        assert np.all(np.diff(v1) >= 0)
        assert np.all(np.diff(v2) >= 0)
        jump = (cost_value(bn + 1e-12, bn, *cost) - cost_value(bn, bn, *cost))
        assert jump == pytest.approx((0.6 - 0.5) * bn**2, rel=1e-6)


class TestValidateScenario:
    def base_doc(self):
        return {
            "num_slots": 1,
            "customers": [
                {"id": 0, "w": 100, "alpha": 1.0, "d_min": 0, "d_max": 1000},
                {"id": 1, "w": 100, "alpha": 1.0, "d_min": 0, "d_max": 1000},
            ],
            "blocks": {"b": 25},
            "cost": {"beta1": 0.5, "beta2": 0.6},
        }

    def test_valid_worked_example_scenario(self):
        sc = self.base_doc()
        scenario = validate_scenario(sc)
        assert scenario.num_customers == 2
        assert scenario.num_slots == 1
        np.testing.assert_array_equal(scenario.b, [25.0])
        np.testing.assert_array_equal(scenario.customers[0].w, [100.0])

    def test_scalar_broadcast_to_slots(self):
        doc = self.base_doc()
        doc["num_slots"] = 3
        scenario = validate_scenario(doc)
        np.testing.assert_array_equal(scenario.beta1, [0.5] * 3)
        np.testing.assert_array_equal(scenario.customers[1].w, [100.0] * 3)

    def test_per_slot_arrays_accepted(self):
        doc = self.base_doc()
        doc["num_slots"] = 2
        doc["customers"][0]["w"] = [60, 90]
        doc["blocks"]["b"] = [25, 30]
        scenario = validate_scenario(doc)
        np.testing.assert_array_equal(scenario.customers[0].w, [60.0, 90.0])

    def test_wrong_length_array_rejected(self):
        doc = self.base_doc()
        doc["customers"][0]["w"] = [60, 90]
        with pytest.raises(ScenarioError, match=r"customers\[0\]\.w"):
            validate_scenario(doc)

    def test_zero_alpha_rejected(self):
        doc = self.base_doc()
        doc["customers"][0]["alpha"] = 0.0
        with pytest.raises(ScenarioError, match="alpha must be strictly positive"):
            validate_scenario(doc)

    def test_d_min_exceeds_d_max_rejected(self):
        doc = self.base_doc()
        doc["customers"][1].update(d_min=10, d_max=5)
        with pytest.raises(ScenarioError, match="d_min exceeds d_max"):
            validate_scenario(doc)

    def test_unattainable_d_min_rejected(self):
        doc = self.base_doc()
        doc["customers"][0].update(d_min=150, d_max=500)  # sum(w/alpha) = 100
        with pytest.raises(ScenarioError, match="infeasible"):
            validate_scenario(doc)

    @pytest.mark.filterwarnings("error")  # the check itself must not warn
    def test_overflowing_satiation_rejected(self):
        doc = self.base_doc()
        doc["num_slots"] = 2
        doc["customers"][1].update(w=[1.0, 1e300], alpha=1e-10)  # 1e310 overflows
        with pytest.raises(ScenarioError,
                           match=r"^customers\[1\]: satiation w/alpha must be finite.*\[1\]"):
            validate_scenario(doc)

    @pytest.mark.parametrize("value", [1.7, True, "1.5", None],
                             ids=["fraction", "bool", "float-string", "null"])
    def test_non_integer_num_slots_rejected(self, value):
        doc = self.base_doc()
        doc["num_slots"] = value
        with pytest.raises(ScenarioError, match=r"^num_slots: must be an integer"):
            validate_scenario(doc)

    @pytest.mark.parametrize("value, expected", [(3, 3), (2.0, 2), ("3", 3)],
                             ids=["int", "integral-float", "string"])
    def test_integer_valued_num_slots_accepted(self, value, expected):
        doc = self.base_doc()
        doc["num_slots"] = value
        scenario = validate_scenario(doc)
        assert scenario.num_slots == expected
        assert scenario.b.shape == (expected,)

    @pytest.mark.parametrize("num_slots, customers", [(10**400, 1), (2**60, 1), (2**59, 2)],
                             ids=["1e400", "2**60", "2**59-by-2"])
    def test_num_slots_past_the_largest_array_rejected(self, num_slots, customers):
        # N*T floats of 8 bytes past numpy's largest array, which none of these could be
        # allocated as either; numpy's own error is a bare ValueError
        doc = self.base_doc()
        doc["num_slots"], doc["customers"] = num_slots, doc["customers"][:customers]
        with pytest.raises(ScenarioError, match=r"^num_slots: too large"):
            validate_scenario(doc)
        assert outcome(validate_scenario, doc) == outcome(reference_validate_scenario, doc)

    @pytest.mark.parametrize("text, message", [
        ("[]", "scenario document must be a JSON object"),
        ("{}", "num_slots: field is required"),
        ('{"num_slots": 0}', "num_slots: must be at least 1"),
        ('{"num_slots": 1, "customers": []}', "customers: must be a non-empty list"),
        ('{"num_slots": 1, "customers": [7]}', "customers[0]: must be an object"),
        ('{"num_slots": 1, "customers": [{"w": 1, "alpha": "abc"}]}',
         "customers[0].alpha: must be a number"),
        ('{"num_slots": 1, "customers": [{"w": 1, "alpha": 1, "d_min": -1, "d_max": 1}]}',
         "customers[0].d_min: must be nonnegative"),
        ('{"num_slots": 1, "customers": [{"w": 1, "alpha": 1, "d_max": 1}], '
         '"blocks": {"b": 1}, "cost": {"beta1": 0, "beta2": 1}}',
         "cost.beta1: must be strictly positive"),
        ('{"num_slots": 1, "customers": [{"w": {"a": 1}}]}',
         "customers[0].w: expected a number or a list of numbers"),
        ("not json", "{path}: not valid JSON (Expecting value: line 1 column 1 (char 0))"),
    ], ids=["not-an-object", "no-num-slots", "zero-slots", "no-customers",
            "customer-not-an-object", "alpha-not-a-number", "negative-d-min", "zero-beta1",
            "w-an-object", "not-json"])
    def test_rejection_message(self, text, message, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert str(err.value) == message.format(path=path)

    def test_nonpositive_threshold_rejected(self):
        doc = self.base_doc()
        doc["blocks"]["b"] = 0
        with pytest.raises(ScenarioError, match="blocks.b"):
            validate_scenario(doc)

    def test_nonpositive_beta_rejected(self):
        doc = self.base_doc()
        doc["cost"]["beta2"] = -1
        with pytest.raises(ScenarioError, match="beta2"):
            validate_scenario(doc)

    def test_underscore_keys_ignored(self):
        doc = self.base_doc()
        doc["_notes"] = ["free-form"]
        validate_scenario(doc)

    def test_fingerprint_stable_and_sensitive(self):
        a = validate_scenario(self.base_doc())
        b = validate_scenario(self.base_doc())
        assert a.fingerprint() == b.fingerprint()
        doc = self.base_doc()
        doc["cost"]["beta1"] = 0.51
        assert validate_scenario(doc).fingerprint() != a.fingerprint()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("path, place", [
        ("customers[0].w", lambda doc, v: doc["customers"][0].update(w=[60.0, v])),
        ("customers[1].alpha", lambda doc, v: doc["customers"][1].update(alpha=v)),
        ("customers[0].d_min", lambda doc, v: doc["customers"][0].update(d_min=v)),
        ("customers[1].d_max", lambda doc, v: doc["customers"][1].update(d_max=v)),
        ("blocks.b", lambda doc, v: doc["blocks"].update(b=[25.0, v])),
        ("cost.beta1", lambda doc, v: doc["cost"].update(beta1=v)),
        ("cost.beta2", lambda doc, v: doc["cost"].update(beta2=[v, 0.6])),
    ])
    def test_non_finite_rejected(self, path, place, value):
        doc = self.base_doc()
        doc["num_slots"] = 2
        place(doc, value)
        # -inf alpha is caught by the positivity check, also under its path
        with pytest.raises(ScenarioError, match=re.escape(path) + ": "):
            validate_scenario(doc)

    def test_non_finite_json_literal_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(self.base_doc()).replace('"w": 100', '"w": NaN', 1))
        with pytest.raises(ScenarioError, match=r"customers\[0\]\.w: must be finite"):
            load_scenario(path)

    def test_beta2_below_beta1_rejected(self):
        doc = self.base_doc()
        doc["num_slots"] = 3
        doc["cost"] = {"beta1": 0.5, "beta2": [0.6, 0.4, 0.5]}
        with pytest.raises(ScenarioError, match=r"cost\.beta2: .*slots \[1\]"):
            validate_scenario(doc)

    def test_equal_betas_accepted(self):
        doc = self.base_doc()
        doc["cost"] = {"beta1": 0.5, "beta2": 0.5}
        validate_scenario(doc)

    @pytest.mark.parametrize("ids", [(3, 3), (1, None)])
    def test_duplicate_customer_ids_rejected(self, ids):
        doc = self.base_doc()
        for customer, cid in zip(doc["customers"], ids):
            customer.pop("id")
            if cid is not None:
                customer["id"] = cid  # a missing id defaults to the list index
        with pytest.raises(ScenarioError, match=r"customers\[1\]\.id: duplicate"):
            validate_scenario(doc)

    @pytest.mark.parametrize("cid", [None, "a", float("nan"), float("inf"),
                                     -float("inf"), 1.7, "3.0", [3], True],
                             ids=["null", "letter", "nan", "inf", "-inf", "fraction",
                                  "float-string", "list", "bool"])
    def test_non_integer_customer_id_rejected(self, cid):
        doc = self.base_doc()
        doc["customers"][1]["id"] = cid
        with pytest.raises(ScenarioError, match=r"^customers\[1\]\.id: must be an integer"):
            validate_scenario(doc)

    @pytest.mark.parametrize("cid, expected", [(3, 3), (2.0, 2), ("3", 3), (-4, -4)],
                             ids=["int", "integral-float", "string", "negative"])
    def test_integer_valued_customer_id_accepted(self, cid, expected):
        doc = self.base_doc()
        doc["customers"][1]["id"] = cid
        scenario = validate_scenario(doc)
        assert scenario.customers[1].id == expected
        assert type(scenario.customers[1].id) is int
        np.testing.assert_array_equal(scenario.ids, [0, expected])


class TestScenarioArrays:
    """The stacked arrays are the scenario's one copy of its customers."""

    def scenario(self):
        return validate_scenario({
            "num_slots": 3,
            "customers": [
                {"id": 7, "w": [60, 90, 30], "alpha": 2, "d_min": 1, "d_max": 40},
                {"w": 50, "alpha": 0.5, "d_max": 200},
                {"id": "4", "w": [10, 20, 30], "alpha": 1.5, "d_min": 2.5, "d_max": 2.5},
            ],
            "blocks": {"b": [5, 6, 7]},
            "cost": {"beta1": 0.5, "beta2": [0.6, 0.7, 0.8]},
        })

    def test_array_shapes_and_sizes(self):
        scenario = self.scenario()
        assert (scenario.num_customers, scenario.num_slots) == (3, 3)
        assert scenario.ids.shape == (3,)
        assert scenario.w.shape == (3, 3)
        assert scenario.alpha.shape == (3, 1)
        assert scenario.d_min.shape == scenario.d_max.shape == (3,)
        np.testing.assert_array_equal(scenario.ids, [7, 1, 4])

    def test_customers_view_matches_arrays_row_by_row(self):
        scenario = self.scenario()
        assert len(scenario.customers) == scenario.num_customers
        for i, customer in enumerate(scenario.customers):
            assert type(customer.id) is int and customer.id == scenario.ids[i]
            for name in ("alpha", "d_min", "d_max"):
                assert type(getattr(customer, name)) is float
            assert customer.alpha == scenario.alpha[i, 0]
            assert customer.d_min == scenario.d_min[i]
            assert customer.d_max == scenario.d_max[i]
            np.testing.assert_array_equal(customer.w, scenario.w[i])
            np.testing.assert_array_equal(customer.satiation,
                                          scenario.w[i] / scenario.alpha[i, 0])
        assert scenario.customers is scenario.customers  # built once

    def test_satiation_is_w_over_alpha_bitwise(self):
        scenario = self.scenario()
        assert scenario.satiation.tobytes() == (scenario.w / scenario.alpha).tobytes()
        assert scenario.satiation is scenario.satiation  # computed once
        for i, customer in enumerate(scenario.customers):
            assert customer.satiation.tobytes() == scenario.satiation[i].tobytes()

    def test_fingerprint_pinned_on_demo(self, demo_scenario):
        assert demo_scenario.fingerprint() == (
            "549e201e8e07b10593152910ac24ac74c0a4103c1614ca8f6b9a5dd7f06d34b1")

    def test_fingerprint_pinned_on_straddling_scenario(self):
        assert validate_scenario(straddling_document()).fingerprint() == (
            "afea539f7b528557242ded0d26fb5eeed1b546a640845ed9c53e5b6884ea8d2e")


# values that some field of a scenario document must refuse
_JUNK = st.sampled_from([None, "a", "", [], {}, [1.0, "x"], float("nan"), float("inf"),
                         -float("inf"), 10**400, -1.0, 0.0])


@st.composite
def scenario_documents(draw):
    """Scenario documents whose fields are mostly valid, each one replaced by
    junk, dropped, or given the wrong length now and then."""
    t = draw(st.integers(1, 3))

    def rarely():  # one draw in 40; hypothesis favours the ends of a range
        return draw(st.integers(0, 39)) == 17

    def field(good):
        return draw(_JUNK) if rarely() else draw(good)

    def per_slot(good):
        if draw(st.booleans()):
            return field(good)
        size = draw(st.sampled_from([0, t + 1])) if rarely() else t
        return [field(good) for _ in range(size)]

    customers = []
    for i in range(draw(st.integers(1, 3))):
        entry = {"id": field(st.sampled_from([i, float(i), str(i), 7])),
                 "w": per_slot(st.floats(0.1, 100.0)),
                 "alpha": field(st.floats(0.1, 5.0)),
                 "d_min": field(st.floats(0.0, 30.0)),
                 "d_max": field(st.floats(20.0, 300.0))}
        if rarely():
            del entry[draw(st.sampled_from(sorted(entry)))]
        customers.append(entry)
    doc = {"_notes": ["free-form"],
           "num_slots": field(st.just(t)),
           "customers": field(st.just(customers)),
           "blocks": field(st.just({"b": per_slot(st.floats(0.1, 50.0))})),
           "cost": field(st.just({"beta1": per_slot(st.floats(0.01, 1.0)),
                                  "beta2": per_slot(st.floats(0.01, 1.0))}))}
    if rarely():
        del doc[draw(st.sampled_from(sorted(doc)))]
    return field(st.just(doc))


# a field path, then ": ", e.g. "customers[1].alpha: ..." or "cost.beta2: ..."
_FIELD_PATH = re.compile(
    r"(num_slots|customers(\[(?P<index>\d+)\](\.(w|alpha|d_min|d_max|id))?)?"
    r"|blocks(\.b)?|cost(\.beta[12])?): ")


class TestValidateScenarioProperties:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(scenario_documents())
    def test_accepts_only_consistent_documents(self, doc):
        try:
            scenario = validate_scenario(doc)
        except ScenarioError as err:
            message = str(err)
            if message == "scenario document must be a JSON object":
                assert not isinstance(doc, dict)
                return
            match = _FIELD_PATH.match(message)
            assert match, message
            if match["index"] is not None:
                assert int(match["index"]) < len(doc["customers"])
            return
        n, t = len(doc["customers"]), doc["num_slots"]
        assert scenario.w.shape == (n, t)
        for arr in (scenario.w, scenario.alpha, scenario.d_min, scenario.d_max,
                    scenario.b, scenario.beta1, scenario.beta2):
            assert np.all(np.isfinite(arr))
        for per_slot in (scenario.b, scenario.beta1, scenario.beta2):
            assert per_slot.shape == (t,)
        assert np.all(np.isfinite(scenario.w / scenario.alpha))
        assert np.all(scenario.d_min <= scenario.d_max)
        assert np.all(scenario.beta2 >= scenario.beta1)


# faults for the stacked validator: bad types, NaN and inf, huge ints, booleans, and
# numeric strings and 1s, which are valid but parsed on their own
_FAULTS = st.sampled_from([None, "a", "", "3.5", [], {}, [1.0, "x"], [[1.0]], [[5.0]], [5.0],
                           [None], float("nan"), float("inf"), -float("inf"), 10**400, 2**70,
                           -1.0, 0.0, 1, True, False, np.bool_(True)])


@st.composite
def faulty_documents(draw):
    """Documents of up to eight customers with no fault, one, or several: a field replaced
    by a fault, dropped, or given the wrong length, an entry that is not an object, and
    repeated ids."""
    t, rate = draw(st.integers(1, 3)), draw(st.sampled_from([0, 2, 5, 15]))

    def fault():
        return draw(st.integers(0, 99)) < rate

    def field(good):
        return draw(_FAULTS) if fault() else draw(good)

    def per_slot(good):
        if draw(st.booleans()):
            return field(good)
        return [field(good) for _ in range(draw(st.sampled_from([t - 1, t + 1])) if fault()
                                            else t)]

    customers = []
    for i in range(draw(st.integers(1, 8))):
        entry = {"id": field(st.sampled_from([i, float(i), str(i)])),  # 0 and 1 repeat ids
                 "w": per_slot(st.one_of(st.floats(5.0, 100.0), st.sampled_from([1, 2.0, "4.5"]))),
                 "alpha": field(st.floats(0.1, 2.0)),
                 "d_min": field(st.floats(0.0, 2.0)),
                 "d_max": field(st.floats(20.0, 300.0))}
        for key in sorted(entry):
            if fault():
                del entry[key]
        customers.append(draw(_FAULTS) if fault() else entry)
    # never a large integer: a valid slot count is allocated before any customer is read
    num_slots = draw(st.sampled_from([None, "a", 1.5, True, 0, "1"])) if fault() else t
    return {"num_slots": num_slots, "customers": customers,
            "blocks": {"b": per_slot(st.floats(0.1, 50.0))},
            "cost": {"beta1": per_slot(st.floats(0.01, 0.5)),
                     "beta2": per_slot(st.floats(0.5, 1.0))}}


def outcome(validate, doc):
    """The message ``validate`` raises on ``doc``, or the scenario's arrays as bytes."""
    try:
        s = validate(doc)
    except ScenarioError as err:
        return str(err)
    return [(a.dtype, a.shape, a.tobytes()) for a in (
        s.ids, s.w, s.alpha, s.d_min, s.d_max, s.b, s.beta1, s.beta2)]


class TestStackedValidation:
    """The stacked checks name the per-entry reference's first fault, in its words."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(faulty_documents())
    @example({"num_slots": 2, "customers": [
        {"id": 0, "w": [1.0, True], "alpha": 1.0, "d_max": 5},  # a boolean, then NaN next
        {"id": 0, "w": [1.0, float("nan")], "alpha": True, "d_max": 5}],
        "blocks": {"b": 1}, "cost": {"beta1": 0.5, "beta2": 0.6}})
    @example({"num_slots": 2, "customers": [
        {"id": 3, "w": [1, 2], "alpha": 1, "d_min": False, "d_max": 5},
        {"id": 3, "w": 2, "alpha": 1, "d_max": 5}],  # a duplicate after a boolean
        "blocks": {"b": [1, True]}, "cost": {"beta1": 0.5, "beta2": 0.6}})
    @example({"num_slots": 2, "customers": [  # stack to (N, 1) and (N, 1, 2), not (N, T)
        {"id": i, "w": w, "alpha": 1, "d_max": 5} for i, w in enumerate([[30.0], [40.0]])],
        "blocks": {"b": 1}, "cost": {"beta1": 0.5, "beta2": 0.6}})
    @example({"num_slots": 2, "customers": [{"id": 0, "w": [[30.0, 20.0]], "alpha": 1,
                                             "d_max": 5}],
              "blocks": {"b": 1}, "cost": {"beta1": 0.5, "beta2": 0.6}})
    def test_matches_the_per_entry_reference(self, doc):
        assert outcome(validate_scenario, doc) == outcome(reference_validate_scenario, doc)

    def test_large_document_matches_the_reference(self):
        rng = np.random.default_rng(3)
        customers = [{"id": i, "w": rng.uniform(1.0, 50.0, 24).tolist(), "alpha": 1.0,
                      "d_min": 0.0, "d_max": 500.0} for i in range(400)]
        doc = {"num_slots": 24, "customers": customers, "blocks": {"b": 25.0},
               "cost": {"beta1": 0.5, "beta2": 0.6}}
        assert isinstance(outcome(validate_scenario, doc), list)
        assert outcome(validate_scenario, doc) == outcome(reference_validate_scenario, doc)
        customers[250]["w"][7] = True
        customers[301]["id"] = 5
        assert outcome(validate_scenario, doc) == outcome(reference_validate_scenario, doc) == (
            "customers[250].w: must be a number, got True")

    @pytest.mark.parametrize("path, place", [
        ("customers[1].w", lambda doc, v: doc["customers"][1].update(w=v)),
        ("customers[1].w", lambda doc, v: doc["customers"][1].update(w=[1.0, v])),
        ("customers[1].alpha", lambda doc, v: doc["customers"][1].update(alpha=v)),
        ("customers[1].d_min", lambda doc, v: doc["customers"][1].update(d_min=v)),
        ("customers[1].d_max", lambda doc, v: doc["customers"][1].update(d_max=v)),
        ("blocks.b", lambda doc, v: doc["blocks"].update(b=v)),
        ("cost.beta1", lambda doc, v: doc["cost"].update(beta1=v)),
        ("cost.beta2", lambda doc, v: doc["cost"].update(beta2=[0.6, v])),
    ])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_rejected_in_numeric_field(self, path, place, value):
        doc = {"num_slots": 2, "customers": [
            {"id": 0, "w": 40, "alpha": 1.0, "d_min": 0, "d_max": 100},
            {"id": 1, "w": [30, 20], "alpha": 1.0, "d_min": 1, "d_max": 100}],
            "blocks": {"b": 25}, "cost": {"beta1": 0.5, "beta2": 0.6}}
        place(doc, value)
        with pytest.raises(ScenarioError) as err:
            validate_scenario(doc)
        assert str(err.value) == f"{path}: must be a number, got {value!r}"

    def test_numeric_strings_accepted(self):
        doc = {"num_slots": 2, "customers": [
            {"id": "0", "w": ["30", 20], "alpha": "1.5", "d_min": "1", "d_max": "3.5e2"}],
            "blocks": {"b": "25"}, "cost": {"beta1": "0.5", "beta2": ["0.6", 0.7]}}
        scenario = validate_scenario(doc)
        np.testing.assert_array_equal(scenario.w, [[30.0, 20.0]])
        assert (scenario.alpha[0, 0], scenario.d_min[0], scenario.d_max[0]) == (1.5, 1.0, 350.0)
        np.testing.assert_array_equal(scenario.beta2, [0.6, 0.7])
