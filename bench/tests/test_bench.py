"""Tests of the benchmark itself: generators, tracing, self time, metric names.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def brpmarket_objects():
    """(namespace, attribute) -> object for every brpmarket module and class."""
    seen = {}
    for name in ["brpmarket"] + [f"brpmarket.{layer}" for layer in tracer.LAYERS]:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            seen[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("brpmarket"):
                for meth, raw in vars(obj).items():
                    seen[(f"{obj.__module__}.{obj.__qualname__}", meth)] = raw
    return seen


def unchanged(before, after):
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


# --- generators ----------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: scenarios.slack_document(seed, 30, 24),
    lambda seed: scenarios.band_document(seed, 30, 24, "cap"),
    lambda seed: scenarios.band_document(seed, 30, 24, "floor"),
])
def test_generators_are_deterministic(make):
    assert scenarios.encode(make([7, 0])) == scenarios.encode(make([7, 0]))
    assert scenarios.encode(make([7, 0])) != scenarios.encode(make([8, 0]))
    assert scenarios.encode(make([7, 0])) != scenarios.encode(make([7, 1]))


def test_generated_documents_validate_in_their_regime():
    from brpmarket import validate_scenario
    slack = validate_scenario(scenarios.slack_document([1, 0], 20, 24))
    assert all(c.d_max >= sum(c.satiation) for c in slack.customers)
    cap = validate_scenario(scenarios.band_document([1, 0], 20, 24, "cap"))
    assert all(c.d_max < sum(c.satiation) / 2 for c in cap.customers)
    floor = validate_scenario(scenarios.band_document([1, 0], 20, 24, "floor"))
    assert all(c.d_min > 0 for c in floor.customers)
    with pytest.raises(ValueError):
        scenarios.band_document([1, 0], 2, 2, "both")


# --- tracing -------------------------------------------------------------

def test_install_and_remove_restore_every_function_object():
    before = brpmarket_objects()
    t = tracer.Tracer()
    installed = tracer.install(t)
    try:
        import brpmarket.market
        import brpmarket.oracle
        during = brpmarket_objects()
        assert not unchanged(before, during)
        # wrapped where the callers look it up, not only where it is defined
        for module in (brpmarket.market, brpmarket.oracle):
            assert module.step_profile is not before[(module.__name__, "step_profile")]
            assert module.step_profile.__wrapped__ is before[(module.__name__, "step_profile")]
    finally:
        tracer.remove(installed)
    assert unchanged(before, brpmarket_objects())


def test_traced_calls_record_spans_and_restore_methods(tmp_path):
    from brpmarket import agent, market
    from brpmarket.pricing import AggregateDemand
    raw = vars(AggregateDemand)["from_allocation"]
    scenario = demo_scenario()
    t = tracer.Tracer()
    installed = tracer.install(t)
    try:
        report, trace = market.run_market(scenario, market.RunConfig(gamma=0.1))
        agent.project_box_sum([5.0, 5.0], 0.0, 4.0)
        trace.to_csv(tmp_path / "trace.csv")
    finally:
        tracer.remove(installed)
    assert vars(AggregateDemand)["from_allocation"] is raw
    spans = t.summary()
    assert spans["market.run_market"]["calls"] == 1
    assert spans["pricing.AggregateDemand.from_allocation"]["calls"] == report.iterations + 1
    assert t.calls_under("agent.step_profile", "market.run_market") == \
        spans["agent.step_profile"]["calls"] == report.iterations * 2
    assert t.counters["market.iterations"] == report.iterations
    assert t.counters["agent.project_box_sum.shift"] == 1  # only the direct call bisects
    assert t.counters["market.trace_rows"] == (report.iterations + 1) * 2
    assert t.counters["market.trace_bytes"] == (tmp_path / "trace.csv").stat().st_size


def demo_scenario():
    from brpmarket import validate_scenario
    from brpmarket.cli import demo_scenario_document
    return validate_scenario(demo_scenario_document())


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    def refuse(_):
        raise AssertionError("an untraced run must not install wrappers")
    monkeypatch.setattr(tracer, "install", refuse)
    before = brpmarket_objects()
    workload = workloads.BandBinding("band-binding", {"n": 3, "t": 2, "pool": 1})
    m = worker.measure(workload, seed=1, seconds=0.0, trace=False, workdir=tmp_path)
    assert len(m.rounds) == 1 and m.round_tracer is None
    assert unchanged(before, brpmarket_objects())


# --- self time -----------------------------------------------------------

def synthetic(spans):
    """A Tracer holding (name, start, end, parent index) spans."""
    t = tracer.Tracer()
    for name, start, end, parent in spans:
        t.name_id.append(t.intern(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    return t


def test_self_time_subtracts_direct_children_only():
    t = synthetic([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("leaf", 6.0, 7.0, 2),
        ("leaf", 7.5, 8.0, 2),
        ("root", 20.0, 21.0, -1),
    ])
    s = t.summary()
    assert s["root"] == {"calls": 2, "s": 11.0, "self_s": 4.0}
    assert s["a"]["self_s"] == 3.0
    assert s["b"] == {"calls": 1, "s": 4.0, "self_s": 2.5}
    assert s["leaf"] == {"calls": 2, "s": 1.5, "self_s": 1.5}
    assert t.calls_under("leaf", "root") == 2
    assert t.calls_under("leaf", "a") == 0
    assert t.calls_under("b", "b") == 0


# --- metric names --------------------------------------------------------

def test_metric_names_and_units_are_well_formed():
    for table in (worker.END_TO_END, worker.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit


def test_benchmark_json_matches_the_worker():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_plan_covers_every_per_layer_metric_and_known_failure():
    plan = json.loads((BENCH / "plan.json").read_text())
    assert set(plan["per_layer"]) == set(worker.PER_LAYER)
    for failure in plan["known_failures"]:
        assert failure["workload"] in workloads.WORKLOADS
        assert failure["cause"]


def test_failures_are_counted_once_per_distinct_operation():
    def rnd(item, *ops):
        return worker.Round(item, [workloads.Op(kind, 1.0, list(checks))
                                   for kind, checks in ops], 0.0, 1.0)
    m = worker.Measurement()
    m.rounds = [rnd(0, ("run_market", ["kkt"]), ("run_market", [])),
                rnd(1, ("run_market", []), ("run_market", []))]
    # more rounds on the same items, the last one disagreeing with the first
    m.traced = [rnd(0, ("run_market", ["kkt"]), ("run_market", [])),
                rnd(1, ("run_market", []), ("run_market", ["kkt"]))]
    assert worker.op_counts(m) == (4, 2)
    assert worker.failure_table(m) == {"run_market:kkt": 2,
                                       "run_market:inconsistent": 1}
    m.traced = m.traced[:1]
    assert worker.op_counts(m) == (4, 1)


# --- checks --------------------------------------------------------------

def test_strict_json_rejects_nan():
    assert workloads.strict_json('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        workloads.strict_json('{"a": NaN}')


def test_equilibrium_checks_flag_bad_outputs():
    from dataclasses import replace
    from brpmarket import validate_scenario
    doc = scenarios.slack_document([1, 0], 3, 2)
    spec = workloads.Spec.of(doc)
    op, report = workloads.solve(validate_scenario(doc), spec)
    assert op.failed_checks == []
    x = report.allocation.x.copy()
    x[0, 0] = -1.0
    bad = replace(report, allocation=replace(report.allocation, x=x),
                  worst_kkt_residual=1.0)
    assert set(workloads.check_equilibrium(bad, spec)) >= {"nonnegative", "price_p_l", "kkt"}
    assert "converged" in workloads.check_equilibrium(replace(report, converged=False), spec)


def test_launcher_refuses_a_checkout_without_the_package(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "slack-wide", "--seconds", "1"]) != 0
    out = capsys.readouterr()
    assert out.out == "" and "no brpmarket package" in out.err
