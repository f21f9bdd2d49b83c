"""Run one benchmark workload in this process and print its result.

Started by ``bench/run.py`` in a fresh process per workload, with the BLAS
and OpenMP thread counts set to 1; it pins itself to one CPU.  Prints a
human-readable table and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the gated end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.  A
traced run alternates an untraced and a traced round on the same inputs, so
the tracing overhead and the untraced end-to-end figures come from the same
process.  Timings are reported in seconds at reference speed (refclock); the
as-measured ones are printed as ``raw.*`` and kept in .bench_out/results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Set-up (import, then scenario generation and validation) is repeated and
# its median reported, so one slow file-system or allocator hiccup does not
# decide setup_s.  Each import runs in a fresh interpreter, and each set-up
# is scaled by the reference sample taken right after it.
SETUP_REPS = 11
IMPORT_PROBE = ("import time; t = time.perf_counter(); import brpmarket.cli; "
                "print(time.perf_counter() - t)")

# Gated end-to-end metrics: present and non-zero on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Per-round figures of the untraced rounds that only some workloads have
# (0 elsewhere), so they are reported with the per-layer metrics, ungated.
WORKLOAD_SPECIFIC = {
    "e2e.solve_s": "s",
    "e2e.market_ms_per_iter": "ms",
    "e2e.report_s": "s",
    "e2e.certify_s": "s",
    "e2e.kkt_residual": "currency/kWh",
    "e2e.oracle_gap": "kWh",
    "e2e.failed_frac": "ratio",
}

# span name -> which of its figures are reported ("calls", "ms", "self_ms")
SPAN_METRICS = {
    "model.utility_value": ("calls", "self_ms"),
    "model.utility_gradient": ("calls", "self_ms"),
    "model.canonical_split": ("calls", "self_ms"),
    "pricing.block_prices": ("calls", "self_ms"),
    "pricing.AggregateDemand.from_allocation": ("self_ms",),
    "agent.step_profile": ("calls", "self_ms"),
    "agent.project_box_sum": ("calls", "self_ms"),
    "agent.worst_kkt_residual": ("calls", "self_ms"),
    "market.run_market": ("ms", "self_ms"),
    "market.social_welfare": ("self_ms",),
    "market.detect_convergence": ("self_ms",),
    "market.IterationTrace.to_csv": ("ms",),
    "oracle.solve_welfare_centralized": ("ms", "self_ms"),
    "oracle.brute_force_welfare": ("ms",),
    "oracle.compare_equilibrium": ("ms",),
    "cli.run": ("ms",),
    "cli.verify": ("ms",),
}
LAYERS = ("model", "pricing", "agent", "market", "oracle", "cli")
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}

PER_LAYER = {
    "model.validate_scenario.ms": "ms",
    **{f"{span}.{fig}": UNITS[fig]
       for span, figs in SPAN_METRICS.items() for fig in figs},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS if layer != "cli"},
    "cli.self_ms": "ms",
    "agent.project_box_sum.shift_frac": "ratio",
    "market.iterations": "count",
    "market.trace_rows": "count",
    "market.trace_bytes": "B",
    "oracle.centralized.step_calls": "count",
    "oracle.grid_points": "count",
    "trace.overhead_s": "s",
    **WORKLOAD_SPECIFIC,
}


@dataclass
class Round:
    item: int
    ops: list
    start: float
    end: float
    factor: float = 1.0

    @property
    def wall(self) -> float:
        """Summed time of the round's calls into the program, as measured."""
        return sum(op.seconds for op in self.ops)

    def seconds(self, kinds=None) -> float:
        """Summed time of the round's calls (of ``kinds``) at reference speed."""
        return self.factor * sum(op.seconds for op in self.ops
                                 if kinds is None or op.kind in kinds)


@dataclass
class Measurement:
    import_times: list[float] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    setup_factors: list[float] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    traced: list[Round] = field(default_factory=list)
    clock: object = None
    setup_tracer: object = None
    round_tracer: object = None

    @property
    def setup_s(self) -> float:
        return statistics.median(
            f * (i + s) for i, s, f in
            zip(self.import_times, self.setup_times, self.setup_factors))

    @property
    def raw_setup_s(self) -> float:
        return statistics.median(
            i + s for i, s in zip(self.import_times, self.setup_times))

    @property
    def setup_factor(self) -> float:
        return statistics.median(self.setup_factors)


def import_seconds() -> float:
    """Time to import brpmarket (numpy included) in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                           stdout=subprocess.PIPE, text=True, timeout=60)
    return float(probe.stdout)


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Measurement:
    """Set up SETUP_REPS times, then run rounds until ``seconds`` have passed
    and every pool item has had a round.

    With ``trace``, every untraced round is followed by a traced round on the
    same inputs, and one more traced set-up is made.
    """
    import refclock
    clock = refclock.Clock(workload.memory_share)
    m = Measurement(clock=clock)
    for _ in range(SETUP_REPS):
        m.import_times.append(import_seconds())
        start = time.perf_counter()
        pool = workload.setup(seed, workdir)
        m.setup_times.append(time.perf_counter() - start)
        clock.tick()
        m.setup_factors.append(clock.last_factor())
    if trace:
        import tracer
        m.setup_tracer, m.round_tracer = tracer.Tracer(), tracer.Tracer()
        installed = tracer.install(m.setup_tracer)
        try:
            workload.setup(seed, workdir)
        finally:
            tracer.remove(installed)

    def run_round(index: int) -> Round:
        start = time.perf_counter()
        ops = workload.round(pool[index], workdir)
        end = time.perf_counter()
        clock.tick()
        return Round(index, ops, start, end)

    start = time.perf_counter()
    while len(m.rounds) < len(pool) or time.perf_counter() - start < seconds:
        index = len(m.rounds) % len(pool)
        m.rounds.append(run_round(index))
        if trace:
            installed = tracer.install(m.round_tracer)
            try:
                m.traced.append(run_round(index))
            finally:
                tracer.remove(installed)
    for r in m.rounds + m.traced:
        r.factor = clock.factor(r.start, r.end)
    return m


def workload_specific(m: Measurement) -> dict[str, float]:
    """The untraced rounds' figures that exist only on some workloads."""
    ops = [op for r in m.rounds for op in r.ops]
    per_iter = []
    for r in m.rounds:
        iterations = sum(op.iterations for op in r.ops
                         if op.kind == "run_market" and op.iterations)
        if iterations:
            per_iter.append(r.seconds({"run_market"}) / iterations * 1e3)
    kkt = [op.kkt_residual for op in ops if op.kkt_residual is not None]
    gaps = [op.oracle_gap for op in ops if op.oracle_gap is not None]
    attempted, failed = op_counts(m)
    return {
        "e2e.solve_s": statistics.median(r.seconds({"run_market"}) for r in m.rounds),
        "e2e.market_ms_per_iter": statistics.median(per_iter) if per_iter else 0.0,
        "e2e.report_s": statistics.median(r.seconds({"cli.run"}) for r in m.rounds),
        "e2e.certify_s": statistics.median(
            r.seconds({"cli.verify.demo", "cli.verify.slack"}) for r in m.rounds),
        "e2e.kkt_residual": max(kkt, default=0.0),
        "e2e.oracle_gap": max(gaps, default=0.0),
        "e2e.failed_frac": failed / attempted,
    }


def end_to_end(m: Measurement) -> dict[str, float]:
    return {
        "setup_s": m.setup_s,
        "wall_s": statistics.median(r.seconds() for r in m.rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_timings(m: Measurement) -> dict[str, float]:
    """setup_s and wall_s as measured, and the reference kernel's median time."""
    return {
        "raw.setup_s": m.raw_setup_s,
        "raw.wall_s": statistics.median(r.wall for r in m.rounds),
        "raw.reference_s": statistics.median(m.clock.durations),
    }


def per_layer(m: Measurement) -> dict[str, float]:
    """Per-layer figures per traced round (validate_scenario: per set-up)."""
    rounds = len(m.traced)
    k = statistics.median(r.factor for r in m.traced)
    spans = m.round_tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {"model.validate_scenario.ms": m.setup_factor * 1e3 *
           m.setup_tracer.summary().get("model.validate_scenario", empty)["s"]}
    for span, figs in SPAN_METRICS.items():
        s = spans.get(span, empty)
        values = {"calls": s["calls"] / rounds, "ms": k * s["s"] * 1e3 / rounds,
                  "self_ms": k * s["self_s"] * 1e3 / rounds}
        for fig in figs:
            out[f"{span}.{fig}"] = values[fig]
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = k * sum(
            s["self_s"] for name, s in spans.items()
            if name.startswith(layer + ".")) * 1e3 / rounds
    counters = m.round_tracer.counters
    box_calls = spans.get("agent.project_box_sum", empty)["calls"]
    out["agent.project_box_sum.shift_frac"] = (
        counters.get("agent.project_box_sum.shift", 0.0) / box_calls if box_calls else 0.0)
    for key in ("market.iterations", "market.trace_rows", "market.trace_bytes",
                "oracle.grid_points"):
        out[key] = counters.get(key, 0.0) / rounds
    out["oracle.centralized.step_calls"] = m.round_tracer.calls_under(
        "agent.step_profile", "oracle.solve_welfare_centralized") / rounds
    out["trace.overhead_s"] = statistics.median(
        t.seconds() - u.seconds() for u, t in zip(m.rounds, m.traced))
    out.update(workload_specific(m))
    return {name: out[name] for name in PER_LAYER}


def distinct_ops(m: Measurement) -> dict[tuple, list[str]]:
    """The failed checks of each distinct operation of the run.

    An operation is a call of one kind on one pool item (the k-th call of
    that kind in the item's round).  Every round on an item repeats its
    calls on the same inputs, so every repeat must fail the same checks; a
    repeat that does not adds the check ``inconsistent``.  Counting distinct
    operations makes ``attempted`` and ``failed`` depend on the seed alone,
    not on how many rounds fitted into the run.
    """
    seen: dict[tuple, list[str]] = {}
    for r in m.rounds + m.traced:
        occurrence: dict[str, int] = {}
        for op in r.ops:
            k = occurrence.get(op.kind, 0)
            occurrence[op.kind] = k + 1
            key = (r.item, op.kind, k)
            checks = sorted(op.failed_checks)
            if key not in seen:
                seen[key] = checks
            elif seen[key] != checks and "inconsistent" not in seen[key]:
                seen[key] = sorted(set(seen[key]) | set(checks) | {"inconsistent"})
    return seen


def op_counts(m: Measurement) -> tuple[int, int]:
    """(attempted, failed) over the run's distinct operations."""
    ops = distinct_ops(m)
    return len(ops), sum(1 for checks in ops.values() if checks)


def failure_table(m: Measurement) -> dict[str, int]:
    """``kind:check`` -> the number of distinct operations that failed it."""
    table: dict[str, int] = {}
    for (_, kind, _), checks in distinct_ops(m).items():
        for check in checks:
            key = f"{kind}:{check}"
            table[key] = table.get(key, 0) + 1
    return table


def known_failures(workload: str) -> set[str]:
    plan = json.loads((BENCH / "plan.json").read_text(encoding="utf-8"))
    return {f"{k['op']}:{k['check']}" for k in plan["known_failures"]
            if k["workload"] == workload}


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _print_table(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    workload = workloads.WORKLOADS[name]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        m = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = op_counts(m)
    failures = failure_table(m)
    unexpected = sorted(set(failures) - known_failures(name))
    env = environment(seed)
    print(f"# workload {name}, seed {seed}, trace {int(trace)}: "
          f"{len(m.rounds)} rounds, {attempted} distinct operations, {failed} failed")
    for key, count in sorted(failures.items()):
        note = "" if key not in unexpected else "  (not a known failure)"
        print(f"# failed check {key}: {count}{note}")
    print("# env " + json.dumps(env, sort_keys=True))

    e2e = end_to_end(m)
    specific = workload_specific(m)
    raw = raw_timings(m)
    if trace:
        metrics, units = per_layer(m), PER_LAYER
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        m.round_tracer.save(OUT / "trace" / f"{name}.npz")
    else:
        metrics, units = e2e, END_TO_END
    _print_table("end-to-end (untraced rounds; seconds at reference speed)",
                 {**e2e, **specific}, {**END_TO_END, **WORKLOAD_SPECIFIC})
    _print_table("as measured", raw, {k: "s" for k in raw})
    if trace:
        _print_table("per layer (traced rounds)", metrics, units)

    record = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "rounds": len(m.rounds), "attempted": attempted, "failed": failed,
        "failures": failures, "unexpected_failures": unexpected, "env": env,
        "setup_times_s": m.setup_times, "import_times_s": m.import_times,
        "setup_factors": m.setup_factors,
        "round_walls_s": [r.wall for r in m.rounds],
        "round_factors": [r.factor for r in m.rounds],
        "reference_samples_s": m.clock.durations,
        "end_to_end": e2e, "workload_specific": specific, "raw": raw,
        "per_layer": metrics if trace else None,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def orient(seed: int) -> int:
    """ms/iter over N x T in the slack regime and the cost of to_csv (not gated)."""
    from brpmarket import market, model
    import scenarios
    workdir = OUT / f"orient-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        for n in (2, 100, 1000):
            for t in (1, 24):
                scenario = model.validate_scenario(scenarios.slack_document([seed, 0], n, t))
                config = market.RunConfig(gamma=market.default_step_size(scenario))
                start = time.perf_counter()
                report, trace = market.run_market(scenario, config)
                solve = time.perf_counter() - start
                path = workdir / "trace.csv"
                start = time.perf_counter()
                trace.to_csv(path)
                write = time.perf_counter() - start
                rows.append({"n": n, "t": t, "iterations": report.iterations,
                             "solve_s": solve,
                             "ms_per_iter": solve / report.iterations * 1e3,
                             "to_csv_s": write, "to_csv_mb": path.stat().st_size / 1e6})
                path.unlink()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("| N x T | iterations | ms/iter | solve s | to_csv s | to_csv MB |")
    print("| --- | --- | --- | --- | --- | --- |")
    for r in rows:
        print(f"| {r['n']}x{r['t']} | {r['iterations']} | {r['ms_per_iter']:.3g} | "
              f"{r['solve_s']:.3g} | {r['to_csv_s']:.3g} | {r['to_csv_mb']:.3g} |")
    print("# env " + json.dumps(environment(seed), sort_keys=True))
    print(json.dumps({"orientation": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--orient", action="store_true")
    args = parser.parse_args(argv)
    if not args.orient and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required without --orient")
    # One CPU for the whole run: no migration between cores mid-round.  The
    # last allowed CPU, since the first one tends to take the interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import brpmarket
    src = (ROOT / "src").resolve()
    if src not in Path(brpmarket.__file__).resolve().parents:
        print(f"error: brpmarket imported from {brpmarket.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.orient:
        return orient(args.seed)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
