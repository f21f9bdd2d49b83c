"""The benchmark's workloads: set-up, one round of operations, output checks.

Every workload is a closed loop of one caller: the next operation starts
when the previous one has returned.  A round is one pass over a workload's
operations on one item of its scenario pool; the worker repeats rounds for
the requested number of seconds, cycling through the pool.  Each operation
is timed on its own.

The program is reached only through module attributes looked up at call
time (``market.run_market``, ``cli.main``...), so a traced run sees every
call.  Each operation returns an :class:`Op` that lists the checks its
outputs failed instead of raising, so one bad output does not end the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from brpmarket import agent, cli, market, model

import scenarios

# A converged equilibrium whose KKT residual exceeds this share of the
# largest willingness w (the scale of marginal utility and of prices) is
# not an equilibrium.  Converged slack-band runs sit near 3e-8 of it.
KKT_REL_TOL = 1e-6
# Feasibility margin on x >= 0 and on each customer's daily band.
BAND_TOL = 1e-9
# Relative tolerance of the pricing identities, which hold up to rounding.
PRICE_RTOL = 1e-9


@dataclass
class Op:
    """One timed call into the program and the checks its outputs failed."""

    kind: str
    seconds: float
    failed_checks: list[str] = field(default_factory=list)
    iterations: int | None = None
    kkt_residual: float | None = None
    oracle_gap: float | None = None


@dataclass(frozen=True)
class Spec:
    """The benchmark's own view of a scenario document, used by the checks."""

    n: int
    t: int
    w_max: float
    d_min: np.ndarray
    d_max: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray

    @classmethod
    def of(cls, doc: dict) -> "Spec":
        t = int(doc["num_slots"])
        customers = doc["customers"]
        return cls(
            n=len(customers),
            t=t,
            w_max=float(max(np.max(c["w"]) for c in customers)),
            d_min=np.array([c["d_min"] for c in customers], dtype=float),
            d_max=np.array([c["d_max"] for c in customers], dtype=float),
            beta1=np.broadcast_to(np.asarray(doc["cost"]["beta1"], dtype=float), (t,)),
            beta2=np.broadcast_to(np.asarray(doc["cost"]["beta2"], dtype=float), (t,)),
        )

    @property
    def kkt_threshold(self) -> float:
        return KKT_REL_TOL * self.w_max


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity literals json accepts."""
    def reject(literal):
        raise ValueError(f"non-standard JSON literal {literal}")
    return json.loads(text, parse_constant=reject)


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return bool(np.all(np.abs(a - b) <= PRICE_RTOL * scale))


def check_prices(p_l, p_u, spec: Spec, demand=None) -> list[str]:
    """``p_l = 2*beta1*D`` (when D is known) and ``p_u/p_l = beta2/beta1`` where D > 0."""
    failed = []
    p_l, p_u = np.asarray(p_l, dtype=float), np.asarray(p_u, dtype=float)
    if demand is not None and not _close(p_l, 2.0 * spec.beta1 * demand):
        failed.append("price_p_l")
    positive = p_l > 0
    if not _close(p_u[positive] / p_l[positive],
                  (spec.beta2 / spec.beta1)[positive]):
        failed.append("price_ratio")
    return failed


def check_equilibrium(report, spec: Spec) -> list[str]:
    """Feasibility, pricing identities and the KKT certificate of a market report."""
    failed = []
    x = np.asarray(report.allocation.x, dtype=float)
    if x.shape != (spec.n, spec.t) or not np.all(np.isfinite(x)):
        return ["allocation_shape"]
    if np.any(x < 0.0):
        failed.append("nonnegative")
    daily = x.sum(axis=1)
    if np.any(daily < spec.d_min - BAND_TOL) or np.any(daily > spec.d_max + BAND_TOL):
        failed.append("daily_band")
    failed += check_prices(report.prices.p_l, report.prices.p_u, spec,
                           demand=x.sum(axis=0))
    if not report.converged:
        failed.append("converged")
    elif not report.worst_kkt_residual <= spec.kkt_threshold:
        failed.append("kkt")
    return failed


def timed(kind: str, call, *args):
    """Run ``call`` and return (Op, result); an exception becomes a failed check."""
    start = time.perf_counter()
    try:
        result, failed = call(*args), []
    except Exception as exc:  # the benchmark counts failures and keeps going
        result, failed = None, [f"raised {type(exc).__name__}"]
    return Op(kind, time.perf_counter() - start, failed), result


def solve(scenario, spec: Spec):
    """run_market through the API at the default step size, then check it.

    Returns (Op, EquilibriumReport or None).
    """
    config = market.RunConfig(gamma=market.default_step_size(scenario))
    op, result = timed("run_market", market.run_market, scenario, config)
    if result is None:
        return op, None
    report = result[0]
    op.iterations = report.iterations
    op.kkt_residual = float(report.worst_kkt_residual)
    op.failed_checks += check_equilibrium(report, spec)
    return op, report


def certify(scenario, report) -> Op:
    """worst_kkt_residual through the API; it must reproduce the report's value."""
    op, value = timed("worst_kkt_residual", agent.worst_kkt_residual,
                      scenario, report.allocation, report.prices)
    if value is not None:
        op.kkt_residual = float(value)
        if not (math.isfinite(value) and value >= 0.0):
            op.failed_checks.append("finite")
        elif value != report.worst_kkt_residual:
            op.failed_checks.append("reproducible")
    return op


def _cli_main(argv: list[str]):
    """``brpmarket.cli.main(argv)`` with its console output captured; the exit code."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
    return lines


def cli_run(scenario_path: Path, out: Path, spec: Spec) -> Op:
    """``brpmarket run`` and checks of summary.json and trace.csv."""
    op, code = timed("cli.run", _cli_main,
                     ["run", "--scenario", str(scenario_path), "--out", str(out)])
    if code is None:
        return op
    if code != 0:
        op.failed_checks.append("exit_code")
    try:
        summary = strict_json((out / "summary.json").read_text(encoding="utf-8"))
        iterations = int(summary["iterations"])
        residual = float(summary["worst_kkt_residual"])
        p_l, p_u = summary["final_prices"]["p_l"], summary["final_prices"]["p_u"]
    except (OSError, ValueError, KeyError, TypeError):
        op.failed_checks.append("summary_json")
        return op
    op.iterations, op.kkt_residual = iterations, residual
    op.failed_checks += check_prices(p_l, p_u, spec)
    if summary.get("converged") is True and not residual <= spec.kkt_threshold:
        op.failed_checks.append("kkt")
    # comment line + header, then one row per (iterate, slot, customer)
    try:
        rows = count_lines(out / "trace.csv") - 2
    except OSError:
        rows = -1
    if rows != (iterations + 1) * spec.n * spec.t:
        op.failed_checks.append("trace_rows")
    return op


def cli_verify(kind: str, scenario_path: Path, out: Path) -> Op:
    """``brpmarket verify`` and checks of its exit code and comparison.json."""
    op, code = timed(kind, _cli_main,
                     ["verify", "--scenario", str(scenario_path), "--out", str(out)])
    if code is None:
        return op
    if code != 0:
        op.failed_checks.append("exit_code")
    try:
        comparison = strict_json((out / "comparison.json").read_text(encoding="utf-8"))
        passed = comparison["pass"]
        op.oracle_gap = float(comparison["allocation_gap"])
    except (OSError, ValueError, KeyError, TypeError):
        op.failed_checks.append("comparison_json")
        return op
    if passed is not True:
        op.failed_checks.append("pass")
    if (code == 0) != (passed is True):
        op.failed_checks.append("exit_code_matches_pass")
    return op


# --- workloads -----------------------------------------------------------

@dataclass
class Workload:
    """A workload's sizes, how it sets up its pool and how it runs a round."""

    name: str
    sizes: dict
    # Share of the round spent in memory-bound work (see refclock.Clock).
    memory_share: float = 0.0


class SlackWide(Workload):
    """run_market via the API on wide slack-band markets.

    The per-customer step_profile loop does nearly all the work; the
    projection takes its early exit; nothing is written and no oracle runs.
    """

    def setup(self, seed: int, workdir: Path):
        s = self.sizes
        pool = []
        for k in range(s["pool"]):
            doc = scenarios.slack_document([seed, k], s["n"], s["t"])
            pool.append((model.validate_scenario(doc), Spec.of(doc)))
        return pool

    def round(self, item, workdir: Path) -> list[Op]:
        scenario, spec = item
        return [solve(scenario, spec)[0]]


class BandBinding(Workload):
    """run_market then worst_kkt_residual via the API with a binding daily band.

    One market has a binding cap and one a binding floor; in both, every
    projection call bisects.  The centralized oracle is not called.
    """

    def setup(self, seed: int, workdir: Path):
        s = self.sizes
        pool = []
        for k in range(s["pool"]):
            item = []
            for side in ("cap", "floor"):
                doc = scenarios.band_document([seed, k], s["n"], s["t"], side)
                item.append((model.validate_scenario(doc), Spec.of(doc)))
            pool.append(item)
        return pool

    def round(self, item, workdir: Path) -> list[Op]:
        ops = []
        for scenario, spec in item:
            op, report = solve(scenario, spec)
            ops.append(op)
            if report is not None:
                ops.append(certify(scenario, report))
        return ops


class CliReport(Workload):
    """brpmarket.cli.main in-process: run with its file output, then verify.

    Three jobs per round: ``run`` on a slack market (trace.csv and
    summary.json), ``verify`` on the built-in demo (grid oracle) and
    ``verify`` on the same slack market (centralized oracle).
    """

    def setup(self, seed: int, workdir: Path):
        s = self.sizes
        scen_dir = workdir / "scenarios"
        scen_dir.mkdir(parents=True, exist_ok=True)
        demo_path = scen_dir / "demo.json"
        demo_path.write_text(json.dumps(cli.demo_scenario_document()), encoding="utf-8")
        model.load_scenario(demo_path)
        pool = []
        for k in range(s["pool"]):
            doc = scenarios.slack_document([seed, k], s["n"], s["t"])
            path = scen_dir / f"slack-{k}.json"
            path.write_bytes(scenarios.encode(doc))
            model.load_scenario(path)
            pool.append((path, demo_path, Spec.of(doc)))
        return pool

    def round(self, item, workdir: Path) -> list[Op]:
        path, demo_path, spec = item
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        ops = [
            cli_run(path, out / "run", spec),
            cli_verify("cli.verify.demo", demo_path, out / "verify-demo"),
            cli_verify("cli.verify.slack", path, out / "verify-slack"),
        ]
        shutil.rmtree(out, ignore_errors=True)
        return ops


WORKLOADS = {
    w.name: w for w in (
        SlackWide("slack-wide", {"n": 250, "t": 24, "pool": 3}),
        BandBinding("band-binding", {"n": 50, "t": 24, "pool": 4}),
        # The grid oracle's large-array passes take about 45% of a round
        # (oracle.brute_force_welfare.ms over cli.run.ms + cli.verify.ms).
        CliReport("cli-report", {"n": 100, "t": 24, "pool": 3}, memory_share=0.45),
    )
}
