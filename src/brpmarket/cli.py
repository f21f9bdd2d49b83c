"""Command-line front end.

Subcommands: run (market to equilibrium), sweep (step-size study),
verify (oracle certification), demo (built-in two-customer scenario).

Exit codes: 0 success, 1 bad scenario, bad option value, bad --out (all checked
before any solve) or I/O error; 2 no convergence of the market run (max-iter
exhaustion or divergence; verify then compares nothing), 3 oracle
non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .market import (
    DivergenceError,
    RunConfig,
    default_step_size,
    run_market,
)
from .model import Allocation, ScenarioError, load_scenario, validate_scenario
from .oracle import compare_equilibrium, solve_welfare_centralized, welfare_optimum

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_ORACLE_FAILED = 3
EXIT_VERIFY_FAILED = 4
GAMMA_HELP = "step size; default 2/(min alpha + 2*max alpha + 2*max(beta1 + beta2)*N)"


def demo_scenario_document() -> dict:
    """The built-in two-customer demo scenario as a parsed document."""
    text = resources.files("brpmarket").joinpath("data/demo.json").read_text()
    return json.loads(text)


def _load(args):
    if getattr(args, "scenario", None) is None:
        return validate_scenario(demo_scenario_document())
    return load_scenario(args.scenario)


def _summary(report) -> dict:
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        "welfare": report.welfare,
        "final_prices": {
            "p_l": [float(v) for v in report.prices.p_l],
            "p_u": [float(v) for v in report.prices.p_u],
        },
        "worst_kkt_residual": report.worst_kkt_residual,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


def _bad_input(problem) -> int:
    print(f"error: {problem}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _gamma(args, scenario) -> float:
    """``--gamma``, or else the scenario's default step."""
    if args.gamma is not None:
        return args.gamma
    gamma = default_step_size(scenario)
    if gamma == 0.0:  # 2/inf
        raise ValueError("the scenario's default step bound 2*(max alpha + max(beta1 + "
                         "beta2)*N) overflows the float range; --gamma sets a step")
    return gamma


def cmd_run(args, parser) -> int:
    try:
        scenario = _load(args)
        config = RunConfig(gamma=_gamma(args, scenario), tol=args.tol, max_iter=args.max_iter)
    except (ScenarioError, OSError, ValueError) as exc:
        return _bad_input(exc)

    try:
        report, trace = run_market(scenario, config)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out / "trace.csv")
    _write_json(out / "summary.json", _summary(report))
    print(json.dumps(_summary(report), indent=2, sort_keys=True))
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_sweep(args, parser) -> int:
    try:
        gammas = [float(g) for g in args.gammas.split(",") if g.strip()]
    except ValueError:
        parser.error(f"invalid --gammas value: {args.gammas!r}")
    if not gammas:
        parser.error("--gammas requires at least one value")

    try:
        scenario = _load(args)
        configs = [RunConfig(gamma=gamma, tol=args.tol, max_iter=args.max_iter)
                   for gamma in gammas]
    except (ScenarioError, OSError, ValueError) as exc:
        return _bad_input(exc)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for config in configs:
        gamma = config.gamma
        try:
            report, trace = run_market(scenario, config)
        except DivergenceError as exc:
            rows.append((gamma, exc.iteration, False, math.nan))
            continue
        trace.to_csv(out / f"trace_gamma_{gamma}.csv")
        rows.append((gamma, report.iterations, report.converged, report.welfare))

    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "iterations", "converged", "welfare"])
        for gamma, iters, conv, welfare in rows:
            writer.writerow([repr(gamma), iters, conv, repr(welfare)])
    for gamma, iters, conv, welfare in rows:
        print(f"gamma={gamma!r} iterations={iters} converged={conv} "
              f"welfare={welfare!r}")
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    if not math.isfinite(args.inject_perturbation):
        return _bad_input("--inject-perturbation must be finite, "
                          f"got {args.inject_perturbation!r}")
    try:
        scenario = _load(args)
        gamma = _gamma(args, scenario)
        config = RunConfig(gamma=gamma, tol=1e-10, max_iter=args.max_iter)
    except (ScenarioError, OSError, ValueError) as exc:
        return _bad_input(exc)

    try:
        report, _ = run_market(scenario, config)
        if not report.converged:
            print(f"error: market run did not converge in {report.iterations} iterations",
                  file=sys.stderr)
            return EXIT_NOT_CONVERGED
        centralized = solve_welfare_centralized(scenario, tol=1e-6, gamma=gamma,
                                                max_iter=args.max_iter)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    if args.inject_perturbation:
        report = replace(report, allocation=Allocation(
            report.allocation.x + args.inject_perturbation))

    if not centralized.converged:
        print("error: centralized oracle did not reach the requested "
              f"stationarity tolerance (residual "
              f"{centralized.stationarity_residual!r})", file=sys.stderr)
        return EXIT_ORACLE_FAILED

    comparison = compare_equilibrium(report, centralized)
    payload = comparison.as_dict()
    all_pass = comparison.passed

    if scenario.num_customers * scenario.num_slots <= 3:
        optimum = welfare_optimum(scenario)
        # past satiation the maximizer is not unique: compared by welfare alone
        optimum_cmp = compare_equilibrium(report, optimum, tol_allocation=math.inf)
        payload["optimum"] = optimum_cmp.as_dict()
        if optimum.boundary_degenerate:
            # Welfare argmax sits on the cost-segment boundary where the
            # marginal-cost pricing rule is undefined; informational only.
            print("notice: welfare optimum is boundary-degenerate; "
                  "excluded from the pass criterion", file=sys.stderr)
        else:
            all_pass = all_pass and optimum_cmp.passed
    else:
        print("notice: N*T > 3, welfare optimum skipped", file=sys.stderr)

    payload["pass"] = all_pass
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "comparison.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def cmd_demo(args, parser) -> int:
    args.scenario = None
    return cmd_run(args, parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brpmarket",
        description="Demand-response market simulator under two-block rate pricing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the market loop to equilibrium")
    run.add_argument("--scenario", required=True, help="scenario JSON file")
    run.add_argument("--gamma", type=float, default=None, help=GAMMA_HELP)
    run.add_argument("--tol", type=float, default=1e-6)
    run.add_argument("--max-iter", type=int, default=50000)
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run the market across step sizes")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--gammas", required=True,
                       help="comma-separated step sizes, e.g. 0.01,0.1,0.3")
    sweep.add_argument("--tol", type=float, default=1e-6)
    sweep.add_argument("--max-iter", type=int, default=50000)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="certify the equilibrium against oracles")
    verify.add_argument("--scenario", required=True)
    verify.add_argument("--gamma", type=float, default=None, help=GAMMA_HELP)
    verify.add_argument("--max-iter", type=int, default=200000)
    verify.add_argument("--inject-perturbation", type=float, default=0.0,
                        help="shift the converged allocation (negative control)")
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    demo = sub.add_parser("demo", help="run the built-in demo scenario")
    demo.add_argument("--gamma", type=float, default=None, help=GAMMA_HELP)
    demo.add_argument("--tol", type=float, default=1e-6)
    demo.add_argument("--max-iter", type=int, default=50000)
    demo.add_argument("--out", default="demo_out")
    demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # before any solve: --out, or else its nearest existing ancestor, is a directory
        if args.out and not next(p for p in (Path(args.out), *Path(args.out).parents)
                                 if p.exists()).is_dir():
            return _bad_input(f"--out {args.out!r} is not a directory and cannot become one")
        return args.func(args, parser)
    except OSError as exc:  # an output that could not be written
        return _bad_input(exc)


if __name__ == "__main__":
    sys.exit(main())
