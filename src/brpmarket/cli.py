"""Command-line front end: it parses options, calls the library and prints.  The rules
live in the library: :func:`market.write_trace` makes a trace's directories and removes
them with the file when the run diverges, and :func:`market.default_step_size` refuses a
step bound past the float range.

Subcommands: run (market to equilibrium), sweep (step-size study), verify (oracle
certification), and demo, which is run on the packaged two-customer scenario
``data/demo.json``.  Each option that subcommands share is declared once, on a parent
parser: --scenario (run, sweep, verify), --gamma (run, verify, demo), and --tol and
--max-iter (run, sweep, demo, with RunConfig's defaults); verify declares its own
--max-iter, whose default is 200000.

Exit codes: 0 success, 1 bad scenario, usage error (such as an unknown option or a
missing one), bad option value, bad --out (all checked before any solve) or I/O
error; 2 no convergence of the market run (max-iter exhaustion or divergence; verify
then compares nothing), 3 oracle non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from .market import DivergenceError, RunConfig, default_step_size, run_market, write_trace
from .model import ScenarioError, load_scenario
from .oracle import compare_equilibrium, solve_welfare_centralized, welfare_optimum

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_ORACLE_FAILED = 3
EXIT_VERIFY_FAILED = 4
DEMO_SCENARIO = Path(__file__).with_name("data") / "demo.json"


def demo_scenario_document() -> dict:
    """The built-in two-customer demo scenario as a parsed document."""
    return json.loads(DEMO_SCENARIO.read_text(encoding="utf-8"))


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


def _write_json(path: Path | None, payload: dict) -> str:
    """``payload``'s strict JSON text, NaN and inf as null; written to ``path`` if given."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return text


def _fail(code: int, problem) -> int:
    """Print ``error: problem`` to stderr; the exit code ``code``."""
    print(f"error: {problem}", file=sys.stderr)
    return code


def _gamma(args, scenario) -> float:
    """``--gamma``, or else the scenario's default step."""
    return default_step_size(scenario) if args.gamma is None else args.gamma


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        config = RunConfig(gamma=_gamma(args, scenario), tol=args.tol, max_iter=args.max_iter)
    except (ScenarioError, OSError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, exc)

    out = Path(args.out)
    try:
        report, _ = write_trace(scenario, config, out / "trace.csv")
    except DivergenceError as exc:
        return _fail(EXIT_NOT_CONVERGED, exc)
    print(_write_json(out / "summary.json", _summary(report)), end="")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _gammas(text: str) -> list[float]:
    """``--gammas``: comma-separated step sizes, at least one."""
    try:
        if gammas := [float(g) for g in text.split(",") if g.strip()]:
            return gammas
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid step size list: {text!r}")


def cmd_sweep(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        configs = [RunConfig(gamma=gamma, tol=args.tol, max_iter=args.max_iter)
                   for gamma in args.gammas]
    except (ScenarioError, OSError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, exc)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for gamma, config in zip(args.gammas, configs):
        try:
            report, _ = write_trace(scenario, config, out / f"trace_gamma_{gamma}.csv")
            rows.append((gamma, report.iterations, report.converged, report.welfare))
        except DivergenceError as exc:
            rows.append((gamma, exc.iteration, False, math.nan))

    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "iterations", "converged", "welfare"])
        for gamma, iters, conv, welfare in rows:
            writer.writerow([repr(gamma), iters, conv, repr(welfare)])
    for gamma, iters, conv, welfare in rows:
        print(f"gamma={gamma!r} iterations={iters} converged={conv} "
              f"welfare={welfare!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        config = RunConfig(gamma=_gamma(args, scenario), tol=1e-10, max_iter=args.max_iter)
    except (ScenarioError, OSError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, exc)

    try:
        report, _ = run_market(scenario, config)
    except DivergenceError as exc:
        return _fail(EXIT_NOT_CONVERGED, exc)
    if not report.converged:
        return _fail(EXIT_NOT_CONVERGED,
                     f"market run did not converge in {report.iterations} iterations")
    centralized = solve_welfare_centralized(scenario)
    if not centralized.converged:
        return _fail(EXIT_ORACLE_FAILED, "the centralized oracle could not certify an "
                     f"equilibrium (residual {centralized.stationarity_residual!r})")

    comparison = compare_equilibrium(report, centralized)
    payload = comparison.as_dict()
    all_pass = comparison.passed

    if scenario.num_customers * scenario.num_slots <= 3:
        try:
            optimum = welfare_optimum(scenario)
        except ValueError as exc:
            return _fail(EXIT_ORACLE_FAILED, exc)
        # past satiation the maximizer is not unique: compared by welfare alone
        optimum_cmp = compare_equilibrium(report, optimum, tol_demand=math.inf)
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
    path = Path(args.out) / "comparison.json" if args.out else None
    print(_write_json(path, payload), end="")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser``, and so each of its subparsers, whose usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # once per process: a build costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="brpmarket",
        description="Demand-response market simulator under two-block rate pricing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each option that subcommands share, declared once
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True, help="scenario JSON file")
    gamma = argparse.ArgumentParser(add_help=False)
    gamma.add_argument("--gamma", type=float, default=None, help="step size; default 2/(min "
                       "alpha + 2*max alpha + 2*max(beta1 + beta2)*N)")
    stop = argparse.ArgumentParser(add_help=False)
    stop.add_argument("--tol", type=float, default=RunConfig.tol)
    stop.add_argument("--max-iter", type=int, default=RunConfig.max_iter)

    run = sub.add_parser("run", parents=[scenario, gamma, stop],
                         help="run the market loop to equilibrium")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", parents=[scenario, stop],
                           help="run the market across step sizes")
    sweep.add_argument("--gammas", required=True, type=_gammas,
                       help="comma-separated step sizes, e.g. 0.01,0.1,0.3")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", parents=[scenario, gamma],
                            help="certify the equilibrium against oracles")
    verify.add_argument("--max-iter", type=int, default=200000)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    demo = sub.add_parser("demo", parents=[gamma, stop],
                          help="run the built-in demo scenario")
    demo.add_argument("--out", default="demo_out")
    demo.set_defaults(func=cmd_run, scenario=str(DEMO_SCENARIO))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # before any solve: --out, or else its nearest existing ancestor, is a directory
        if args.out and not next(p for p in (Path(args.out), *Path(args.out).parents)
                                 if p.exists()).is_dir():
            return _fail(EXIT_BAD_INPUT,
                         f"--out {args.out!r} is not a directory and cannot become one")
        return globals()[args.func.__name__](args)  # as bound now: the parser is built once
    except OSError as exc:  # an output that could not be written
        return _fail(EXIT_BAD_INPUT, exc)


if __name__ == "__main__":
    sys.exit(main())
