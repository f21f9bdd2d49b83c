"""Certify a distributed equilibrium against two independent oracles.

Runs the market loop to a tight tolerance, then checks the result against
(1) the centralized equilibrium solver, which finds the slot demands at which
every customer's exact best response to the marginal-cost prices adds up to
them, and (2) the exact welfare optimum (the instance is small enough), whose
welfare the equilibrium falls short of by the efficiency gap.
Run with: python demos/certify_equilibrium.py
"""

from brpmarket import (
    RunConfig,
    compare_equilibrium,
    default_step_size,
    run_market,
    solve_welfare_centralized,
    validate_scenario,
    welfare_optimum,
)
from brpmarket.cli import demo_scenario_document


def main() -> None:
    scenario = validate_scenario(demo_scenario_document())
    gamma = default_step_size(scenario)

    report, _ = run_market(scenario, RunConfig(gamma=gamma, tol=1e-10))
    print(f"distributed run: {report.iterations} iterations, "
          f"welfare {report.welfare:.6f}, "
          f"worst equilibrium residual {report.worst_kkt_residual:.2e}")

    central = solve_welfare_centralized(scenario)
    cmp = compare_equilibrium(scenario, report, central)
    print(f"vs centralized equilibrium: demand gap {cmp.demand_gap:.2e}, "
          f"welfare gap {cmp.welfare_gap:.2e}, pass={cmp.passed}")

    optimum = welfare_optimum(scenario)
    print(f"exact welfare optimum {optimum.welfare!r} at "
          f"x = {optimum.allocation.x.ravel()}; efficiency gap "
          f"{optimum.welfare - report.welfare:.6f}")
    if compare_equilibrium(scenario, report, optimum).boundary_degenerate:
        print("note: the welfare optimum sits on the cost-segment "
              "boundary D = b*N, where marginal-cost pricing is undefined; "
              "the equilibrium welfare is a lower bound on it")


if __name__ == "__main__":
    main()
