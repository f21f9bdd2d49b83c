"""Step-size study on the built-in demo scenario.

Larger step sizes (inside the stability region) reach the equilibrium in
fewer iterations; the equilibrium itself does not depend on the step size.
The last row is the default step, ``default_step_size``: the optimal step
of the linearized iteration.
Run with: python demos/step_size_sweep.py
"""

from brpmarket import RunConfig, default_step_size, run_market, validate_scenario
from brpmarket.cli import demo_scenario_document


def main() -> None:
    scenario = validate_scenario(demo_scenario_document())
    print(f"{'gamma':>8} {'iterations':>10} {'welfare':>12} "
          f"{'x (customer 0)':>14} {'x (customer 1)':>14}")
    default = default_step_size(scenario)
    for gamma in (0.01, 0.05, 0.1, 0.2, 0.3, default):
        report, _ = run_market(scenario, RunConfig(gamma=gamma, tol=1e-6))
        x = report.allocation.x
        mark = "  (default)" if gamma == default else ""
        print(f"{gamma:>8.4g} {report.iterations:>10} {report.welfare:>12.4f} "
              f"{x[0, 0]:>14.6f} {x[1, 0]:>14.6f}{mark}")


if __name__ == "__main__":
    main()
