"""Build a scenario in code: two slots, a binding daily energy cap.

Shows scalar-vs-per-slot parameter broadcast, a customer whose daily
energy cap binds, and recovery of the cap's shadow price.
Run with: python demos/custom_scenario.py
"""

import numpy as np

from brpmarket import (
    RunConfig,
    recover_multipliers,
    run_market,
    validate_scenario,
)


def main() -> None:
    scenario = validate_scenario({
        "num_slots": 2,
        "customers": [
            # per-slot willingness, generous daily band
            {"id": 0, "w": [60.0, 90.0], "alpha": 1.0,
             "d_min": 0.0, "d_max": 1000.0},
            # scalar willingness broadcast to both slots, tight daily cap
            {"id": 1, "w": 80.0, "alpha": 1.0, "d_min": 0.0, "d_max": 30.0},
        ],
        "blocks": {"b": 60.0},
        "cost": {"beta1": 0.5, "beta2": 0.6},
    })

    report, _ = run_market(scenario, RunConfig(gamma=0.1, tol=1e-9))
    print(f"converged in {report.iterations} iterations, "
          f"welfare {report.welfare:.4f}")
    print("prices p_l:", np.round(report.prices.p_l, 4))
    print("prices p_u:", np.round(report.prices.p_u, 4))
    for cid, x, d_min, d_max in zip(scenario.ids.tolist(), report.allocation.x,
                                    scenario.d_min.tolist(), scenario.d_max.tolist()):
        print(f"customer {cid}: x = {np.round(x, 4)}, "
              f"daily total {x.sum():.4f} "
              f"(band [{d_min}, {d_max}])")

    mult = recover_multipliers(scenario, report.allocation, report.prices)
    print(f"shadow price of customer 1's daily cap: {mult[1]:.4f}")


if __name__ == "__main__":
    main()
