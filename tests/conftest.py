import numpy as np
import pytest

from brpmarket import Scenario, validate_scenario
from brpmarket.cli import demo_scenario_document

# the demo's exact equilibrium x, on which the market finishes at every step it converges at
DEMO_EQUILIBRIUM = [[13.125], [33.75]]


@pytest.fixture(scope="session")
def demo_scenario() -> Scenario:
    return validate_scenario(demo_scenario_document())


def make_scenario(num_slots, customers, b, beta1, beta2) -> Scenario:
    """Build a validated scenario from terse per-customer dicts."""
    return validate_scenario({
        "num_slots": num_slots,
        "customers": customers,
        "blocks": {"b": b},
        "cost": {"beta1": beta1, "beta2": beta2},
    })


def single_customer_scenario(w=40.0, alpha=1.0, beta=1.0, b=25.0,
                             d_min=0.0, d_max=100.0, num_slots=1) -> Scenario:
    return make_scenario(num_slots,
                         [{"id": 0, "w": w, "alpha": alpha,
                           "d_min": d_min, "d_max": d_max}],
                         b=b, beta1=beta, beta2=beta)


def random_scenario(rng: np.random.Generator) -> Scenario:
    """A scenario with parameters in the ranges of the worked example.

    Daily energy bands either stay slack or bind; willingness is drawn per
    slot around the block threshold b = 25, so a binding band meets customers
    whose slots lie on both sides of b.
    """
    n = int(rng.integers(1, 6))
    t = int(rng.integers(1, 5))
    beta1 = float(rng.uniform(0.2, 0.8))
    beta2 = beta1 * float(rng.uniform(1.05, 1.5))
    band_mode = rng.choice(["slack", "d_max", "d_min"])
    customers = []
    for i in range(n):
        w = rng.uniform(10.0, 100.0, size=t).tolist()
        d_min, d_max = 0.0, 1000.0
        if band_mode == "d_max":
            d_max = float(rng.uniform(2.0, 40.0)) * t
        elif band_mode == "d_min":
            d_min = float(rng.uniform(0.005, 0.9)) * sum(w)
        customers.append({"id": i, "w": w, "alpha": 1.0,
                          "d_min": d_min, "d_max": d_max})
    return make_scenario(t, customers, b=25.0, beta1=beta1, beta2=beta2)
