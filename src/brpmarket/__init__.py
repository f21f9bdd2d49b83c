"""Competitive demand-response market under two-block rate pricing."""

from .model import (Allocation, BlockSchedule, CostParams, Customer, PriceSchedule, Scenario,
                    ScenarioError, cost_value, load_scenario, utility_gradient, utility_value,
                    validate_scenario)
from .pricing import block_prices
from .agent import project_band, recover_multipliers, step_profile, worst_kkt_residual
from .market import (DivergenceError, EquilibriumReport, IterationTrace, RunConfig,
                     default_step_size, run_market, social_welfare)
from .oracle import (ComparisonReport, OracleSolution, compare_equilibrium,
                     solve_welfare_centralized, welfare_optimum)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "BlockSchedule", "ComparisonReport", "CostParams", "Customer",
    "DivergenceError", "EquilibriumReport", "IterationTrace", "OracleSolution",
    "PriceSchedule", "RunConfig", "Scenario", "ScenarioError", "block_prices",
    "compare_equilibrium", "cost_value", "default_step_size", "load_scenario", "project_band",
    "recover_multipliers", "run_market", "social_welfare", "solve_welfare_centralized",
    "step_profile", "utility_gradient", "utility_value", "validate_scenario",
    "welfare_optimum", "worst_kkt_residual",
]
