"""Numerical engine for optimal trade execution in a limit order book
with stochastic depth and resilience.

Submodules
----------
coefficients : market model (one piece table), impact-path simulation
deviation    : deviation dynamics and impact state for grid strategies
cost         : pathwise/Monte-Carlo costs, value formula, closed forms
bsde         : value-factor solvers (exact, RK4 check, discrete recursion)
strategy     : optimal plans, counterexample strategies, consistency checks
cli          : experiment runner, figure data, selftest
"""

from .bsde import (DiscreteValue, ValueSolution, discrete_value_recursion,
                   driver, ode_residual, solve_y_deterministic, solve_y_ode)
from .coefficients import (CoefficientModel, MarketPath, ModelError,
                           TimeGrid, build_model, constant_model,
                           model_from_config, simulate_path,
                           step_coefficients)
from .cost import (CostEstimate, ValueQuote, closed_form_cost_gbm,
                   closed_form_naive_brownian, estimate_cost, pathwise_cost,
                   pathwise_cost_naive, quadratic_representation_rhs,
                   value_function)
from .deviation import (DeviationPath, GridMismatch, Strategy, deviation_path,
                        naive_deviation_path)
from .strategy import (JumpExample, OptimalPlan, counterexample_brownian,
                       counterexample_gbm, dynamic_consistency_check,
                       example_beta_path, immediate_close,
                       jump_example_model, optimal_plan)

__version__ = "0.1.0"
