"""Numerical engine for optimal trade execution in a limit order book
with stochastic depth and resilience.

Submodules
----------
coefficients : market model, impact-path simulation, stochastic exponentials
deviation    : deviation dynamics and impact state for grid strategies
cost         : pathwise/Monte-Carlo costs, value formula, closed forms
bsde         : value-factor solvers (closed forms, RK4, discrete recursion)
strategy     : optimal plans, counterexample strategies, consistency checks
cli          : experiment runner, figure data, selftest
"""

from .bsde import (DiscreteValue, ValueSolution, beta_tilde_at,
                   discrete_value_recursion, driver, lambert_w0,
                   ode_residual, solve_y_deterministic, solve_y_lambert,
                   solve_y_ode, solve_y_ow)
from .coefficients import (CoefficientModel, MarketPath, ModelError,
                           PiecewiseConstant, StepTerms, TimeGrid, build_model,
                           constant_model, iter_market_paths,
                           model_from_config, simulate_market, simulate_path,
                           stochastic_exponential)
from .cost import (CostEstimate, ValueQuote, closed_form_cost_gbm,
                   closed_form_naive_brownian, estimate_cost, pathwise_cost,
                   pathwise_cost_naive, quadratic_representation_rhs,
                   value_function)
from .deviation import (AdmissibilityReport, DeviationPath, GridMismatch,
                        Strategy, admissibility_diagnostics, deviation_path,
                        naive_deviation_path)
from .strategy import (JumpExample, NegResExample, OptimalPlan,
                       counterexample_brownian, counterexample_gbm,
                       dynamic_consistency_check, example_beta_path,
                       immediate_close, initial_block_classification,
                       jump_example_model, negres_example_model, optimal_plan)

__version__ = "0.1.0"
