"""Optimal execution plans and the counterexample strategy families.

The optimal position path is a multiple of a stochastic exponential:
X* = (x - d/gamma_t) E(Q) (1 - beta) with a terminal block trade, and the
associated deviation is D* = (x - d/gamma_t) E(Q) (-gamma beta).  The drift
integral of Q is evaluated with an exact quadrature based on the identity
d(log y)/ds = beta (rho + mu) - mu, which keeps the deviation exactly
constant between block trades in the deterministic regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsde import ValueSolution
from .coefficients import (CoefficientModel, MarketPath, TimeGrid,
                           _accumulate0, _cumsum0, _empty, _require_finite,
                           build_model)
from .deviation import DeviationPath, Strategy, _check_market


@dataclass(frozen=True)
class OptimalPlan:
    """Optimal position/deviation pair on [t, T] for a market path or chunk.

    The plan lives on the grid of ``market`` and ``value_solution``, which
    starts at 0; ``start`` is the grid index of t, 0 for a plan from time 0.
    Rows before ``start`` hold the start state: the position ``x_star.x_pre``
    and, before the trade at ``start``, the deviation ``d``.  ``exp_q`` is
    the stochastic exponential of Q from ``start`` on, 1 up to it; ``beta``
    the cadlag feedback ratio and ``beta_pre`` its left limits, both read
    from ``value_solution``.  The value solution, which carries the model,
    the market and ``d`` are kept to rebuild the plan from an interior
    time.  Path arrays carry the market's leading path axis, if any;
    ``scale`` has one entry per path.

    The arrays that do not depend on the path, the block flags of a plan
    from 0 among them, are computed once per value solution, and every
    plan built from it shares them read-only.
    ``d_star`` is computed on first access, because a cost estimate needs
    only ``x_star``; it is the same array either way.
    """

    exp_q: np.ndarray
    x_star: Strategy
    scale: float | np.ndarray  # x - d/gamma_t
    value_solution: ValueSolution
    market: MarketPath
    d: float
    start: int

    @property
    def beta(self) -> np.ndarray:
        return self.value_solution.beta_tilde

    @property
    def beta_pre(self) -> np.ndarray:
        return self.value_solution.beta_pre

    @cached_property
    def d_star(self) -> DeviationPath:
        """D* = scale E(Q) (-gamma beta), flat-closed at T; D*(t-) = d,
        and d in the rows before the plan's start.

        Its values are this closed form, not the deviation recursion."""
        scale_col = np.expand_dims(self.scale, -1)
        gamma = self.market.gamma
        d_values = scale_col * self.exp_q * (-gamma * self.beta)
        d_values[..., -1] = self.scale * self.exp_q[..., -1] * (-gamma[..., -1])
        pre_trade = scale_col * self.exp_q * (-gamma * self.beta_pre)
        pre_trade[..., :self.start + 1] = self.d
        d_values[..., :self.start] = self.d
        return DeviationPath.explicit(pre_trade, d_values, self.x_star,
                                      self.market)


def optimal_plan(model: CoefficientModel, value_solution: ValueSolution,
                 market: MarketPath, t: float, x: float, d: float) -> OptimalPlan:
    """Construct the cost-minimizing plan started at (t, x, d).

    ``market`` is one path or a chunk of paths, drawn under ``model`` on
    the grid ``value_solution`` solves it on; ``t`` must be a grid point
    before T and x, d finite floats, or ValueError is raised.  The plan
    lives on that grid, from the index of t on (see :class:`OptimalPlan`).
    With zero resilience both solvers give y = 1/2 and a feedback ratio of
    exactly 1, so the plan closes the position immediately.  The arrays that
    do not depend on the path are computed once and kept on
    ``value_solution`` (see :class:`OptimalPlan`).  The path arrays are
    built in place.
    ``exp_q`` is the stochastic exponential of Q on the grid,
    exp_q[k] = exp(sum_{k0<=j<k} (dQ_j - d[Q]_j / 2)) with
    dQ = -beta sigma dW - integral of beta (mu + rho - sigma^2) ds and
    d[Q] = beta^2 sigma^2 h, k0 the index of t; exp_q[k] = 1 for k <= k0.
    """
    if value_solution.model != model:
        raise ValueError("the value solution solves another model")
    _check_market(market, model, value_solution.grid)
    _require_finite(x=x, d=d)
    k0 = market.grid.index_of(t)
    if k0 == market.grid.n_steps:
        raise ValueError(f"a plan needs a step before T: t = {t} is "
                         f"T = {market.grid.T}")
    pt = value_solution._plan_terms

    exp_q = _empty(market.gamma.shape)
    log_inc = exp_q[..., 1:]
    np.multiply(pt.neg_beta_sigma, market.w, out=log_inc)
    log_inc -= pt.drift
    log_inc -= pt.half_q_quadratic
    # no increment before t: exp_q is 1 up to k0, and from k0 on it sums
    # the increments from t in order, as a plan from time 0 sums its own
    log_inc[..., :k0] = 0.0
    _accumulate0(exp_q)
    np.exp(exp_q, out=exp_q)

    scale = x - d / market.gamma[..., k0]
    xs = _empty(exp_q.shape)
    np.multiply(scale[..., None], exp_q, out=xs)
    xs *= pt.one_minus_beta
    xs[..., :k0] = x
    xs[..., -1] = 0.0
    blocks = pt.blocks
    if k0 > 0:
        blocks = blocks.copy()
        blocks[k0] = True
    x_star = Strategy(grid=market.grid, x_pre=x, values=xs, is_block=blocks)
    return OptimalPlan(exp_q=exp_q, x_star=x_star, scale=scale,
                       value_solution=value_solution, market=market, d=d,
                       start=k0)


def immediate_close(grid: TimeGrid, t: float, x: float) -> Strategy:
    """Strategy that holds x until t, closes the whole position at t."""
    _require_finite(x=x)
    k = grid.index_of(t)
    values = np.zeros(grid.n_steps + 1)
    values[:k] = x
    blocks = np.zeros(grid.n_steps + 1, dtype=bool)
    blocks[k] = True
    blocks[-1] = True
    return Strategy(grid=grid, x_pre=x, values=values, is_block=blocks)


def counterexample_brownian(nu: float, market: MarketPath) -> Strategy:
    """Round trip riding a scaled Brownian motion, closed by a terminal block.

    X starts and ends flat: X_0 = 0, X_s = nu W_s in the interior, X_T = 0.
    The interior increments are samples of a continuous trading path, so
    only the terminal trade is a block.
    """
    _require_finite(nu=nu)
    grid = market.grid
    values = _cumsum0(market.w)
    values *= nu
    values[..., -1] = 0.0
    blocks = np.zeros(grid.n_steps + 1, dtype=bool)
    blocks[-1] = True
    return Strategy(grid=grid, x_pre=0.0, values=values, is_block=blocks)


def counterexample_gbm(nu: float, x: float, market: MarketPath) -> Strategy:
    """Geometric round trip driven by the market's own Brownian motion.

    X starts at x, follows exact geometric stepping exp(nu dW - nu^2 h / 2)
    in the interior, and is closed by a terminal block.  Its deviation must
    be computed with :func:`execlab.deviation.naive_deviation_path`: the
    construction exists to show that dropping the impact/strategy
    covariation makes the optimization ill-posed.
    """
    _require_finite(nu=nu, x=x)
    grid = market.grid
    values = _empty(market.w.shape[:-1] + (grid.n_steps + 1,))
    log_incr = values[..., 1:]
    np.multiply(nu, market.w, out=log_incr)
    log_incr -= 0.5 * nu**2 * grid.h
    _accumulate0(values)
    np.exp(values, out=values)
    values *= x
    values[..., -1] = 0.0
    blocks = np.zeros(grid.n_steps + 1, dtype=bool)
    blocks[-1] = True
    return Strategy(grid=grid, x_pre=x, values=values, is_block=blocks)


@dataclass(frozen=True)
class JumpExample:
    """Drift switching from 0 to 1 at t0 with constant positive resilience."""

    rho: float
    t0: float


def example_beta_path(example: JumpExample, T: float,
                      grid: TimeGrid) -> ValueSolution:
    """Closed-form value factor and feedback ratio of the drift-jump example.

    y follows the drifted branch after t0 and the constant-resilience
    hyperbola before it; the ratio jumps at t0 by y(t0)/(2 rho + 1).
    :func:`execlab.bsde.solve_y_deterministic` solves this model too.  This
    closed form stays as an oracle that shares no y or ratio code with it:
    the benchmark's ``value_solvers`` workload holds the two against each
    other.  Its inputs are refused as the model's and the grid's are.  The
    solution carries ``jump_example_model(rho, t0, T)``, gamma0 = 1.
    """
    if not isinstance(example, JumpExample):
        raise TypeError(f"unknown example spec: {example!r}")
    rho, t0 = example.rho, example.t0
    model = jump_example_model(rho, t0, T)
    k0, = grid.validate_model(model)
    s, k = grid.times, np.arange(grid.n_steps + 1)
    upper = (2.0 * rho + 1.0) / (2.0 * (rho + 1.0) ** 2
                                 - 2.0 * rho**2 * np.exp(s - T))
    y_t0 = (2.0 * rho + 1.0) / (2.0 * (rho + 1.0) ** 2
                                - 2.0 * rho**2 * math.exp(t0 - T))
    lower = 1.0 / (1.0 / y_t0 + (t0 - s) * rho)
    y = np.where(k >= k0, upper, lower)
    y[-1] = 0.5
    beta = np.where(k >= k0, y * (1.0 + 1.0 / (2.0 * rho + 1.0)), y)
    beta_pre = np.where(k > k0, y * (1.0 + 1.0 / (2.0 * rho + 1.0)), y)
    return ValueSolution(model, grid, y, beta_tilde=beta, beta_pre=beta_pre)


def jump_example_model(rho: float, t0: float, T: float,
                       gamma0: float = 1.0) -> CoefficientModel:
    """Deterministic model whose drift switches from 0 to 1 at t0."""
    return build_model(T, gamma0, [
        {"t_from": 0.0, "rho": rho, "mu": 0.0, "sigma": 0.0},
        {"t_from": t0, "rho": rho, "mu": 1.0, "sigma": 0.0},
    ])


def dynamic_consistency_check(plan: OptimalPlan, u: float) -> float:
    """Rebuild the plan of one path from its own state just before u, a
    grid point from the plan's start to before T; compare the tails.

    Returns the maximum relative discrepancy over grid points, across both
    the position and the deviation paths.  A plan on a chunk of paths
    raises ValueError: the rebuild starts from one path's state.
    """
    if plan.exp_q.ndim != 1:
        raise ValueError("dynamic_consistency_check takes the plan of one "
                         f"path, not a chunk of shape {plan.exp_q.shape}")
    k = plan.x_star.grid.index_of(u)
    if k < plan.start:
        raise ValueError(f"u = {u} is before the plan's start")
    if k == plan.start:
        return 0.0
    x_um = plan.scale * plan.exp_q[k] * (1.0 - plan.beta_pre[k])
    d_um = plan.d_star.pre_trade[k]
    vs = plan.value_solution
    replan = optimal_plan(vs.model, vs, plan.market, u, x_um, d_um)

    def rel(a, b):
        ref = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
        return np.max(np.abs(a - b)) / ref

    return float(max(rel(plan.x_star.values[k:], replan.x_star.values[k:]),
                     rel(plan.d_star.values[k:], replan.d_star.values[k:])))
