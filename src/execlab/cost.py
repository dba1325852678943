"""Execution cost functionals: pathwise costs, Monte Carlo estimates, value formula.

The corrected cost charges gamma/2 times the squared size of *every* grid
trade, so the quadratic variation of a continuous trading path is priced in
the limit.  The uncorrected ("naive") cost charges the quadratic term only on
marked block trades and exists solely to reproduce the ill-posedness
constructions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .coefficients import (CoefficientModel, MarketPath, TimeGrid,
                           simulate_path, step_terms)
from .deviation import (DeviationPath, Strategy, _check_shared_grid,
                        deviation_path, naive_deviation_path)

# Bound on the path x grid-point values of one array in estimate_cost's
# chunks.  2^13 doubles are 64 KiB.  An optimal-plan cost keeps at most
# eleven arrays this size alive: six for the chunk being priced (w, gamma,
# positions, trades, pre-trade deviation and one temporary) and five of
# the chunk before, which the loop still holds.  So they stay under a
# megabyte, and blocks this size are reused from the heap instead of being
# paged in afresh for every chunk.  It bounds memory; it is not a speed
# knob.
CHUNK_ELEMENTS = 2**13


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo cost estimate across independent market paths."""

    mean: float
    std_error: float
    n_paths: int
    h: float
    seed: int | None = None
    model_hash: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {"mean": self.mean, "std_error": self.std_error,
             "n_paths": self.n_paths, "h": self.h, "seed": self.seed,
             "model_hash": self.model_hash},
            sort_keys=True)


@dataclass(frozen=True)
class ValueQuote:
    """Minimal expected cost V = (y/gamma)(d - gamma x)^2 - d^2/(2 gamma)."""

    v: float
    y_t: float
    gamma_t: float
    x: float
    d: float


def path_chunks(n_paths: int, grid: TimeGrid) -> Iterator[range]:
    """Ranges of path ids whose arrays hold at most CHUNK_ELEMENTS values."""
    chunk = max(1, CHUNK_ELEMENTS // (grid.n_steps + 1))
    return (range(lo, min(lo + chunk, n_paths))
            for lo in range(0, n_paths, chunk))


def _per_path(total: np.ndarray) -> float | np.ndarray:
    """A float for one path, an array with one cost per row for a chunk."""
    return float(total) if np.ndim(total) == 0 else total


def pathwise_cost(strategy: Strategy, deviation: DeviationPath,
                  market: MarketPath) -> float | np.ndarray:
    """Realized cost sum_k (D_pre_k + gamma_k/2 * xi_k) * xi_k on each path."""
    _check_shared_grid(strategy.grid, deviation.grid, market.grid)
    xi = strategy.trades
    charge = 0.5 * market.gamma
    charge *= xi
    charge += deviation.pre_trade
    charge *= xi
    return _per_path(np.sum(charge, axis=-1))


def pathwise_cost_naive(strategy: Strategy, deviation: DeviationPath,
                        market: MarketPath) -> float | np.ndarray:
    """Uncorrected cost: the gamma/2 * xi^2 charge applies to block trades only.

    For pure-jump (finite-variation) grid strategies every trade is a block,
    so this coincides with :func:`pathwise_cost` path by path.
    """
    _check_shared_grid(strategy.grid, deviation.grid, market.grid)
    xi = strategy.trades
    blocks = strategy.block_mask()
    linear = np.sum(deviation.pre_trade * xi, axis=-1)
    charge = market.gamma[..., blocks]  # the mask selects a copy
    charge *= xi[..., blocks] ** 2
    return _per_path(linear + 0.5 * np.sum(charge, axis=-1))


def chunk_runs(model: CoefficientModel, grid: TimeGrid, n_paths: int,
               seed: int, strategy_factory: Callable[[MarketPath], Strategy],
               d_pre: float = 0.0, naive_dynamics: bool = False
               ) -> Iterator[tuple[range, MarketPath, Strategy, DeviationPath]]:
    """The Monte Carlo chunk loop: ``(ids, market, strategy, deviation)``
    for each chunk of :func:`path_chunks`.

    Path i is always drawn from the stream ``(seed, i)``, so what a caller
    computes per path does not depend on the chunking.  The arrays that no
    path changes come from :func:`execlab.coefficients.step_terms`, so
    they are computed once per loop, not once per chunk.
    ``strategy_factory`` follows the contract of :func:`estimate_cost`;
    ``naive_dynamics`` selects :func:`naive_deviation_path`.
    """
    dev_fn = naive_deviation_path if naive_dynamics else deviation_path
    for ids in path_chunks(n_paths, grid):
        market = simulate_path(model, grid, seed, ids)
        strat = strategy_factory(market)
        yield ids, market, strat, dev_fn(model, market, strat, d_pre)


def _require_finite(what: str, *samples: np.ndarray) -> None:
    """Raise ArithmeticError naming the first path with a non-finite value."""
    finite = np.logical_and.reduce([np.isfinite(s) for s in samples])
    if not finite.all():
        raise ArithmeticError(f"path {int(np.argmin(finite))} gives a "
                              f"non-finite {what}")


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of a 1-D sample."""
    n = len(values)
    mean = float(np.sum(values) / n)  # numpy pairwise sum: reproducible
    var = float(np.sum((values - mean) ** 2) / (n - 1))
    return mean, float(np.sqrt(var / n))


def estimate_cost(model: CoefficientModel, grid: TimeGrid, n_paths: int,
                  seed: int,
                  strategy_factory: Callable[[MarketPath], Strategy],
                  d_pre: float = 0.0, naive: bool = False,
                  naive_dynamics: bool = False) -> CostEstimate:
    """Sample mean and standard error of pathwise costs over independent paths.

    ``naive`` switches the cost functional, ``naive_dynamics`` the deviation
    dynamics (no covariation term); both default to the corrected model.

    Paths are simulated by :func:`chunk_runs`, in chunks of at most
    ``CHUNK_ELEMENTS`` grid-point values per array.  ``strategy_factory``
    receives a :class:`MarketPath` whose arrays carry a leading path axis,
    and must return a :class:`Strategy` that broadcasts against it (1-D
    values are shared by every path); its block flags stay 1-D.

    Raises ``ArithmeticError`` naming the first path whose cost is not
    finite, such as one whose impact overflowed.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")
    costs = np.empty(n_paths)
    cost_fn = pathwise_cost_naive if naive else pathwise_cost
    for ids, market, strat, dev in chunk_runs(model, grid, n_paths, seed,
                                              strategy_factory, d_pre,
                                              naive_dynamics):
        costs[ids.start:ids.stop] = cost_fn(strat, dev, market)
    _require_finite("cost", costs)
    mean, std_error = _mean_se(costs)
    return CostEstimate(mean=mean, std_error=std_error, n_paths=n_paths,
                        h=grid.h, seed=seed, model_hash=model.content_hash())


@dataclass(frozen=True)
class AdmissibilityReport:
    """Monte Carlo estimates of the three admissibility integrals at t = 0.

    These are sample estimates of conditional expectations; finite sampling
    cannot certify admissibility, so this is a diagnostic, not a proof.
    """

    sup_moment: tuple[float, float]        # E[sup gamma^2 A^4]: (mean, stderr)
    impact_integral: tuple[float, float]   # E[(int gamma^2 A^4 sigma^2 dt)^(1/2)]
    deviation_integral: tuple[float, float]  # E[(int D^4 alpha^2 sigma^2 dt)^(1/2)]
    n_paths: int


def admissibility_diagnostics(model: CoefficientModel, grid: TimeGrid,
                              n_paths: int, seed: int,
                              strategy_factory: Callable[[MarketPath], Strategy],
                              d_pre: float = 0.0) -> AdmissibilityReport:
    """Estimate the admissibility integrals for a strategy family over paths.

    Runs the chunk loop of :func:`estimate_cost`, with the same arguments
    and the same strategy contract, on the corrected dynamics.  The
    integrals are left-endpoint sums on the grid, A being the impact state
    of the deviation.  Raises ``ArithmeticError`` naming the first path
    with an integral that is not finite.
    """
    if n_paths < 100:
        raise ValueError("admissibility diagnostics need at least 100 paths")
    sup, impact, dev_int = (np.empty(n_paths) for _ in range(3))
    sig2 = step_terms(model, grid).sigma ** 2
    for ids, market, _, dev in chunk_runs(model, grid, n_paths, seed,
                                          strategy_factory, d_pre):
        rows = slice(ids.start, ids.stop)
        g2a4 = market.gamma**2 * dev.impact_state**4
        sup[rows] = np.max(g2a4, axis=-1)
        impact[rows] = np.sqrt(np.sum(g2a4[..., :-1] * sig2, axis=-1) * grid.h)
        dev_int[rows] = np.sqrt(np.sum(dev.values[..., :-1] ** 4
                                       * market.alpha[..., :-1] ** 2 * sig2,
                                       axis=-1) * grid.h)
    _require_finite("admissibility integral", sup, impact, dev_int)
    return AdmissibilityReport(sup_moment=_mean_se(sup),
                               impact_integral=_mean_se(impact),
                               deviation_integral=_mean_se(dev_int),
                               n_paths=n_paths)


def _value(y_t, gamma_t, x, d):
    """V = (y/gamma)(d - gamma x)^2 - d^2/(2 gamma), elementwise."""
    return (y_t / gamma_t) * (d - gamma_t * x) ** 2 - d**2 / (2.0 * gamma_t)


def value_function(y_t: float, gamma_t: float, x: float, d: float) -> ValueQuote:
    """Closed-form minimal expected cost given the value factor y_t."""
    if gamma_t <= 0:
        raise ValueError("gamma_t must be positive")
    return ValueQuote(v=float(_value(y_t, gamma_t, x, d)), y_t=y_t,
                      gamma_t=gamma_t, x=x, d=d)


def quadratic_representation_rhs(model: CoefficientModel, value_solution,
                                 market: MarketPath, strategy: Strategy,
                                 deviation: DeviationPath,
                                 x: float, d: float) -> float | np.ndarray:
    """Pathwise right-hand side of the quadratic cost representation.

    Closed first part V(t, x, d) plus the left-endpoint Riemann sum of
    (1/gamma) (beta~ (gamma X - D) + D)^2 (sigma^2 Y + (2 rho + mu - sigma^2)/2).
    Averaged over paths this reproduces the expected cost of the strategy.
    Works over the last axis like :func:`pathwise_cost`: a float for one
    path, one value per row for a chunk.
    """
    _check_shared_grid(strategy.grid, market.grid, deviation.grid,
                       value_solution.grid)
    rho, mu, sig, *_ = step_terms(model, market.grid)
    h = strategy.grid.h
    y = value_solution.y[:-1]
    beta = value_solution.beta_tilde[:-1]
    gamma = market.gamma[..., :-1]
    gx = gamma * strategy.values[..., :-1]
    dv = deviation.values[..., :-1]
    integrand = (1.0 / gamma) * (beta * (gx - dv) + dv) ** 2 \
        * (sig**2 * y + 0.5 * (2.0 * rho + mu - sig**2))
    head = _value(value_solution.y[0], market.gamma[..., 0], x, d)
    return _per_path(head + np.sum(integrand, axis=-1) * h)


def closed_form_naive_brownian(gamma: float, rho: float, T: float,
                               nu: float) -> float:
    """Expected uncorrected cost of the scaled-Brownian round trip.

    Equals (gamma nu^2 / rho) (exp(-rho T) - 1 + rho T / 2); negative for all
    nu != 0 whenever rho in (0, 1/T).
    """
    if rho == 0.0:
        raise ValueError("rho = 0 not admitted by the closed form")
    return (gamma * nu**2 / rho) * (np.exp(-rho * T) - 1.0 + 0.5 * rho * T)


def closed_form_cost_gbm(gamma0: float, x: float, sigma: float, rho: float,
                         T: float, nu: float) -> float:
    """Expected cost of the geometric-Brownian strategy under naive deviation
    dynamics: (gamma0 x^2 / 2) (I1(nu) - I2(nu)).

    The displayed form has removable singularities at nu = 0, nu = -2 sigma
    and nu^2 + 2 sigma nu + rho = 0; those inputs are rejected.
    """
    if 2.0 * rho - sigma**2 <= 0.0:
        raise ValueError("requires 2 rho - sigma^2 > 0")
    a = nu**2 + 2.0 * sigma * nu
    b = a + rho
    if nu == 0.0 or nu == -2.0 * sigma:
        raise ValueError(f"nu = {nu} is a removable singularity of the "
                         "displayed formula; evaluate nearby instead")
    if b == 0.0:
        raise ValueError("nu^2 + 2 sigma nu + rho = 0 is a removable "
                         "singularity of the displayed formula")
    i1 = np.exp(a * T) * (nu**2 / a - 2.0 * nu**2 / b + 1.0)
    i2 = nu**2 / a - 2.0 * nu**2 * np.exp(-rho * T) / b
    return float(0.5 * gamma0 * x**2 * (i1 - i2))
