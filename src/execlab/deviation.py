"""Deviation dynamics for grid strategies.

The price deviation D decays at rate rho between trades and jumps by
gamma * (trade size) at a trade.  The recursion used here is the discrete
scheme whose continuous limit carries the impact/strategy covariation term,
because each trade is charged at the *current* impact level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import CoefficientModel, MarketPath, TimeGrid, step_terms


class GridMismatch(ValueError):
    """Strategy, deviation and market must share one grid."""


@dataclass(frozen=True)
class Strategy:
    """Grid-sampled cadlag execution strategy.

    ``values[k]`` is the position right after trading at grid point k; the
    pre-initial position is ``x_pre`` and the terminal value must be 0.
    ``is_block[k]`` marks grid trades that are genuine block trades (jumps);
    unmarked trades are samples of a continuous trading path.  The flag only
    matters for the uncorrected cost functional.

    ``values`` may carry leading path axes (one row per path of a market
    chunk); ``x_pre`` and ``is_block`` are shared by all rows, so the block
    flags stay 1-D.
    """

    grid: TimeGrid
    x_pre: float
    values: np.ndarray
    is_block: np.ndarray | None = None

    def __post_init__(self):
        n_points = self.grid.n_steps + 1
        values = np.asarray(self.values)
        if values.shape[-1:] != (n_points,):
            raise GridMismatch("strategy values must cover every grid point")
        if np.any(values[..., -1] != 0.0):
            raise ValueError("terminal position must be 0 (liquidation constraint)")
        if self.is_block is not None and np.shape(self.is_block) != (n_points,):
            raise GridMismatch("block flags must cover every grid point")

    @cached_property
    def trades(self) -> np.ndarray:
        """Trade sizes xi_k = X_k - X_{k-1}, with X_{-1} = x_pre.

        Computed on first access and kept read-only: the deviation and the
        cost of a strategy both read it.
        """
        xi = np.diff(self.values, prepend=self.x_pre)
        xi.flags.writeable = False
        return xi

    def block_mask(self) -> np.ndarray:
        if self.is_block is None:
            return np.ones(self.grid.n_steps + 1, dtype=bool)
        return self.is_block


@dataclass(frozen=True)
class DeviationPath:
    """Deviation along a strategy: values after and before each grid trade.

    The arrays carry the leading path axis of the market or strategy, if any.
    """

    grid: TimeGrid
    d_pre: float
    values: np.ndarray        # deviation right after the trade at grid point k
    pre_trade: np.ndarray     # deviation right before the trade at grid point k
    impact_state: np.ndarray  # A_k = X_k - alpha_k * D_k


def _check_shared_grid(*grids: TimeGrid) -> None:
    g0 = grids[0]
    for g in grids[1:]:
        if g != g0:
            raise GridMismatch("operands are defined on different grids")


def _deviation(model: CoefficientModel, market: MarketPath, strategy: Strategy,
               d_pre: float, naive: bool) -> DeviationPath:
    """Deviation when the trade at grid point k is charged at gamma_eff_k.

    Between grid points the deviation decays by the exact factor
    exp(-integral of rho); at grid point k it jumps by gamma_eff_k * xi_k.
    gamma_eff is gamma itself, or with ``naive`` the previous grid point's
    gamma on trades that are not block trades.  The resilience factors do
    not depend on the path: they come from :func:`step_terms`.
    """
    _check_shared_grid(market.grid, strategy.grid)
    grid = strategy.grid
    gamma_eff = market.gamma
    if naive:
        gamma_left = np.concatenate((gamma_eff[..., :1], gamma_eff[..., :-1]),
                                    axis=-1)
        gamma_eff = np.where(strategy.block_mask(), gamma_eff, gamma_left)
    terms = step_terms(model, grid)
    xi = strategy.trades
    cum = d_pre + np.cumsum(gamma_eff * terms.growth * xi, axis=-1)
    pre_trade = np.empty_like(cum)
    pre_trade[..., 0] = d_pre
    pre_trade[..., 1:] = terms.decay[1:] * cum[..., :-1]
    values = pre_trade + gamma_eff * xi
    impact_state = strategy.values - market.alpha * values
    return DeviationPath(grid=grid, d_pre=d_pre, values=values,
                         pre_trade=pre_trade, impact_state=impact_state)


def deviation_path(model: CoefficientModel, market: MarketPath,
                   strategy: Strategy, d_pre: float = 0.0) -> DeviationPath:
    """Deviation process of a grid strategy, for one path or a chunk.

    Every trade is charged at the current impact level gamma_k.
    """
    return _deviation(model, market, strategy, d_pre, naive=False)


def naive_deviation_path(model: CoefficientModel, market: MarketPath,
                         strategy: Strategy, d_pre: float = 0.0) -> DeviationPath:
    """Deviation under the uncorrected dynamics dD = -rho D dt + gamma dX.

    Trades that are not block trades are treated as increments of a continuous
    trading path and charged at the impact level of the *previous* grid point
    (Ito convention), so no covariation term appears in the limit.  Only used
    to reproduce the geometric-Brownian ill-posedness construction.
    """
    return _deviation(model, market, strategy, d_pre, naive=True)

