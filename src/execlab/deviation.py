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

from .coefficients import (CoefficientModel, MarketPath, TimeGrid,
                           _empty, _require_finite, _resilience)


class GridMismatch(ValueError):
    """Strategy, deviation, market and value solution must share one grid."""


@dataclass(frozen=True)
class Strategy:
    """Grid-sampled cadlag execution strategy.

    ``values[k]`` is the position right after trading at grid point k; the
    pre-initial position is ``x_pre`` and the terminal value must be 0.
    ``is_block`` is a boolean array with one flag per grid point:
    ``is_block[k]`` marks a grid trade that is a genuine block trade (a
    jump); an unmarked trade is a sample of a continuous trading path.  The
    flags matter for the uncorrected cost and deviation only.

    ``values`` may carry leading path axes (one row per path of a market
    chunk); ``x_pre`` and ``is_block`` are shared by all rows, so the block
    flags stay 1-D.
    """

    grid: TimeGrid
    x_pre: float
    values: np.ndarray
    is_block: np.ndarray

    def __post_init__(self):
        _require_finite(x_pre=self.x_pre)
        n_points = self.grid.n_steps + 1
        values = np.asarray(self.values)
        if values.shape[-1:] != (n_points,):
            raise GridMismatch("strategy values must cover every grid point")
        if values[..., -1].any():
            raise ValueError("terminal position must be 0 (liquidation constraint)")
        # integer 0/1 flags would index the arrays they are meant to mask
        if not (isinstance(self.is_block, np.ndarray)
                and self.is_block.dtype == bool):
            raise ValueError("is_block must be a boolean array")
        if self.is_block.shape != (n_points,):
            raise GridMismatch("block flags must cover every grid point")

    @cached_property
    def trades(self) -> np.ndarray:
        """Trade sizes xi_k = X_k - X_{k-1}, with X_{-1} = x_pre.

        Computed on first access and kept read-only: the deviation and the
        cost of a strategy both read it.
        """
        x = np.asarray(self.values)
        xi = _empty(x.shape)
        xi[..., 0] = x[..., 0] - self.x_pre
        np.subtract(x[..., 1:], x[..., :-1], out=xi[..., 1:])
        xi.flags.writeable = False
        return xi


@dataclass(frozen=True)
class DeviationPath:
    """Deviation along a strategy: values after and before each grid trade.

    It lives on ``strategy.grid``, which must be the market's grid.  The
    arrays carry the leading path axis of the market or strategy, if any.
    Only ``pre_trade`` is built with the path: a cost needs nothing else.
    Its first entry is the deviation before the first trade.
    ``values`` and ``impact_state`` are computed on first access from the
    strategy, the market and the impact level ``gamma_eff`` each trade was
    charged at, unless :meth:`explicit` gave the values.
    """

    pre_trade: np.ndarray     # deviation right before the trade at grid point k
    strategy: Strategy
    market: MarketPath
    gamma_eff: np.ndarray     # impact level each trade is charged at

    def __post_init__(self):
        _check_market(self.market, self.market.model, self.strategy.grid)

    @classmethod
    def explicit(cls, pre_trade: np.ndarray, values: np.ndarray,
                 strategy: Strategy, market: MarketPath) -> "DeviationPath":
        """A deviation whose values are given, such as a closed form."""
        dev = cls(pre_trade=pre_trade, strategy=strategy, market=market,
                  gamma_eff=market.gamma)
        dev.__dict__["values"] = values  # pre-fills the cached property
        return dev

    @cached_property
    def values(self) -> np.ndarray:
        """Deviation right after the trade at grid point k."""
        return self.pre_trade + self.gamma_eff * self.strategy.trades

    @cached_property
    def impact_state(self) -> np.ndarray:
        """A_k = X_k - alpha_k * D_k."""
        return self.strategy.values - self.market.alpha * self.values


def _check_market(market: MarketPath, model: CoefficientModel,
                  *grids: TimeGrid) -> None:
    """The one market check: grids (GridMismatch) and model (ValueError)."""
    if any(g is not market.grid and g != market.grid for g in grids):
        raise GridMismatch("operands are defined on different grids")
    if model is not market.model and model != market.model:
        raise ValueError("the market was drawn under another model")


def _deviation(model: CoefficientModel, market: MarketPath, strategy: Strategy,
               d_pre: float, naive: bool,
               resilience: tuple | None = None) -> DeviationPath:
    """Deviation when the trade at grid point k is charged at gamma_eff_k.

    Between grid points the deviation decays by the exact factor
    exp(-integral of rho); at grid point k it jumps by gamma_eff_k * xi_k.
    gamma_eff is gamma itself, or with ``naive`` the previous grid point's
    gamma on trades that are not block trades.  The resilience factors
    exp(r) and exp(-r) do not depend on the path: a pass hands down the
    model's pair on the grid in ``resilience``.  Without it the pair is
    built here, and exp(r) is dropped once the running sum is formed.
    """
    _check_market(market, model, strategy.grid)
    _require_finite(d_pre=d_pre)
    growth, decay = (_resilience(model, strategy.grid) if resilience is None
                     else resilience)
    gamma = gamma_eff = market.gamma
    if naive:
        # the previous point's gamma, then the current one in the block
        # columns: a shifted copy and a gather, where one copy masked by
        # the flags took about 3.5 times as long per element
        gamma_eff = _empty(gamma.shape)
        gamma_eff[..., 0] = gamma[..., 0]
        gamma_eff[..., 1:] = gamma[..., :-1]
        blocks = np.flatnonzero(strategy.is_block)
        gamma_eff[..., blocks] = gamma[..., blocks]
    # the shape of the chunk, also when the strategy is one shared row
    cum = _empty(gamma_eff.shape)
    np.multiply(gamma_eff, growth, out=cum)
    cum *= strategy.trades
    del growth   # exp(r) is read no more: one built here goes now
    np.add.accumulate(cum, axis=-1, out=cum)
    cum += d_pre
    pre_trade = _empty(cum.shape)
    pre_trade[..., 0] = d_pre
    np.multiply(decay[1:], cum[..., :-1], out=pre_trade[..., 1:])
    return DeviationPath(pre_trade=pre_trade, strategy=strategy,
                         market=market, gamma_eff=gamma_eff)


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

