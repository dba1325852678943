"""Execution cost functionals: pathwise costs, Monte Carlo estimates, value formula.

The corrected cost charges gamma/2 times the squared size of *every* grid
trade, so the quadratic variation of a continuous trading path is priced in
the limit.  The uncorrected ("naive") cost charges the quadratic term only on
marked block trades and exists solely to reproduce the ill-posedness
constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .coefficients import (CoefficientModel, MarketPath, TimeGrid,
                           _chunk_pool, _empty, _increments, _market,
                           _piece_steps, _require_finite, step_terms)
from .deviation import DeviationPath, Strategy, _check_market, _deviation

# Bound on the path x grid-point values of one array in a chunk of
# sample_paths.  2^15 doubles are 256 KiB: 3 paths at 10^4 steps, 16 at
# 2 000, 32 at 1 000.  A chunk keeps alive its w, one gamma per model (and
# 1/gamma once an entry reads it), and the arrays of the one entry being
# priced: an optimal-plan cost has positions, trades, pre-trade deviation
# and one temporary, six arrays with w and gamma.  Each chunk writes into
# the arrays of the chunk before (coefficients._ChunkPool), so a pass holds
# about that many, 1.5 MB.  Fewer chunks pay the fixed Python and numpy
# cost of a chunk less often.  The bound was 2^13 while every chunk freed
# its arrays: glibc returns a freed array that large to the system, so the
# next chunk faulted it in again.  Without the pool, one pass of the
# criterion-3 plan over 1 000 paths at 10^4 steps took 0 minor faults at
# 2^13, 48 000 at 2^15 and 131 000 at 2^16, and was slower at both sizes;
# with it, 281 at 2^15.  2^16 was a few per cent faster again, but raised
# the peak RSS of a pass by about 4 MB against 1 MB.
CHUNK_ELEMENTS = 2**15


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo cost estimate across independent market paths."""

    mean: float
    std_error: float
    n_paths: int
    h: float
    seed: int
    model_hash: str

    @classmethod
    def from_costs(cls, costs: np.ndarray, grid: TimeGrid, seed: int,
                   model: CoefficientModel) -> "CostEstimate":
        """Sample mean and standard error of the per-path ``costs`` of
        ``model`` on ``grid``; they need at least 2 paths."""
        if len(costs) < 2:
            raise ValueError("need at least 2 paths for a standard error")
        mean, std_error = _mean_se(costs)
        return cls(mean=mean, std_error=std_error, n_paths=len(costs),
                   h=grid.h, seed=seed, model_hash=model.content_hash())


@dataclass(frozen=True)
class ValueQuote:
    """Minimal expected cost V = (y/gamma)(d - gamma x)^2 - d^2/(2 gamma)."""

    v: float


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
    """Realized cost sum_k (D_pre_k + gamma_k/2 * xi_k) * xi_k on each path,
    of the deviation's own strategy and market; any other raises ValueError."""
    if strategy is not deviation.strategy or market is not deviation.market:
        raise ValueError("a cost prices its deviation's strategy and market")
    xi = strategy.trades
    charge = _empty(market.gamma.shape)
    np.multiply(0.5, market.gamma, out=charge)
    charge *= xi
    charge += deviation.pre_trade
    charge *= xi
    return _per_path(np.add.reduce(charge, axis=-1))


def pathwise_cost_naive(strategy: Strategy, deviation: DeviationPath,
                        market: MarketPath) -> float | np.ndarray:
    """Uncorrected cost: the gamma/2 * xi^2 charge applies to block trades only.

    For pure-jump (finite-variation) grid strategies every trade is a block,
    so this coincides with :func:`pathwise_cost` path by path.  Like it,
    it prices only the deviation's own strategy and market.
    """
    if strategy is not deviation.strategy or market is not deviation.market:
        raise ValueError("a cost prices its deviation's strategy and market")
    xi = strategy.trades
    blocks = strategy.is_block
    products = _empty(np.broadcast_shapes(deviation.pre_trade.shape,
                                          xi.shape))
    np.multiply(deviation.pre_trade, xi, out=products)
    linear = np.add.reduce(products, axis=-1)
    charge = market.gamma[..., blocks]  # the mask selects a copy
    charge *= xi[..., blocks] ** 2
    return _per_path(linear + 0.5 * np.add.reduce(charge, axis=-1))


class Pricing(NamedTuple):
    """One entry of :func:`sample_paths`: what it prices on the paths.

    ``strategy_factory`` follows the contract of :func:`estimate_cost`.
    ``price(strategy, deviation, market)`` returns one value per path of
    the chunk, or a tuple of such values.  The deviation starts from
    ``d_pre``; ``naive_dynamics`` selects the dynamics of
    :func:`naive_deviation_path`.
    """

    model: CoefficientModel
    strategy_factory: Callable[[MarketPath], Strategy]
    price: Callable[[Strategy, DeviationPath, MarketPath], object]
    d_pre: float = 0.0
    naive_dynamics: bool = False


def sample_paths(grid: TimeGrid, n_paths: int, seed: int,
                 pricings: Sequence[Pricing]) -> list[np.ndarray]:
    """Per-path samples of every entry of ``pricings`` on the same paths:
    for each entry, one row per value its ``price`` returns and one column
    per path.

    Builds the :func:`step_terms` of each distinct model once and drops
    them on return; every market and deviation of the model reads them.
    Walks the chunks of :func:`path_chunks` one at a time.  A chunk's
    Brownian increments are drawn once and shared, read-only, by every
    entry; one market is built from them per distinct model, and the
    entries are priced on it in turn.  The chunk is dropped before the next
    is drawn, and the next chunk reuses the memory of its arrays where
    nothing else holds them, so a factory or a ``price`` may keep what it is
    handed.  Path i is always drawn from the stream ``(seed, i)``, so the
    samples depend neither on the chunking nor on the other entries.
    Raises ``ValueError`` for fewer than one path or no entry, and
    ``ArithmeticError`` naming the entry and the first path with a
    non-finite value.
    """
    if n_paths < 1:
        raise ValueError(f"need at least 1 path: {n_paths}")
    if not pricings:
        raise ValueError("need at least one pricing")
    # the distinct models, and each entry's index among them: compared
    # once here, not hashed per chunk
    models = list(dict.fromkeys(p.model for p in pricings))
    slots = [models.index(p.model) for p in pricings]
    samples = [None] * len(pricings)
    # built before the pool: it would keep their one-row temporaries
    terms = [step_terms(model, grid) for model in models]
    # every chunk-shaped array of the pass comes from one pool (see
    # coefficients._ChunkPool): a chunk reuses the memory of the one before
    with _chunk_pool(grid.n_steps):
        for ids in path_chunks(n_paths, grid):
            dw = _increments(grid, seed, ids)
            markets = [_market(model, grid, dw, model_terms)
                       for model, model_terms in zip(models, terms)]
            for k, p in enumerate(pricings):
                market = markets[slots[k]]
                strat = p.strategy_factory(market)
                rows = np.atleast_2d(p.price(strat, _deviation(
                    p.model, market, strat, p.d_pre, p.naive_dynamics,
                    terms[slots[k]]), market))
                del strat  # priced: its arrays are free for the next entry
                if samples[k] is None:
                    samples[k] = np.empty((len(rows), n_paths))
                samples[k][:, ids.start:ids.stop] = rows
            del dw, markets, market  # free for the next chunk
    for k, values in enumerate(samples):
        finite = np.isfinite(values).all(axis=0)
        if not finite.all():
            raise ArithmeticError(f"path {int(np.argmin(finite))} of entry "
                                  f"{k} gives a non-finite value")
    return samples


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

    The costs are sampled by :func:`sample_paths`, in chunks of at most
    ``CHUNK_ELEMENTS`` grid-point values per array.  ``strategy_factory``
    receives a :class:`MarketPath` whose arrays carry a leading path axis,
    and must return a :class:`Strategy` that broadcasts against it (1-D
    values are shared by every path); its block flags stay 1-D.

    Raises ``ValueError`` for fewer than 2 paths, and ``ArithmeticError``
    naming the first path whose cost is not finite, such as one whose
    impact overflowed.
    """
    costs, = sample_paths(grid, n_paths, seed, [Pricing(
        model, strategy_factory,
        pathwise_cost_naive if naive else pathwise_cost, d_pre,
        naive_dynamics)])
    return CostEstimate.from_costs(costs[0], grid, seed, model)


def _value(y_t, gamma_t, x, d):
    """V = (y/gamma)(d - gamma x)^2 - d^2/(2 gamma), elementwise."""
    return (y_t / gamma_t) * (d - gamma_t * x) ** 2 - d**2 / (2.0 * gamma_t)


def value_function(y_t: float, gamma_t: float, x: float, d: float) -> ValueQuote:
    """Closed-form minimal expected cost given the value factor y_t.  An
    input that is not a finite float, or gamma_t <= 0, raises ValueError."""
    _require_finite(y_t=y_t, gamma_t=gamma_t, x=x, d=d)
    if gamma_t <= 0:
        raise ValueError("gamma_t must be positive")
    return ValueQuote(v=float(_value(y_t, gamma_t, x, d)))


def quadratic_representation_rhs(value_solution,
                                 deviation: DeviationPath) -> float | np.ndarray:
    """Pathwise right-hand side of the quadratic cost representation.

    Closed first part V(0, x, d), x the position and d the deviation
    before the first trade, plus the left-endpoint Riemann sum of
    (1/gamma) (beta~ (gamma X - D) + D)^2 (sigma^2 Y + (2 rho + mu - sigma^2)/2)
    along the deviation's strategy X and market, which must be drawn under
    the value solution's model on its grid (else GridMismatch or ValueError
    is raised).  Averaged over paths this reproduces the expected cost of
    the strategy.  Works over the last axis like :func:`pathwise_cost`: a
    float for one path, one value per row for a chunk.  Besides the
    integrand it allocates one scratch array of the market's shape, for
    1/gamma and then the last factor, which it forms from each piece's own
    coefficients: it reads no ``market.alpha`` and no per-step table.
    """
    strategy, market = deviation.strategy, deviation.market
    _check_market(market, value_solution.model, value_solution.grid)
    model, h = value_solution.model, strategy.grid.h
    y = value_solution.y[:-1]
    dv = deviation.values[..., :-1]
    # built in place, one full-size array: gamma X, then the formula's steps
    gamma, x_values = market.gamma[..., :-1], strategy.values[..., :-1]
    integrand = _empty(np.broadcast_shapes(gamma.shape, x_values.shape))
    np.multiply(gamma, x_values, out=integrand)
    integrand -= dv
    integrand *= value_solution.beta_tilde[:-1]
    integrand += dv
    integrand **= 2
    # one scratch array: 1/gamma, then in its first row the last factor,
    # formed from each piece's own values in the per-step formula's order
    scratch = _empty(gamma.shape)
    np.divide(1.0, gamma, out=scratch)
    integrand *= scratch
    factor = scratch.reshape(-1, scratch.shape[-1])[0]
    for steps, rho, mu, sig in zip(_piece_steps(model, market.grid),
                                   model.rho, model.mu, model.sigma):
        sig2 = sig * sig   # what sig**2 computes for an array
        np.multiply(sig2, y[steps], out=factor[steps])
        factor[steps] += 0.5 * (2.0 * rho + mu - sig2)
    integrand *= factor
    head = _value(value_solution.y[0], market.gamma[..., 0], strategy.x_pre,
                  deviation.pre_trade[..., 0])
    return _per_path(head + np.add.reduce(integrand, axis=-1) * h)


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
