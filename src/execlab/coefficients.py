"""Market model: piecewise-constant coefficients, impact paths, stochastic exponentials.

The price impact factor gamma follows dgamma = gamma * (mu dt + sigma dW) and is
stepped by exact lognormal increments, so the only discretization error in the
engine comes from the trading scheme, never from gamma itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np


class ModelError(ValueError):
    """Raised for invalid market model specifications."""


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous piecewise-constant function of time on [0, T].

    ``breaks[i]`` is the left endpoint of piece ``i``; ``breaks[0]`` must be 0.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.values) or not self.breaks:
            raise ModelError("breaks and values must be non-empty and equal length")
        if self.breaks[0] != 0.0:
            raise ModelError("first breakpoint must be 0")
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ModelError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(self.breaks))
                and np.all(np.isfinite(self.values))):
            raise ModelError("breakpoints and values must be finite")

    @staticmethod
    def constant(value: float) -> "PiecewiseConstant":
        return PiecewiseConstant((0.0,), (float(value),))

    def __call__(self, t: float) -> float:
        if len(self.values) == 1:  # constant: the solvers' per-step hot path
            return self.values[0]
        # right-continuous: value on [breaks[i], breaks[i+1])
        i = int(np.searchsorted(self.breaks, t, side="right") - 1)
        return self.values[i]

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b] (a <= b)."""
        if b < a:
            raise ValueError("integration bounds out of order")
        total = 0.0
        edges = list(self.breaks) + [np.inf]
        for i, v in enumerate(self.values):
            lo = max(a, edges[i])
            hi = min(b, edges[i + 1])
            if hi > lo:
                total += v * (hi - lo)
        return total

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Values at ``times`` (any shape, all >= 0)."""
        times = np.asarray(times)
        out = np.full(times.shape, self.values[0], dtype=float)
        for b, v in zip(self.breaks[1:], self.values[1:]):
            out[times >= b] = v
        return out


@dataclass(frozen=True)
class CoefficientModel:
    """Exogenous market inputs: horizon, initial impact and resilience/drift/vol."""

    T: float
    gamma0: float
    rho: PiecewiseConstant
    mu: PiecewiseConstant
    sigma: PiecewiseConstant

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ModelError("horizon T must be finite and positive")
        if not (np.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ModelError("gamma0 must be finite and positive")
        if self.epsilon <= 0.0:
            raise ModelError(
                "model violates the positivity condition: "
                "2*rho + mu - sigma^2 <= 0 on some piece"
            )

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = sorted(set(self.rho.breaks) | set(self.mu.breaks) | set(self.sigma.breaks))
        return tuple(p for p in pts if 0.0 < p < self.T)

    @property
    def epsilon(self) -> float:
        """Attained minimum of 2*rho + mu - sigma^2 over the pieces; the
        positivity condition is epsilon > 0."""
        pts = [0.0] + list(self.breakpoints)
        return min(2.0 * self.rho(t) + self.mu(t) - self.sigma(t) ** 2
                   for t in pts)

    def is_deterministic_impact(self) -> bool:
        return all(v == 0.0 for v in self.sigma.values)

    def to_dict(self) -> dict:
        pts = [0.0] + list(self.breakpoints)
        pieces = [
            {"t_from": t, "rho": self.rho(t), "mu": self.mu(t), "sigma": self.sigma(t)}
            for t in pts
        ]
        return {"T": self.T, "gamma0": self.gamma0, "pieces": pieces}

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def build_model(
    T: float,
    gamma0: float,
    pieces: Sequence[dict],
) -> CoefficientModel:
    """Build and validate a market model from coefficient pieces.

    Parameters
    ----------
    T, gamma0 : horizon and initial impact level, both positive.
    pieces : list of ``{"t_from": float, "rho": float, "mu": float, "sigma": float}``;
        the first piece must start at 0 and pieces must cover [0, T].

    Raises
    ------
    ModelError if 2*rho + mu - sigma^2 <= 0 on some piece.
    """
    if not pieces:
        raise ModelError("at least one coefficient piece is required")
    starts = [float(p["t_from"]) for p in pieces]
    if starts != sorted(starts) or len(set(starts)) != len(starts):
        raise ModelError("piece start times must be strictly increasing")
    if any(s >= T for s in starts[1:]):
        raise ModelError("piece start times must lie in [0, T)")
    breaks = tuple(starts)
    return CoefficientModel(
        T=float(T),
        gamma0=float(gamma0),
        rho=PiecewiseConstant(breaks, tuple(float(p["rho"]) for p in pieces)),
        mu=PiecewiseConstant(breaks, tuple(float(p["mu"]) for p in pieces)),
        sigma=PiecewiseConstant(breaks, tuple(float(p["sigma"]) for p in pieces)),
    )


def constant_model(T: float, gamma0: float, rho: float, mu: float = 0.0,
                   sigma: float = 0.0) -> CoefficientModel:
    """Convenience constructor for a single-piece model."""
    return build_model(T, gamma0, [{"t_from": 0.0, "rho": rho, "mu": mu, "sigma": sigma}])


def model_from_config(cfg: dict) -> CoefficientModel:
    """Read a model from the JSON config schema: T, gamma0, pieces."""
    return build_model(cfg["T"], cfg["gamma0"], cfg["pieces"])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + k*h, k = 0..n_steps."""

    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ModelError("n_steps must be positive")
        if self.T <= self.t0:
            raise ModelError("grid end must exceed start")

    @property
    def h(self) -> float:
        return (self.T - self.t0) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n_steps + 1)

    def index_of(self, t: float) -> int:
        k = round((t - self.t0) / self.h)
        if not (0 <= k <= self.n_steps) or abs(self.t0 + k * self.h - t) > 1e-9 * max(1.0, self.T):
            raise ModelError(f"time {t} is not a grid point")
        return int(k)

    def validate_model(self, model: CoefficientModel) -> list[int]:
        """Grid indices of the model's breakpoints in [t0, T]; each of them
        must be a grid point.  Breakpoints before the grid start are
        skipped.  The grid must lie in the model's [0, T]: the coefficients
        are not defined outside it."""
        if self.t0 < 0.0 or self.T > model.T:
            raise ModelError(f"grid [{self.t0}, {self.T}] is not inside the "
                             f"model's horizon [0, {model.T}]")
        return [self.index_of(b) for b in model.breakpoints
                if self.t0 <= b <= self.T]


class StepTerms(NamedTuple):
    """Arrays of a model on a grid that are the same for every path.

    The coefficients at the left end of each step, the deterministic part
    ``(mu - sigma^2/2) h`` of each log-impact increment, and the resilience
    factors ``exp(-r)`` and ``exp(r)``, r being the integral of rho from the
    grid start to each grid point.  Built only by :func:`step_terms`; the
    arrays are read-only.
    """

    rho: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    log_drift: np.ndarray
    decay: np.ndarray
    growth: np.ndarray


@lru_cache(maxsize=1)
def step_terms(model: CoefficientModel, grid: TimeGrid) -> StepTerms:
    """The :class:`StepTerms` of ``model`` on ``grid``.

    Memoized on the pair, so a Monte Carlo loop computes them once: every
    chunk of a loop asks for the same pair.  Another model or grid is
    another key, never a stale entry.
    """
    t_left = grid.times[:-1]
    rho = model.rho.sample(t_left)
    mu = model.mu.sample(t_left)
    sigma = model.sigma.sample(t_left)
    # exact per-step resilience integrals (rho is constant on each step)
    r_cum = _cumsum0(rho * grid.h)
    terms = StepTerms(rho=rho, mu=mu, sigma=sigma,
                      log_drift=(mu - 0.5 * sigma**2) * grid.h,
                      decay=np.exp(-r_cum), growth=np.exp(r_cum))
    for a in terms:
        a.flags.writeable = False
    return terms


@dataclass(frozen=True)
class MarketPath:
    """Realizations of the Brownian driver and the impact factor on a grid.

    One path has 1-D arrays and an integer ``path_id``; a chunk of paths has
    a leading path axis and ``path_id`` is the ``range`` of its paths.
    """

    grid: TimeGrid
    w: np.ndarray        # Brownian increments per step, n_steps on the last axis
    gamma: np.ndarray    # impact per grid point, n_steps + 1 on the last axis
    alpha: np.ndarray    # 1/gamma per grid point
    path_id: int | range
    master_seed: int

    def tail(self, k: int) -> "MarketPath":
        """Sub-path on the grid starting at grid index k."""
        g = self.grid
        sub = TimeGrid(g.t0 + k * g.h, g.T, g.n_steps - k)
        return MarketPath(sub, self.w[..., k:], self.gamma[..., k:],
                          self.alpha[..., k:], self.path_id, self.master_seed)


def _path_rng(master_seed: int, path_id: int) -> np.random.Generator:
    # pure function of (master_seed, path_id): reproducible regardless of
    # execution order or thread count
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), int(path_id))))


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, starting from 0 (one longer)."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


def simulate_path(model: CoefficientModel, grid: TimeGrid, master_seed: int,
                  path_id: int | range) -> MarketPath:
    """Simulate impact paths with exact lognormal stepping.

    An integer ``path_id`` gives one path; a ``range`` gives one row per
    path id.  Each row is drawn from its own ``(master_seed, path_id)``
    stream, so a row equals the single-path call bit for bit.
    """
    grid.validate_model(model)
    terms = step_terms(model, grid)
    n = grid.n_steps
    # the Brownian driver is always drawn: strategies may use it even when
    # the impact factor itself is deterministic (sigma == 0)
    chunk = isinstance(path_id, range)
    ids = path_id if chunk else (path_id,)
    z = np.empty((len(ids), n))
    for row, i in zip(z, ids):
        _path_rng(master_seed, i).standard_normal(out=row)
    dw = (z if chunk else z[0]) * np.sqrt(grid.h)
    log_incr = terms.log_drift + terms.sigma * dw
    log_gamma = _cumsum0(log_incr)
    # gamma0 is the level at time 0: a grid starting at t0 > 0 starts from
    # gamma0 carried forward by the drift alone, gamma0 * exp(int_0^t0 mu)
    gamma = model.gamma0 * np.exp(log_gamma) if grid.t0 == 0.0 else \
        model.gamma0 * np.exp(model.mu.integral(0.0, grid.t0)) * np.exp(log_gamma)
    return MarketPath(grid=grid, w=dw, gamma=gamma, alpha=1.0 / gamma,
                      path_id=path_id, master_seed=master_seed)


def stochastic_exponential(q_increments: np.ndarray,
                           q_quadratic: np.ndarray) -> np.ndarray:
    """Doleans-Dade exponential of a continuous semimartingale on a grid.

    Given per-step increments of Q and of its quadratic variation on the
    last axis (leading path axes broadcast), returns the path
    exp(sum dQ - 0.5 * sum d[Q]), one longer on the last axis and starting
    at 1.
    """
    dq = np.asarray(q_increments, dtype=float)
    dqv = np.asarray(q_quadratic, dtype=float)
    if dq.shape[-1:] != dqv.shape[-1:]:
        raise ValueError("increment arrays must share a grid")
    return np.exp(_cumsum0(dq - 0.5 * dqv))
