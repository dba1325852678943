"""Value-factor equation solvers.

The minimal-cost factor Y solves a backward quadratic equation with terminal
value 1/2.  For deterministic coefficients the martingale parts vanish, so the
equation reduces to a scalar Riccati-type ODE.  This module provides the
exact solver for deterministic impact, the Lambert-W closed form for
lognormal impact without drift, a backward RK4 integrator, a residual
validator and the discrete-time backward recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientModel, TimeGrid


@dataclass(frozen=True)
class ValueSolution:
    """Value factor y, volatility loading z and feedback ratio on a grid.

    ``beta_pre`` holds the left limits of the feedback ratio; it differs from
    ``beta_tilde`` only when the drift (and hence the ratio) jumps.  The
    arrays must not change once the solution is used: optimal plans keep
    arrays derived from them (see :func:`execlab.strategy.optimal_plan`).
    """

    grid: TimeGrid
    y: np.ndarray
    z: np.ndarray
    beta_tilde: np.ndarray
    beta_pre: np.ndarray | None = None
    # the path-independent arrays of optimal_plan for the last (model, k0)
    # it was called with; they must never refer back to this solution
    _plan_cache: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        if np.any(self.y < -1e-12) or np.any(self.y > 0.5 + 1e-12):
            raise ValueError("value factor must stay in [0, 1/2]")

    @property
    def beta_left(self) -> np.ndarray:
        return self.beta_tilde if self.beta_pre is None else self.beta_pre


@dataclass(frozen=True)
class DiscreteValue:
    """Discrete-time value factor from the backward recursion."""

    h: float
    times: np.ndarray
    y_h: np.ndarray

    def __post_init__(self):
        if np.any(self.y_h <= 0.0) or np.any(self.y_h > 0.5 + 1e-12):
            raise ValueError("discrete value factor must stay in (0, 1/2]")


_INV_E = -math.exp(-1.0)
_HALLEY_STEPS = 50


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function via Halley iteration.

    Starts from a logarithmic initial guess and stops at relative residual
    1e-14, or once a Halley step is stationary: it lands on the current or
    the previous iterate, a fixed point or a two-cycle of rounding.  For z
    above about 5e57 rounding keeps the residual above 1e-14 |z|, so the
    second stop ends the iteration there.  Raises ``ArithmeticError`` if
    neither happens within ``_HALLEY_STEPS`` steps, and ``ValueError`` for
    z below -1/e or not finite.
    """
    if not math.isfinite(z):
        raise ValueError(f"lambert_w0 requires a finite z, got {z}")
    if z < _INV_E:
        if z > _INV_E * (1.0 + 1e-12):  # fp slack at the branch point
            z = _INV_E
        else:
            raise ValueError(f"lambert_w0 requires z >= -1/e, got {z}")
    if z == 0.0:
        return 0.0
    if z > math.e:
        lz = math.log(z)
        w = lz - math.log(lz)
    elif z > 0.0:
        w = math.log1p(z) * 0.7
    else:
        # series near the branch point -1/e
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0
    w_prev = None
    for _ in range(_HALLEY_STEPS):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= 1e-14 * max(abs(z), 1e-300):
            return w
        w1 = w + 1.0
        w_next = w - f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        if w_next == w or w_next == w_prev:
            return w_next
        w_prev, w = w, w_next
    raise ArithmeticError(f"lambert_w0 did not converge for z={z} in "
                          f"{_HALLEY_STEPS} Halley steps")


def _coefficients(model: CoefficientModel, t, y):
    """rho, mu, sigma at the times ``t`` and the denominator of the ratio,
    sigma^2 y + (2 rho + mu - sigma^2)/2, which must be positive."""
    t = np.asarray(t, dtype=float)
    rho, mu, sig = model.rho.sample(t), model.mu.sample(t), model.sigma.sample(t)
    denom = np.asarray(sig**2 * y + 0.5 * (2.0 * rho + mu - sig**2))
    bad = denom <= 0.0
    if np.any(bad):
        raise ValueError("degenerate denominator at t="
                         f"{np.broadcast_to(t, bad.shape)[bad][0]}: "
                         f"{denom[bad][0]}")
    return rho, mu, sig, denom


def driver(model: CoefficientModel, t, y, z):
    """Generator term of the backward equation at (t, y, z), elementwise."""
    rho, mu, sig, denom = _coefficients(model, t, y)
    num = (rho + mu) * y + sig * z
    return -num * num / denom + mu * y + sig * z


def beta_tilde_at(model: CoefficientModel, t, y, z):
    """Feedback ratio ((rho+mu) y + sigma z) / (sigma^2 y + (2rho+mu-sigma^2)/2),
    elementwise."""
    rho, mu, sig, denom = _coefficients(model, t, y)
    return ((rho + mu) * y + sig * z) / denom


def _require_horizon(grid: TimeGrid, T: float) -> None:
    """The value factor is pinned to 1/2 at T, so the grid must end there."""
    if grid.T != T:
        raise ValueError(f"the grid ends at {grid.T}, not at the horizon "
                         f"T = {T}")


def solve_y_lambert(rho: float, sigma: float, T: float,
                    grid: TimeGrid) -> ValueSolution:
    """Constant resilience, lognormal impact with zero drift.

    y(s) = c / W(c exp(kappa - (rho^2/sigma^2) s)) with c = (rho - sigma^2/2)
    / sigma^2 and kappa = log 2 + (2 rho - sigma^2 + rho^2 T) / sigma^2.
    """
    if sigma <= 0.0 or 2.0 * rho - sigma**2 <= 0.0:
        raise ValueError("requires sigma > 0 and 2 rho - sigma^2 > 0")
    _require_horizon(grid, T)
    c = (rho - 0.5 * sigma**2) / sigma**2
    kappa = math.log(2.0) + (2.0 * rho - sigma**2 + rho**2 * T) / sigma**2
    s = grid.times
    w = np.array([lambert_w0(c * math.exp(kappa - (rho**2 / sigma**2) * t))
                  for t in s])
    y = c / w
    y[-1] = 0.5
    beta = rho * y / (sigma**2 * y + rho - 0.5 * sigma**2)
    return ValueSolution(grid=grid, y=y, z=np.zeros_like(y), beta_tilde=beta)


def solve_y_deterministic(model: CoefficientModel, grid: TimeGrid) -> ValueSolution:
    """Exact value factor for deterministic impact (sigma == 0).

    w = 1/y - 2 solves the linear equation w' = mu w - q with
    q = 2 rho^2 / (2 rho + mu) and w(T) = 0.  On a piece of constant
    coefficients that ends at e,
    w(s) = exp(-mu (e - s)) w(e) - q expm1(-mu (e - s)) / mu,
    or w(e) + q (e - s) when mu = 0.  Every piece is solved this way from
    the last one backward, so any piecewise-constant rho and mu are exact.
    q >= 0 keeps w >= 0, hence y <= 1/2, and rho = 0 gives y = 1/2 exactly.
    """
    if not model.is_deterministic_impact():
        raise ValueError("requires sigma == 0; use the Lambert-W or ODE solver")
    _require_horizon(grid, model.T)
    grid.validate_model(model)
    t = grid.times
    starts = [grid.t0] + [b for b in model.breakpoints if b > grid.t0]
    ends = starts[1:] + [model.T]
    k_starts = [grid.index_of(b) for b in starts]
    k_ends = k_starts[1:] + [grid.n_steps]
    w = np.zeros(grid.n_steps + 1)
    for start, end, ka, kb in reversed(list(zip(starts, ends, k_starts,
                                                k_ends))):
        rho, mu = model.rho(start), model.mu(start)
        q = rho * (2.0 * rho / (2.0 * rho + mu))   # exactly rho when mu = 0
        tau = end - t[ka:kb]
        if mu == 0.0:
            w[ka:kb] = w[kb] + q * tau
        else:
            w[ka:kb] = np.exp(-mu * tau) * w[kb] - q * np.expm1(-mu * tau) / mu

    y = 1.0 / (2.0 + w)
    rho_t, mu_t = model.rho.sample(t), model.mu.sample(t)
    ratio = (rho_t + mu_t) / (2.0 * rho_t + mu_t) * 2.0   # beta / y
    ratio_left = np.concatenate((ratio[:1], ratio[:-1]))
    return ValueSolution(grid=grid, y=y, z=np.zeros_like(y),
                         beta_tilde=ratio * y, beta_pre=ratio_left * y)


def solve_y_ode(model: CoefficientModel, grid: TimeGrid) -> ValueSolution:
    """Backward fourth-order Runge-Kutta integration of the scalar equation.

    Works for any deterministic piecewise-constant coefficients satisfying the
    positivity condition; restarts at coefficient breakpoints come for free
    because breakpoints lie on the grid.  It is the independent check of
    the exact solvers.  Its stages look the coefficients up one scalar at a
    time: array lookups make it several times faster, but the benchmark's
    ``value_solvers`` workload keeps the outputs of every pass, so the
    extra passes would read there as a memory regression until it keeps a
    digest per pass instead.
    """
    _require_horizon(grid, model.T)
    grid.validate_model(model)
    eps = model.epsilon
    t = grid.times
    h = grid.h
    n = grid.n_steps
    y = np.empty(n + 1)
    y[-1] = 0.5

    def rhs(tk, yv):
        rho, mu, sig = model.rho(tk), model.mu(tk), model.sigma(tk)
        denom = sig**2 * yv + 0.5 * (2.0 * rho + mu - sig**2)
        if denom < eps / 4.0:
            raise ValueError(f"step rejected: denominator {denom} below eps/4")
        num = (rho + mu) * yv
        return num * num / denom - mu * yv   # dY/ds with z == 0

    for k in range(n - 1, -1, -1):
        tk = t[k]  # coefficients are constant on [t_k, t_{k+1})
        yk1 = y[k + 1]
        k1 = rhs(tk, yk1)
        k2 = rhs(tk, yk1 - 0.5 * h * k1)
        k3 = rhs(tk, yk1 - 0.5 * h * k2)
        k4 = rhs(tk, yk1 - h * k3)
        yk = yk1 - h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if -1e-12 <= yk < 0.0:
            yk = 0.0
        elif 0.5 < yk <= 0.5 + 1e-12:
            yk = 0.5
        y[k] = yk

    return ValueSolution(grid=grid, y=y, z=np.zeros(n + 1),
                         beta_tilde=beta_tilde_at(model, t, y, 0.0))


def ode_residual(solution: ValueSolution, model: CoefficientModel) -> float:
    """Max |central-difference dY/dt + driver| over interior grid points.

    Points within one step of a coefficient breakpoint are excluded (the
    derivative is one-sided there); breakpoints before the grid start, as
    on the tail solution of a replanned plan, do not touch the grid.
    """
    grid = solution.grid
    y = solution.y
    interior = np.ones(grid.n_steps + 1, dtype=bool)
    interior[[0, -1]] = False
    for k in grid.validate_model(model):
        interior[max(k - 1, 0):k + 2] = False
    dy = (y[2:] - y[:-2]) / (2.0 * grid.h)
    res = np.abs(dy + driver(model, grid.times[1:-1], y[1:-1], 0.0))
    return float(np.max(res[interior[1:-1]], initial=0.0))


def discrete_value_recursion_raw(rho: float, mu: float, sigma: float,
                                 T: float, h: float) -> DiscreteValue:
    """Backward recursion for constant coefficients (see the model version).

    Accepts degenerate coefficient triples the model validator would reject,
    which is convenient for boundary checks.
    """
    n = round(T / h)
    if abs(n * h - T) > 1e-9 * T:
        raise ValueError("T must be an integer multiple of h")
    times = np.linspace(0.0, T, n + 1)
    y = np.empty(n + 1)
    y[-1] = 0.5
    e_rho = math.exp(-rho * h)
    e_g = math.exp(mu * h)                       # E[Gamma]
    e_ginv = math.exp((sigma**2 - mu) * h)       # E[1/Gamma]
    e_ginv_2rho = e_ginv * math.exp(-2.0 * rho * h)
    for k in range(n - 1, -1, -1):
        yp = y[k + 1]
        num = yp * (e_rho - e_g)
        if num == 0.0:
            y[k] = yp * e_g
            continue
        den = yp * (e_ginv_2rho - 2.0 * e_rho + e_g) + 0.5 * (1.0 - e_ginv_2rho)
        if not den > 0.0:
            raise ValueError(f"recursion denominator {den} is not positive "
                             f"at t={times[k]}")
        y[k] = yp * e_g - num * num / den
    return DiscreteValue(h=h, times=times, y_h=y)


def discrete_value_recursion(model: CoefficientModel, h: float) -> DiscreteValue:
    """Discrete-time value factor with exact lognormal conditional moments.

    Y^h(T) = 1/2 and, stepping backward,
    Y = E[Gamma] Y' - (Y'(e^{-rho h} - E[Gamma]))^2 / (Y' E[(e^{-rho h} - Gamma)^2 / Gamma] + (1 - E[1/Gamma] e^{-2 rho h})/2)
    where Gamma is the one-step lognormal impact ratio.
    """
    n = round(model.T / h)
    if abs(n * h - model.T) > 1e-9 * model.T:
        raise ValueError("T must be an integer multiple of h")
    grid = TimeGrid(0.0, model.T, n)
    grid.validate_model(model)
    times = grid.times
    y = np.empty(n + 1)
    y[-1] = 0.5
    for k in range(n - 1, -1, -1):
        rho, mu, sig = model.rho(times[k]), model.mu(times[k]), model.sigma(times[k])
        e_rho = math.exp(-rho * h)
        e_g = math.exp(mu * h)
        e_ginv_2rho = math.exp((sig**2 - mu) * h) * math.exp(-2.0 * rho * h)
        yp = y[k + 1]
        num = yp * (e_rho - e_g)
        if num == 0.0:
            y[k] = yp * e_g
            continue
        den = yp * (e_ginv_2rho - 2.0 * e_rho + e_g) + 0.5 * (1.0 - e_ginv_2rho)
        if not den > 0.0:
            raise ValueError(f"recursion denominator {den} is not positive "
                             f"at t={times[k]}")
        y[k] = yp * e_g - num * num / den
    return DiscreteValue(h=h, times=times, y_h=y)
