"""Value-factor equation solvers.

The minimal-cost factor Y solves a backward quadratic equation with terminal
value 1/2.  For deterministic coefficients the martingale parts vanish, so the
equation reduces to a scalar ODE, separable on every piece of constant
coefficients.  This module provides its exact solver, a backward RK4
integrator kept as the independent check, a residual validator and the
discrete-time backward recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .coefficients import (CoefficientModel, TimeGrid, constant_model,
                           step_coefficients)


def _beta_ds_integrals(y: np.ndarray, rho: np.ndarray, mu: np.ndarray,
                       h: float) -> np.ndarray:
    """Exact per-step integrals of beta over the grid steps.

    For deterministic value factors d(log y)/ds = beta (rho + mu) - mu, so
    the integral of beta over a step with constant coefficients is
    (log(y_{k+1}/y_k) + mu h) / (rho + mu); when rho + mu = 0 the ratio
    beta itself vanishes.
    """
    out = np.zeros(len(y) - 1)
    denom = rho + mu
    nz = denom != 0.0
    out[nz] = (np.log(y[1:][nz] / y[:-1][nz]) + mu[nz] * h) / denom[nz]
    return out


class _PlanTerms(NamedTuple):
    """The arrays of an optimal plan that no path changes (all read-only)."""

    neg_beta_sigma: np.ndarray   # -beta sigma, the loading of dW in dQ
    drift: np.ndarray            # integral of beta (mu + rho - sigma^2), per step
    half_q_quadratic: np.ndarray  # half of d[Q] = beta^2 sigma^2 h, per step
    one_minus_beta: np.ndarray
    blocks: np.ndarray


@dataclass(frozen=True)
class ValueSolution:
    """Value factor y and feedback ratio of ``model`` on a grid.

    The coefficients are deterministic, so the volatility loading z of the
    value factor is 0 and is not kept.  ``beta_pre`` holds the left limits
    of the feedback ratio; it differs from ``beta_tilde`` only where the
    coefficients (and hence the ratio) jump.  The arrays are made read-only:
    optimal plans share them and arrays derived from them, and a plan is
    built only from the solution of its own model (see
    :func:`execlab.strategy.optimal_plan`).
    """

    model: CoefficientModel
    grid: TimeGrid
    y: np.ndarray
    beta_tilde: np.ndarray
    beta_pre: np.ndarray

    def __post_init__(self):
        if not np.all((self.y >= -1e-12) & (self.y <= 0.5 + 1e-12)):
            raise ValueError("value factor must stay in [0, 1/2]")
        for a in (self.y, self.beta_tilde, self.beta_pre):
            a.flags.writeable = False

    @cached_property
    def _plan_terms(self) -> _PlanTerms:
        """The path-independent arrays of every optimal plan built from
        this solution, a plan from an interior time included.  They hold
        views of its arrays but never the solution itself, so no reference
        cycle keeps it alive."""
        rho, mu, sig = step_coefficients(self.model, self.grid)
        h, beta = self.grid.h, self.beta_tilde
        int_beta = _beta_ds_integrals(self.y, rho, mu, h)
        blocks = beta != self.beta_pre
        blocks[[0, -1]] = True
        terms = _PlanTerms(neg_beta_sigma=-beta[:-1] * sig,
                           drift=int_beta * (mu + rho - sig**2),
                           half_q_quadratic=0.5 * (beta[:-1]**2 * sig**2 * h),
                           one_minus_beta=1.0 - beta, blocks=blocks)
        for a in terms:
            a.flags.writeable = False
        return terms


@dataclass(frozen=True)
class DiscreteValue:
    """Discrete-time value factor from the backward recursion: ``y_h[k]``
    at the k-th point of the recursion's grid of step h on [0, T]."""

    y_h: np.ndarray

    def __post_init__(self):
        if not np.all((self.y_h > 0.0) & (self.y_h <= 0.5 + 1e-12)):
            raise ValueError("discrete value factor must stay in (0, 1/2]")


def _solution(model: CoefficientModel, grid: TimeGrid, coeffs: np.ndarray,
              y: np.ndarray) -> ValueSolution:
    """y of ``model`` with the feedback ratio (rho + mu) y / (sigma^2 y +
    (2 rho + mu - sigma^2)/2) at the grid points and its left limits, from
    the step table ``coeffs``.  A point takes the step it starts, the last
    point the last step; a left limit the step before, the first point's
    the first step.  Written so that the ratio is exactly 1 where rho = 0
    and y = 1/2; with sigma = 0 it is 2 (rho + mu) / (2 rho + mu) y."""
    rho, mu, sigma = coeffs
    # the ratio on each step, with y at its start and at its end
    start, end = ((rho + mu) / (sigma**2 * (v - 0.5) + (rho + 0.5 * mu)) * v
                  for v in (y[:-1], y[1:]))
    return ValueSolution(model, grid, y, beta_tilde=np.append(start, end[-1]),
                         beta_pre=np.append(start[0], end))


def driver(model: CoefficientModel, grid: TimeGrid, y):
    """Generator term of the backward equation at the grid points (y has one
    value per point), each with the coefficients of the step it starts; the
    volatility loading z is 0 for deterministic coefficients.  The ratio's
    denominator sigma^2 y + (2 rho + mu - sigma^2)/2 must be positive."""
    # the last point takes the last step
    rho, mu, sig = np.pad(step_coefficients(model, grid), ((0, 0), (0, 1)),
                          mode="edge")
    denom = sig**2 * y + 0.5 * (2.0 * rho + mu - sig**2)
    bad = denom <= 0.0
    if np.any(bad):
        raise ValueError(f"degenerate denominator at t={grid.times[bad][0]}: "
                         f"{denom[bad][0]}")
    num = (rho + mu) * y
    return -num * num / denom + mu * y


def solve_y_lambert(rho: float, sigma: float, T: float,
                    grid: TimeGrid) -> ValueSolution:
    """The Lambert-W case (one piece, mu = 0) of :func:`solve_y_deterministic`,
    kept for the benchmark's workloads, which call it by this signature."""
    if sigma <= 0.0 or 2.0 * rho - sigma**2 <= 0.0:
        raise ValueError("requires sigma > 0 and 2 rho - sigma^2 > 0")
    return solve_y_deterministic(constant_model(T, 1.0, rho, 0.0, sigma), grid)


_NEWTON_STEPS = 50


def _log1p_over(k: float, x: np.ndarray) -> np.ndarray:
    """log1p(k x) / k, read as x when k == 0.  Next to an equilibrium end of
    the bracket rounding can take k x to -1: it is held at the float above."""
    return x if k == 0.0 else np.log1p(np.maximum(k * x, 2.0**-53 - 1.0)) / k


def _sigma_free_piece(rho: float, mu: float, sigma: float, w_e: float,
                      tau: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """y at the times e - tau of a piece ending at e with sigma^2 y dropped
    from the ratio's denominator (exact when sigma = 0), and w = 1/y - 2 if
    formed.  Then w' = mu w - q, q = rho^2 / c, c = (2 rho + mu - sigma^2)/2:
    w(e - tau) = exp(-mu tau) w_e - q expm1(-mu tau) / mu, or w_e + q tau if
    mu = 0.  With mu < 0, exp(-mu tau) can overflow, so w is not formed and
    y = E / (2 E + w_e + q expm1(mu tau) / mu) with E = exp(mu tau)."""
    # exactly rho when mu = sigma = 0
    q = rho * (2.0 * rho / (2.0 * rho + mu - sigma * sigma))
    if mu < 0.0:
        e = np.exp(mu * tau)
        return e / (2.0 * e + w_e + q * np.expm1(mu * tau) / mu), None
    w = (w_e + q * tau if mu == 0.0 else
         np.exp(-mu * tau) * w_e - q * np.expm1(-mu * tau) / mu)
    return 1.0 / (2.0 + w), w


def _solve_lognormal_piece(rho: float, mu: float, sigma: float, y_e: float,
                           tau: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y at the times e - tau of a piece with sigma > 0 that ends at e.

    With c = (2 rho + mu - sigma^2)/2 and a = (rho + mu)^2 - mu sigma^2,
    dy/ds = y (a y - mu c) / (sigma^2 y + c) is separable: y(e - tau) is the
    root of F(y) = sigma^2/a log1p(a d) + 1/mu log1p(mu c d/y) + tau with
    d = (y - y_e) / (a y_e - mu c).  F falls from tau at y_e to -inf at the
    equilibrium mu c / a, or at 0 if that is not positive.  Newton's method
    in log y starts beyond the root, from ``y`` (:func:`_sigma_free_piece`);
    F is concave in log y, so the iterates stay on that side.  A step out of
    the bracket is replaced by its midpoint.  It stops at a stationary or
    two-cycle iterate, or when the bracket holds no float.
    """
    s2 = sigma * sigma
    c = 0.5 * (2.0 * rho + mu - s2)
    a = (rho + mu) ** 2 - mu * s2
    # a y_e - mu c, written to be exactly 0 when rho = 0 and y_e = 1/2
    d_e = rho * rho * y_e - mu * c * (1.0 - 2.0 * y_e)
    if d_e == 0.0:   # y_e is an equilibrium; a = 0 only if rho = mu = 0
        return np.full(tau.shape, y_e)
    near, far = y_e, (y_e - d_e / a if mu > 0.0 else 0.0)
    # rounding can put the start on or past the equilibrium, where F = -inf
    y = np.where((y - far) * (near - far) > 0.0, y, np.nextafter(far, near))
    prev, active = y, np.ones(tau.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        d = (y - y_e) / d_e
        f = s2 * _log1p_over(a, d) + _log1p_over(mu, c * d / y) + tau
        near, far = np.where(f > 0.0, y, near), np.where(f < 0.0, y, far)
        # dF/dlog y = (sigma^2 y + c) / (d_e (1 + a d)), floored as in log1p
        step = y * np.exp(-f * d_e * np.maximum(1.0 + a * d, 2.0**-53)
                          / (s2 * y + c))
        lo, hi = np.minimum(near, far), np.maximum(near, far)
        inside, mid = (lo < step) & (step < hi), 0.5 * (lo + hi)
        settled = (step == y) | (step == prev)
        collapsed = ~inside & ((mid == lo) | (mid == hi))
        nxt = np.where(settled | inside, step, np.where(collapsed, near, mid))
        prev, y = y, np.where(active, nxt, y)
        active &= ~(settled | collapsed)
        if not active.any():
            return y
    raise ArithmeticError(f"y did not converge in {_NEWTON_STEPS} Newton steps")


def solve_y_deterministic(model: CoefficientModel,
                          grid: TimeGrid) -> ValueSolution:
    """Exact value factor for deterministic piecewise-constant coefficients.

    The pieces are the runs of equal steps of :func:`step_coefficients`,
    each ending at the next one's first grid time, the last at T.  They are
    solved from the last one backward, each from the sigma-free form of
    :func:`_sigma_free_piece`, exact when sigma = 0 and refined by Newton on
    the separable form when sigma > 0 (:func:`_solve_lognormal_piece`;
    mu = 0 is the Lambert-W case).  A w formed on one piece starts the next.
    It raises ``ArithmeticError`` if a start is not a positive float, as
    when y falls below the float range.
    """
    coeffs = step_coefficients(model, grid)
    t = grid.times
    y = np.empty(grid.n_steps + 1)
    y[-1], w_e, end = 0.5, 0.0, model.T
    for ka, kb in reversed(_runs(coeffs)):
        rho, mu, sigma = map(float, coeffs[:, ka])
        if abs(mu) * (end - t[ka]) < 2.0**-53:
            mu = 0.0   # moves no y beyond rounding; mu tau could be subnormal
        tau = end - t[ka:kb]
        y_s, w = _sigma_free_piece(rho, mu, sigma, w_e, tau)
        if not np.all(np.isfinite(y_s) & (y_s > 0.0)):
            raise ArithmeticError("y leaves the positive float range")
        if sigma != 0.0:   # the start is exact only without sigma
            w = None
            y_s = _solve_lognormal_piece(rho, mu, sigma, y[kb], tau, y_s)
        y[ka:kb] = y_s
        w_e = 1.0 / y[ka] - 2.0 if w is None else w[0]
        end = t[ka]
    return _solution(model, grid, coeffs, y)


def _value_at(starts: tuple[float, ...], values: tuple[float, ...],
              t: float) -> float:
    """The value at time t of the pieces ``values`` starting at ``starts``."""
    if len(values) == 1:  # constant: RK4's per-stage hot path
        return values[0]
    return values[int(np.searchsorted(starts, t, side="right") - 1)]


def solve_y_ode(model: CoefficientModel, grid: TimeGrid) -> ValueSolution:
    """Backward fourth-order Runge-Kutta integration of the scalar equation.

    It is the independent check of :func:`solve_y_deterministic`; breakpoints
    lie on the grid, so the steps restart there.  Unlike every other grid
    computation, its stages look each coefficient up by time, one scalar
    search (:func:`_value_at`) at the step's midpoint, which no rounding puts
    on the wrong side of a breakpoint; only the ratio reads
    :func:`step_coefficients`.  Taking each step's piece by index is several
    times faster, but the benchmark's ``value_solvers`` workload keeps the
    outputs of every pass, so more passes would read as a memory regression.
    A step whose stages overflow raises ValueError naming its t and h.
    """
    coeffs = step_coefficients(model, grid)
    eps, t, h, n = model.epsilon, grid.times, grid.h, grid.n_steps
    y = np.empty(n + 1)
    y[-1] = 0.5

    def rhs(tk, yv):
        rho = _value_at(model.starts, model.rho, tk)
        mu = _value_at(model.starts, model.mu, tk)
        sig = _value_at(model.starts, model.sigma, tk)
        # the denominator of _solution: num / denom is exactly 1, and the
        # rhs exactly 0, where rho = 0 and y = 1/2
        denom = sig**2 * (yv - 0.5) + (rho + 0.5 * mu)
        if denom < eps / 4.0:
            raise ValueError(f"step rejected: denominator {denom} below eps/4")
        num = (rho + mu) * yv
        return num * (num / denom) - mu * yv   # dY/ds with z == 0

    # one errstate for the loop: at 10^4 steps a step took 3.6 us, entering
    # and leaving an errstate 1.2 us
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(n - 1, -1, -1):
                # coefficients are constant on [t_k, t_{k+1})
                tm = t[k] + 0.5 * h
                yk1 = y[k + 1]
                k1 = rhs(tm, yk1)
                k2 = rhs(tm, yk1 - 0.5 * h * k1)
                k3 = rhs(tm, yk1 - 0.5 * h * k2)
                k4 = rhs(tm, yk1 - h * k3)
                yk = yk1 - h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if -1e-12 <= yk < 0.0:
                    yk = 0.0
                elif 0.5 < yk <= 0.5 + 1e-12:
                    yk = 0.5
                y[k] = yk
    except FloatingPointError as err:
        raise ValueError(f"RK4 step from t = {t[k + 1]} back to t = {t[k]} "
                         f"is not finite ({err}): the step h = {h} is too "
                         "coarse for the model's rates") from None
    return _solution(model, grid, coeffs, y)


def ode_residual(solution: ValueSolution, model: CoefficientModel) -> float:
    """Max |central-difference dY/dt + driver| over interior grid points.

    Points within one step of a coefficient breakpoint are excluded (the
    derivative is one-sided there).
    """
    grid, y = solution.grid, solution.y
    interior = np.ones(grid.n_steps + 1, dtype=bool)
    interior[[0, -1]] = False
    for k in grid.validate_model(model):
        interior[max(k - 1, 0):k + 2] = False
    dy = (y[2:] - y[:-2]) / (2.0 * grid.h)
    res = np.abs(dy + driver(model, grid, y)[1:-1])
    return float(np.max(res[interior[1:-1]], initial=0.0))


def _steps(T: float, h: float) -> int:
    n = round(T / h)
    if abs(n * h - T) > 1e-9 * T:
        raise ValueError("T must be an integer multiple of h")
    return n


def _runs(coeffs: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal columns of a step table."""
    cuts = [0, *(np.flatnonzero(np.any(coeffs[:, 1:] != coeffs[:, :-1],
                                       axis=0)) + 1), coeffs.shape[1]]
    return list(zip(cuts, cuts[1:]))


def _backward_recursion(h: float, times: np.ndarray,
                        coeffs: np.ndarray) -> DiscreteValue:
    """The recursion of :func:`discrete_value_recursion` on ``times``, with
    rho, mu and sigma of step k in column k of ``coeffs``.  The exponential
    factors are computed once for each run of equal columns."""
    y = np.empty(len(times))
    y[-1] = yp = 0.5
    for ka, kb in reversed(_runs(coeffs)):
        rho, mu, sigma = map(float, coeffs[:, ka])
        e_rho = math.exp(-rho * h)
        e_g = math.exp(mu * h)                                     # E[Gamma]
        # E[1/Gamma] e^{-2 rho h}
        e_ginv_2rho = math.exp((sigma**2 - mu) * h) * math.exp(-2.0 * rho * h)
        for k in range(kb - 1, ka - 1, -1):
            num = yp * (e_rho - e_g)
            if num == 0.0:
                yp = yp * e_g
            else:
                den = yp * (e_ginv_2rho - 2.0 * e_rho + e_g) + 0.5 * (1.0 - e_ginv_2rho)
                if not den > 0.0:
                    raise ValueError(f"recursion denominator {den} is not "
                                     f"positive at t={times[k]}")
                yp = yp * e_g - num * num / den
            y[k] = yp
    return DiscreteValue(y_h=y)


def discrete_value_recursion(model: CoefficientModel, h: float) -> DiscreteValue:
    """Discrete-time value factor with exact lognormal conditional moments.

    Y^h(T) = 1/2 and, stepping backward,
    Y = E[Gamma] Y' - (Y'(e^{-rho h} - E[Gamma]))^2 / (Y' E[(e^{-rho h} - Gamma)^2 / Gamma] + (1 - E[1/Gamma] e^{-2 rho h})/2)
    where Gamma is the one-step lognormal impact ratio.
    """
    grid = TimeGrid(0.0, model.T, _steps(model.T, h))
    return _backward_recursion(h, grid.times, step_coefficients(model, grid))
