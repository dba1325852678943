"""Value-factor solvers: the exact solver against closed forms, RK4 and
the recursion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execlab import (JumpExample, ModelError, TimeGrid, build_model,
                     constant_model, discrete_value_recursion, driver,
                     example_beta_path, jump_example_model, ode_residual,
                     optimal_plan, simulate_path, solve_y_deterministic,
                     solve_y_ode, step_terms)
from execlab import bsde
from execlab.bsde import solve_y_lambert
from execlab.cli import SHOWCASE
from piece_lookup import value_at


def ow_hyperbola(rho, T, s):
    """Oracle for constant resilience without drift: y = 1 / (2 + (T - s) rho)."""
    return 1.0 / (2.0 + (T - s) * rho)


def discrete_value_recursion_raw(rho, mu, sigma, T, h):
    """The backward recursion for constant coefficients, on the engine's own
    loop; unlike a model it takes triples the model validator rejects."""
    n = bsde._steps(T, h)
    return bsde._backward_recursion(h, np.linspace(0.0, T, n + 1),
                                    np.tile([[rho], [mu], [sigma]], n))


def negres_closed_form(rho, mu, T, s):
    """Oracle for constant rho < 0 offset by a drift mu > -2 rho: y and the
    ratio, y = mu (2 rho + mu) / 2 / ((rho+mu)^2 - rho^2 e^{mu (s-T)})."""
    denom = (rho + mu) ** 2 - rho**2 * np.exp(mu * (s - T))
    return 0.5 * mu * (2.0 * rho + mu) / denom, mu * (rho + mu) / denom


def bisect_w(z, lo=-1.0, hi=700.0):
    """Independent slow oracle for w e^w = z on the principal branch."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambert_closed_form(rho, sigma, T, s):
    """Oracle for constant resilience without drift, sigma > 0:
    y = c / W(c exp(kappa - (rho/sigma)^2 s)) with c = (rho - sigma^2/2) /
    sigma^2 and kappa = log 2 + (2 rho - sigma^2 + rho^2 T) / sigma^2."""
    c = (rho - 0.5 * sigma**2) / sigma**2
    kappa = math.log(2.0) + (2.0 * rho - sigma**2 + rho**2 * T) / sigma**2
    return np.array([c / bisect_w(c * math.exp(kappa - (rho / sigma) ** 2 * t))
                     for t in s])


def linear_w_reference(model, grid):
    """Reference arrays for sigma = 0: w = 1/y - 2 over the whole grid,
    piece by piece, then the ratio 2 (rho + mu) / (2 rho + mu) and its left
    limits.  The exact solver must reproduce them bit for bit."""
    t = grid.times
    starts = [0.0, *model.breakpoints]
    ends = starts[1:] + [model.T]
    k_starts = [grid.index_of(b) for b in starts]
    k_ends = k_starts[1:] + [grid.n_steps]
    w = np.zeros(grid.n_steps + 1)
    for start, end, ka, kb in reversed(list(zip(starts, ends, k_starts,
                                                k_ends))):
        rho, mu = value_at(model, "rho", start), value_at(model, "mu", start)
        q = rho * (2.0 * rho / (2.0 * rho + mu))
        tau = end - t[ka:kb]
        if mu == 0.0:
            w[ka:kb] = w[kb] + q * tau
        else:
            w[ka:kb] = np.exp(-mu * tau) * w[kb] - q * np.expm1(-mu * tau) / mu
    y = 1.0 / (2.0 + w)
    rho_t = np.array([value_at(model, "rho", s) for s in t])
    mu_t = np.array([value_at(model, "mu", s) for s in t])
    ratio = (rho_t + mu_t) / (2.0 * rho_t + mu_t) * 2.0
    ratio_left = np.concatenate((ratio[:1], ratio[:-1]))
    return {"y": y, "beta_tilde": ratio * y, "beta_pre": ratio_left * y}


class TestConstantResilienceClosedForm:
    def test_terminal_value_and_reference_point(self):
        grid = TimeGrid(0.0, 10.0, 100)
        vs = solve_y_deterministic(constant_model(10.0, 1.0, 0.5), grid)
        assert vs.y[-1] == 0.5
        assert vs.y[0] == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert np.array_equal(vs.beta_tilde, vs.y)
        # the exact solver reproduces the hyperbola bit for bit
        assert np.array_equal(vs.y[:-1],
                              ow_hyperbola(0.5, 10.0, grid.times[:-1]))

    def test_monotone_and_bounded(self):
        grid = TimeGrid(0.0, 3.0, 60)
        vs = solve_y_deterministic(constant_model(3.0, 1.0, 1.2), grid)
        assert np.all(np.diff(vs.y) > 0.0)
        assert np.all((vs.y > 0.0) & (vs.y <= 0.5))


class TestLambertClosedForm:
    def test_terminal_value_exact_and_monotone(self):
        grid = TimeGrid(0.0, 10.0, 500)
        vs = solve_y_lambert(0.5, 0.8, 10.0, grid)
        assert vs.y[-1] == 0.5
        assert np.all(np.diff(vs.y) > 0.0)
        assert np.all((vs.y > 0.0) & (vs.y <= 0.5))

    def test_solves_the_backward_equation(self):
        grid = TimeGrid(0.0, 2.0, 4000)
        vs = solve_y_lambert(0.5, 0.8, 2.0, grid)
        model = constant_model(2.0, 1.0, 0.5, sigma=0.8)
        assert ode_residual(vs, model) <= 1e-6

    def test_matches_rk4(self):
        grid = TimeGrid(0.0, 2.0, 5000)
        vs = solve_y_lambert(0.5, 0.8, 2.0, grid)
        ode = solve_y_ode(constant_model(2.0, 1.0, 0.5, sigma=0.8), grid)
        assert np.max(np.abs(vs.y - ode.y)) <= 1e-10

    def test_exact_solver_matches_the_closed_form(self):
        grid = TimeGrid(0.0, SHOWCASE.T, 1000)
        y = lambert_closed_form(0.5, 0.8, SHOWCASE.T, grid.times)
        vs = solve_y_deterministic(SHOWCASE, grid)
        assert np.max(np.abs(vs.y / y - 1.0)) <= 1e-13

    def test_preconditions(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            solve_y_lambert(0.5, 0.0, 1.0, grid)
        with pytest.raises(ValueError):
            solve_y_lambert(0.3, 0.8, 1.0, grid)  # 2 rho <= sigma^2


class TestDeterministicSolver:
    def test_zero_drift_reduces_to_constant_resilience(self):
        model = constant_model(4.0, 1.0, 0.7)
        grid = TimeGrid(0.0, 4.0, 400)
        a = solve_y_deterministic(model, grid)
        y = ow_hyperbola(0.7, 4.0, grid.times)
        assert np.max(np.abs(a.y - y)) <= 1e-12
        assert np.max(np.abs(a.beta_tilde - y)) <= 1e-12

    def test_negative_resilience_closed_form(self):
        grid = TimeGrid(0.0, 5.0, 1000)
        vs = solve_y_deterministic(constant_model(5.0, 1.0, -0.1, mu=0.5),
                                   grid)
        y, beta = negres_closed_form(-0.1, 0.5, 5.0, grid.times)
        assert vs.y[-1] == 0.5
        assert np.max(np.abs(vs.y - y)) <= 1e-12
        assert np.max(np.abs(vs.beta_tilde - beta)) <= 1e-12

    def test_drift_jump_two_branch_closed_form(self):
        rho, t0, T = 0.3, 4.0, 5.0
        model = build_model(T, 1.0, [
            {"t_from": 0.0, "rho": rho, "mu": 0.0, "sigma": 0.0},
            {"t_from": t0, "rho": rho, "mu": 1.0, "sigma": 0.0},
        ])
        grid = TimeGrid(0.0, T, 1000)
        vs = solve_y_deterministic(model, grid)
        s = grid.times
        upper = (2 * rho + 1) / (2 * (rho + 1) ** 2 - 2 * rho**2 * np.exp(s - T))
        y_t0 = (2 * rho + 1) / (2 * (rho + 1) ** 2 - 2 * rho**2 * math.exp(t0 - T))
        lower = 1.0 / (1.0 / y_t0 + (t0 - s) * rho)
        expected = np.where(s >= t0, upper, lower)
        expected[-1] = 0.5
        assert np.max(np.abs(vs.y - expected)) <= 1e-12

    def test_feedback_ratio_jumps_with_the_drift(self):
        model = build_model(2.0, 1.0, [
            {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0},
            {"t_from": 1.0, "rho": 0.5, "mu": 1.0, "sigma": 0.0},
        ])
        grid = TimeGrid(0.0, 2.0, 200)
        vs = solve_y_deterministic(model, grid)
        k = grid.index_of(1.0)
        # continuous everywhere except at the drift jump
        gaps = vs.beta_tilde - vs.beta_pre
        assert gaps[k] > 0.0
        assert np.all(gaps[np.arange(len(gaps)) != k] == 0.0)

    def test_refuses_a_value_factor_below_the_float_range(self):
        # with mu < 0, y falls like exp(mu (T - s)): refused, not returned as 0
        model = constant_model(1000.0, 1.0, 0.5, mu=-0.9, sigma=0.1)
        with pytest.raises(ArithmeticError, match="float range"):
            solve_y_deterministic(model, TimeGrid(0.0, 1000.0, 1000))

    def test_refuses_the_same_underflow_without_sigma(self):
        # the sigma-free form never forms exp(-mu tau), so no overflow warns
        model = constant_model(1000.0, 1.0, 0.5, mu=-0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="float range"):
                solve_y_deterministic(model, TimeGrid(0.0, 1000.0, 1000))

    def test_negative_drift_matches_the_w_reference(self):
        # y = E / (2 E + ...) rounds differently from 1/(2 + w), so not bitwise
        model = constant_model(100.0, 1.0, 0.5, mu=-0.9)
        grid = TimeGrid(0.0, 100.0, 1000)
        vs = solve_y_deterministic(model, grid)
        for name, ref in linear_w_reference(model, grid).items():
            np.testing.assert_allclose(getattr(vs, name), ref, rtol=1e-14,
                                       atol=0.0, err_msg=name)

    def test_a_drift_below_rounding_is_solved_as_zero(self):
        # mu tau is subnormal here, so expm1(-mu tau) / mu is off by ~1e-10
        # and log1p(mu x) / mu too noisy for Newton to settle
        grid = TimeGrid(0.0, 2.0, 2000)
        for sigma in (0.0, 0.5):
            tiny = constant_model(2.0, 1.0, 1.0, mu=2.2250738585e-313,
                                  sigma=sigma)
            zero = constant_model(2.0, 1.0, 1.0, sigma=sigma)
            assert np.array_equal(solve_y_deterministic(tiny, grid).y,
                                  solve_y_deterministic(zero, grid).y)

    def test_long_and_steep_pieces_converge(self, monkeypatch):
        # the start beyond the root keeps Newton short far from the Lambert
        # case too: y within ulps of an equilibrium, rho T = 1000, y ~ 1e-40
        monkeypatch.setattr(bsde, "_NEWTON_STEPS", 20)
        for T, rho, mu, sigma in ((2000.0, 0.3, 1.0, 0.5),
                                  (10.0, 100.0, 0.0, 0.5),
                                  (100.0, 0.5, -0.9, 0.1),
                                  (50.0, -5.0, 20.0, 0.9)):
            model = constant_model(T, 1.0, rho, mu, sigma)
            vs = solve_y_deterministic(model, TimeGrid(0.0, T, 10_000))
            # increasing up to one ulp where y meets the equilibrium
            assert np.all(vs.y > 0.0)
            assert np.all(np.diff(vs.y) >= -np.spacing(vs.y[:-1]))

    def test_runs_out_of_newton_steps(self, monkeypatch):
        monkeypatch.setattr(bsde, "_NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            solve_y_deterministic(SHOWCASE, TimeGrid(0.0, SHOWCASE.T, 100))

    @pytest.mark.parametrize("model", [
        constant_model(10.0, 1.0, 0.5), jump_example_model(0.3, 4.0, 5.0),
        constant_model(5.0, 1.0, -0.1, mu=0.5)], ids=["ow", "jump", "negres"])
    def test_sigma_zero_arrays_equal_the_w_reference(self, model):
        for n in (1000, 2000, 4000):
            grid = TimeGrid(0.0, model.T, n)
            vs = solve_y_deterministic(model, grid)
            for name, ref in linear_w_reference(model, grid).items():
                assert np.array_equal(getattr(vs, name), ref), name

    def test_varying_resilience(self):
        model = build_model(1.0, 1.0, [
            {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0},
            {"t_from": 0.5, "rho": 0.7, "mu": 0.0, "sigma": 0.0},
        ])
        grid = TimeGrid(0.0, 1.0, 10)
        vs = solve_y_deterministic(model, grid)
        # mu = 0: 1/y - 2 grows linearly at rate rho, piece by piece
        assert np.allclose(1.0 / vs.y - 2.0,
                           0.7 * np.minimum(1.0 - grid.times, 0.5)
                           + 0.5 * np.maximum(0.5 - grid.times, 0.0),
                           rtol=1e-14, atol=1e-15)
        assert np.array_equal(vs.beta_tilde, vs.y)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_rk4_on_random_models(self, data):
        # 1-4 pieces at integer breaks; each piece has sigma = 0 or in
        # [0, 0.9) and is drawn with rho < 0, rho = 0, mu = 0, mu = +-1e-9
        # or both free, always with 2 rho + mu - sigma^2 >= 0.2
        T = data.draw(st.integers(2, 5), label="T")
        starts = [0] + data.draw(st.lists(st.integers(1, T - 1), unique=True,
                                          max_size=min(3, T - 1)),
                                 label="breaks")
        pieces = []
        for t in sorted(starts):
            sigma = data.draw(st.one_of(st.just(0.0), st.floats(
                0.0, 0.9, exclude_max=True)), label="sigma")
            floor = 0.2 + sigma**2
            kind = data.draw(st.sampled_from(["rho<0", "rho=0", "mu=0",
                                              "mu=+-1e-9", "free"]))
            if kind == "rho<0":
                rho = data.draw(st.floats(-0.8, -0.01))
            elif kind == "rho=0":
                rho = 0.0
            elif kind == "free":
                rho = data.draw(st.floats(0.1, 1.5))
            else:
                rho = data.draw(st.floats(0.5 * floor + 1e-6, 1.5))
            if kind == "mu=0":
                mu = 0.0
            elif kind == "mu=+-1e-9":
                mu = data.draw(st.sampled_from([1e-9, -1e-9]))
            else:
                lo = max(-1.0, floor - 2.0 * rho)
                mu = data.draw(st.floats(lo, max(2.0, lo)))
            pieces.append({"t_from": float(t), "rho": rho, "mu": mu,
                           "sigma": sigma})
        model = build_model(float(T), 1.0, pieces)
        grid = TimeGrid(0.0, float(T), 1000 * T)
        vs = solve_y_deterministic(model, grid)
        ref = solve_y_ode(model, grid)
        assert np.max(np.abs(vs.y - ref.y)) <= 1e-12
        assert vs.y[-1] == 0.5
        assert np.max(vs.y) <= 0.5
        if all(p["rho"] == 0.0 for p in pieces):
            assert np.all(vs.y == 0.5) and np.all(vs.beta_tilde == 1.0)
            assert np.all(vs.beta_pre == 1.0)

    def test_zero_resilience_is_exactly_half(self):
        for mu, sigma in ((1.5, 0.0), (1.64, 0.4)):
            model = build_model(3.0, 1.0, [
                {"t_from": 0.0, "rho": 0.0, "mu": 0.4, "sigma": 0.0},
                {"t_from": 1.0, "rho": 0.0, "mu": mu, "sigma": sigma},
            ])
            vs = solve_y_deterministic(model, TimeGrid(0.0, 3.0, 30))
            assert np.all(vs.y == 0.5)
            assert np.all(vs.beta_tilde == 1.0)
            assert np.all(vs.beta_pre == 1.0)


HORIZON_10 = constant_model(10.0, 1.0, 0.5)
# every computation on a model of horizon T = 10, on a grid of its own
ON_GRID = {
    "lambert": lambda g: solve_y_lambert(0.5, 0.8, 10.0, g),
    "deterministic": lambda g: solve_y_deterministic(HORIZON_10, g),
    "ode": lambda g: solve_y_ode(HORIZON_10, g),
    "simulate_path": lambda g: simulate_path(HORIZON_10, g, 0, 0),
    "step_terms": lambda g: step_terms(HORIZON_10, g),
    "example_beta_path": lambda g: example_beta_path(JumpExample(0.3, 4.0),
                                                     10.0, g),
}


@pytest.mark.parametrize("solve, grid", [
    pytest.param(fn, grid, id=name + suffix)
    for suffix, grid in (("", TimeGrid(0.0, 5.0, 100)),
                         ("_after_T", TimeGrid(0.0, 15.0, 300)))
    for name, fn in ON_GRID.items()])
def test_grid_must_end_at_the_horizon(solve, grid):
    # y(T) = 1/2 pins the solution; a grid ending at 5 < T = 10 once gave a
    # Lambert-W y that jumped to 1/2 in its last step, and a market or its
    # step terms were built on it
    with pytest.raises(ModelError, match="horizon"):
        solve(grid)


class TestRk4Solver:
    def test_left_limit_ratio_matches_the_exact_solver(self):
        model = jump_example_model(0.3, 4.0, 5.0)
        grid = TimeGrid(0.0, 5.0, 1000)
        ode = solve_y_ode(model, grid)
        exact = solve_y_deterministic(model, grid)
        assert np.max(np.abs(ode.beta_pre - exact.beta_pre)) <= 1e-10
        # the ratio's jump at t0 = 4 gives the plan its interior block trade
        market = simulate_path(model, grid, 0, 0)
        plans = [optimal_plan(model, vs, market, 0.0, 100.0, 0.0)
                 for vs in (ode, exact)]
        for plan in plans:
            assert np.flatnonzero(plan.x_star.is_block).tolist() == [
                0, grid.index_of(4.0), 1000]
        assert plans[0].d_star.pre_trade == pytest.approx(
            plans[1].d_star.pre_trade, rel=1e-10)

    def test_zero_resilience_is_constant_half(self):
        model = constant_model(5.0, 1.0, 0.0, mu=0.3, sigma=0.4)
        grid = TimeGrid(0.0, 5.0, 500)
        vs = solve_y_ode(model, grid)
        assert np.max(np.abs(vs.y - 0.5)) <= 1e-12
        assert np.max(np.abs(vs.beta_tilde - 1.0)) <= 1e-12

    def test_matches_constant_resilience_closed_form(self):
        model = constant_model(1.0, 1.0, 0.5)
        grid = TimeGrid(0.0, 1.0, 10000)
        vs = solve_y_ode(model, grid)
        assert np.max(np.abs(vs.y - ow_hyperbola(0.5, 1.0, grid.times))) <= 1e-8

    def test_negative_resilience_regime(self):
        model = constant_model(5.0, 1.0, -0.1, mu=0.5)
        grid = TimeGrid(0.0, 5.0, 2000)
        vs = solve_y_ode(model, grid)
        assert np.all(vs.beta_tilde > 1.0)
        assert ode_residual(vs, model) <= 1e-5

    def test_too_coarse_a_step_is_refused_by_its_time_and_h(self):
        # mu = 50 on h = 0.2: the stages of the step back from t = 0.4
        # overflow.  The solve once warned twice and then refused y for
        # leaving [0, 1/2], naming neither the step nor its size
        model = constant_model(1.0, 1.0, 0.5, mu=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"to t = 0\.2 .*h = 0\.2 is too coarse"):
                solve_y_ode(model, TimeGrid(0.0, 1.0, 5))
        # refined enough, the same model solves
        assert np.all(np.isfinite(solve_y_ode(model,
                                              TimeGrid(0.0, 1.0, 500)).y))


def pointwise_driver_and_ratio(model, t, y):
    """Reference: the generator and the ratio at one point, in floats."""
    rho, mu, sig = (value_at(model, name, t)
                    for name in ("rho", "mu", "sigma"))
    denom = sig**2 * y + 0.5 * (2.0 * rho + mu - sig**2)
    num = (rho + mu) * y
    ratio = (rho + mu) / (sig**2 * (y - 0.5) + (rho + 0.5 * mu)) * y
    return -num * num / denom + mu * y, ratio


def pointwise_residual(solution, model):
    """Reference: ode_residual as a loop over the interior grid points."""
    grid, y = solution.grid, solution.y
    skip = set()
    for b in model.breakpoints:
        k = grid.index_of(b)
        skip.update({k - 1, k, k + 1})
    res = 0.0
    for k in range(1, grid.n_steps):
        if k not in skip:
            dy = (y[k + 1] - y[k - 1]) / (2.0 * grid.h)
            f, _ = pointwise_driver_and_ratio(model, grid.times[k], y[k])
            res = max(res, abs(dy + f))
    return res


THREE_PIECES = build_model(3.0, 1.0, [
    {"t_from": 0.0, "rho": 0.6, "mu": -0.1, "sigma": 0.3},
    {"t_from": 1.0, "rho": 0.4, "mu": 0.2, "sigma": 0.5},
    {"t_from": 2.0, "rho": 0.8, "mu": 0.0, "sigma": 0.2},
])


class TestDriverAndRatio:
    def test_elementwise_equals_pointwise(self):
        grid = TimeGrid(0.0, 3.0, 300)
        rng = np.random.default_rng(0)
        y = rng.uniform(0.0, 0.5, 301)
        f = driver(THREE_PIECES, grid, y)
        for k, t in enumerate(grid.times):
            assert f[k] == pointwise_driver_and_ratio(THREE_PIECES, t, y[k])[0]

    def test_residual_and_ratio_equal_the_pointwise_loops(self):
        grid = TimeGrid(0.0, 3.0, 600)
        vs = solve_y_ode(THREE_PIECES, grid)
        assert ode_residual(vs, THREE_PIECES) == pointwise_residual(
            vs, THREE_PIECES)
        # a rough y puts the largest residual anywhere, also next to a break
        for seed in range(20):
            y = np.random.default_rng(seed).uniform(0.0, 0.5, 301)
            rough = bsde.ValueSolution(model=THREE_PIECES,
                                       grid=TimeGrid(0.0, 3.0, 300), y=y,
                                       beta_tilde=y, beta_pre=y)
            assert ode_residual(rough, THREE_PIECES) == pointwise_residual(
                rough, THREE_PIECES)
        t = grid.times
        for vs in (vs, solve_y_deterministic(THREE_PIECES, grid)):
            assert list(vs.beta_tilde) == [
                pointwise_driver_and_ratio(THREE_PIECES, s, y)[1]
                for s, y in zip(t, vs.y)]
            # the left limits take the coefficients of the step before
            assert list(vs.beta_pre) == [
                pointwise_driver_and_ratio(THREE_PIECES, s, y)[1]
                for s, y in zip([t[0], *t[:-1]], vs.y)]

    def test_constant_resilience_driver(self):
        model = constant_model(1.0, 1.0, 0.5)
        y = np.array([0.1, 0.3, 0.5])
        np.testing.assert_allclose(driver(model, TimeGrid(0.0, 1.0, 2), y),
                                   -0.5 * y * y, rtol=1e-14)

    def test_zero_resilience_driver_vanishes_at_half(self):
        model = constant_model(1.0, 1.0, 0.0, mu=0.3, sigma=0.4)
        f = driver(model, TimeGrid(0.0, 1.0, 4), 0.5)
        assert np.max(np.abs(f)) <= 1e-15

    def test_ratio_deterministic_formula(self):
        model = constant_model(1.0, 1.0, 0.4, mu=0.2)
        vs = solve_y_deterministic(model, TimeGrid(0.0, 1.0, 10))
        expected = (0.4 + 0.2) * vs.y / (0.5 * (2 * 0.4 + 0.2))
        np.testing.assert_allclose(vs.beta_tilde, expected, rtol=1e-14)

    def test_degenerate_denominator_rejected(self):
        model = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            driver(model, grid, -3.0)
        # one degenerate point among many is enough
        with pytest.raises(ValueError, match="t=0.5"):
            driver(model, grid, np.array([0.1, -3.0, 0.2]))


def test_value_solution_refuses_nan():
    y = np.array([np.nan, 0.3, 0.5])
    with pytest.raises(ValueError, match="value factor"):
        bsde.ValueSolution(model=constant_model(1.0, 1.0, 0.5),
                           grid=TimeGrid(0.0, 1.0, 2), y=y, beta_tilde=y,
                           beta_pre=y)


def tail_residual(model, vs, k):
    """ode_residual of the value solution carried by a plan replanned at
    grid index k."""
    market = simulate_path(model, vs.grid, 0, 0)
    plan = optimal_plan(model, vs, market, vs.grid.times[k], 1.0, 0.0)
    assert plan.value_solution is vs
    return ode_residual(plan.value_solution, model)


JUMP_MODEL = jump_example_model(0.3, 4.0, 5.0)


class TestReplannedTailResidual:
    """A replan carries its parent's value solution, so its residual is the
    full-grid one exactly: no tail grid recomputes the step as
    (T - t_k) / (n - k) and moves the central differences."""

    def test_replanned_after_the_breakpoint(self):
        grid = TimeGrid(0.0, 5.0, 1000)
        vs = solve_y_deterministic(JUMP_MODEL, grid)
        residual = tail_residual(JUMP_MODEL, vs, grid.index_of(4.5))
        assert 0.0 < residual == ode_residual(vs, JUMP_MODEL)

    @pytest.mark.parametrize("model, solve, n", [
        (JUMP_MODEL, solve_y_deterministic, 1000),
        (THREE_PIECES, solve_y_ode, 300)], ids=["jump", "three_pieces"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_tail_residual_bounded_by_full_grid(self, model, solve, n, data):
        vs = solve(model, TimeGrid(0.0, model.T, n))
        k = data.draw(st.integers(0, n - 1), label="replan index")
        residual = tail_residual(model, vs, k)
        assert np.isfinite(residual)
        assert residual == ode_residual(vs, model)


class TestDiscreteRecursion:
    def test_all_zero_coefficients_freeze_at_half(self):
        dv = discrete_value_recursion_raw(0.0, 0.0, 0.0, 1.0, 0.01)
        assert np.all(dv.y_h == 0.5)

    def test_constant_resilience_tanh_identity(self):
        # for constant impact the recursion solves in closed form:
        # 1 / y_h[0] = 2 + 2 n tanh(rho h / 2)
        rho, T, h = 0.5, 1.0, 0.001
        dv = discrete_value_recursion_raw(rho, 0.0, 0.0, T, h)
        n = round(T / h)
        assert 1.0 / dv.y_h[0] == pytest.approx(
            2.0 + 2.0 * n * math.tanh(rho * h / 2.0), rel=1e-12)

    def test_model_version_matches_raw(self):
        model = constant_model(1.0, 1.0, 0.5, mu=0.1, sigma=0.3)
        a = discrete_value_recursion(model, 0.01)
        b = discrete_value_recursion_raw(0.5, 0.1, 0.3, 1.0, 0.01)
        assert np.array_equal(a.y_h, b.y_h)

    def test_stochastic_regime_first_order(self):
        rho, sigma, T = 0.5, 0.8, 1.0
        model = constant_model(T, 1.0, rho, sigma=sigma)
        exact = solve_y_deterministic(model, TimeGrid(0.0, T, 10)).y[0]
        errs = [abs(discrete_value_recursion(model, h).y_h[0] - exact)
                for h in (0.01, 0.005, 0.0025)]
        assert 1.6 <= errs[0] / errs[1] <= 2.4
        assert 1.6 <= errs[1] / errs[2] <= 2.4

    def test_bounds_and_step_validation(self):
        model = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        dv = discrete_value_recursion(model, 0.02)
        assert np.all((dv.y_h > 0.0) & (dv.y_h <= 0.5))
        with pytest.raises(ValueError):
            discrete_value_recursion(model, 0.3)

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="discrete value factor"):
            bsde.DiscreteValue(y_h=np.array([np.nan, 0.3, 0.5]))

    def test_nonpositive_denominator_raises(self):
        # rho = -1 with a constant impact drives the denominator below zero
        # at the first backward step; the check must survive python -O
        with pytest.raises(ValueError, match="denominator"):
            discrete_value_recursion_raw(-1.0, 0.0, 0.0, 1.0, 0.1)
