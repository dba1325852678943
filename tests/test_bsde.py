"""Value-factor solvers: Lambert W, closed forms, RK4 and the recursion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execlab import (TimeGrid, beta_tilde_at, build_model, constant_model,
                     discrete_value_recursion, driver, lambert_w0,
                     ode_residual, solve_y_deterministic, solve_y_lambert,
                     solve_y_ode, solve_y_ow)
from execlab import bsde
from execlab.bsde import discrete_value_recursion_raw


def bisect_w(z, lo=-1.0, hi=700.0):
    """Independent slow oracle for w e^w = z on the principal branch."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)

    def test_against_bisection_oracle(self):
        assert lambert_w0(1.0) == pytest.approx(bisect_w(1.0), abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-14)
        for z in (0.01, 0.3, 5.0, 123.0, 1e6):
            assert lambert_w0(z) == pytest.approx(bisect_w(z), abs=1e-10)

    @given(st.floats(-0.36, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_defining_residual(self, z):
        w = lambert_w0(z)
        assert w * math.exp(w) == pytest.approx(z, abs=1e-12 * max(abs(z), 1.0))

    def test_below_branch_point_rejected(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, z):
        with pytest.raises(ValueError):
            lambert_w0(z)

    def test_converges_across_the_float_range(self):
        # above z ~ 5e57 the 1e-14 |z| residual is below rounding, so the
        # iteration must stop on a stationary Halley step instead; the two
        # listed z end in a two-cycle between neighbouring floats
        for z in np.concatenate((np.logspace(-300, 300, 2001),
                                 -np.logspace(-300, math.log10(-bsde._INV_E),
                                              501),
                                 [6.895915475091384e71, 1.519529323675763e134])):
            w = lambert_w0(float(z))
            assert w * math.exp(w) == pytest.approx(float(z), rel=1e-13)

    def test_runs_out_of_steps(self, monkeypatch):
        monkeypatch.setattr(bsde, "_HALLEY_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            lambert_w0(1e6)


class TestConstantResilienceClosedForm:
    def test_terminal_value_and_reference_point(self):
        grid = TimeGrid(0.0, 10.0, 100)
        vs = solve_y_ow(0.5, 10.0, grid)
        assert vs.y[-1] == 0.5
        assert vs.y[0] == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert np.array_equal(vs.beta_tilde, vs.y)

    def test_monotone_and_bounded(self):
        grid = TimeGrid(0.0, 3.0, 60)
        vs = solve_y_ow(1.2, 3.0, grid)
        assert np.all(np.diff(vs.y) > 0.0)
        assert np.all((vs.y > 0.0) & (vs.y <= 0.5))

    def test_requires_positive_resilience(self):
        with pytest.raises(ValueError):
            solve_y_ow(0.0, 1.0, TimeGrid(0.0, 1.0, 10))


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
        b = solve_y_ow(0.7, 4.0, grid)
        assert np.max(np.abs(a.y - b.y)) <= 1e-12
        assert np.max(np.abs(a.beta_tilde - b.beta_tilde)) <= 1e-12

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
        assert vs.beta_pre is not None
        # continuous everywhere except at the drift jump
        gaps = vs.beta_tilde - vs.beta_pre
        assert gaps[k] > 0.0
        assert np.all(gaps[np.arange(len(gaps)) != k] == 0.0)

    def test_rejects_stochastic_or_varying_resilience(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            solve_y_deterministic(constant_model(1.0, 1.0, 0.5, sigma=0.3), grid)
        with pytest.raises(ValueError):
            solve_y_deterministic(build_model(1.0, 1.0, [
                {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0},
                {"t_from": 0.5, "rho": 0.7, "mu": 0.0, "sigma": 0.0},
            ]), grid)


class TestRk4Solver:
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
        ref = solve_y_ow(0.5, 1.0, grid)
        assert np.max(np.abs(vs.y - ref.y)) <= 1e-8

    def test_negative_resilience_regime(self):
        model = constant_model(5.0, 1.0, -0.1, mu=0.5)
        grid = TimeGrid(0.0, 5.0, 2000)
        vs = solve_y_ode(model, grid)
        assert np.all(vs.beta_tilde > 1.0)
        assert ode_residual(vs, model) <= 1e-5


class TestDriverAndRatio:
    def test_constant_resilience_driver(self):
        model = constant_model(1.0, 1.0, 0.5)
        for y in (0.1, 0.3, 0.5):
            assert driver(model, 0.0, y, 0.0) == pytest.approx(-0.5 * y * y,
                                                               rel=1e-14)

    def test_zero_resilience_driver_vanishes_at_half(self):
        model = constant_model(1.0, 1.0, 0.0, mu=0.3, sigma=0.4)
        assert driver(model, 0.0, 0.5, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_ratio_deterministic_formula(self):
        model = constant_model(1.0, 1.0, 0.4, mu=0.2)
        y = 0.3
        expected = (0.4 + 0.2) * y / (0.5 * (2 * 0.4 + 0.2))
        assert beta_tilde_at(model, 0.0, y, 0.0) == pytest.approx(expected,
                                                                  rel=1e-14)

    def test_degenerate_denominator_rejected(self):
        model = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        with pytest.raises(ValueError):
            driver(model, 0.0, -3.0, 0.0)
        with pytest.raises(ValueError):
            beta_tilde_at(model, 0.0, -3.0, 0.0)


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
        exact = solve_y_lambert(rho, sigma, T, TimeGrid(0.0, T, 10)).y[0]
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

    def test_nonpositive_denominator_raises(self):
        # rho = -1 with a constant impact drives the denominator below zero
        # at the first backward step; the check must survive python -O
        with pytest.raises(ValueError, match="denominator"):
            discrete_value_recursion_raw(-1.0, 0.0, 0.0, 1.0, 0.1)
