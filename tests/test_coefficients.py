"""Market model, path simulation and stochastic exponential tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execlab import (ModelError, PiecewiseConstant, TimeGrid, build_model,
                     constant_model, jump_example_model, model_from_config,
                     simulate_path, solve_y_deterministic, solve_y_ode,
                     step_terms, stochastic_exponential)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestPiecewiseConstant:
    def test_constant_value_everywhere(self):
        f = PiecewiseConstant.constant(2.5)
        assert f(0.0) == 2.5 and f(17.3) == 2.5

    def test_right_continuity_at_breaks(self):
        f = PiecewiseConstant((0.0, 1.0), (3.0, 7.0))
        assert f(0.999999) == 3.0
        assert f(1.0) == 7.0

    def test_integral_exact(self):
        f = PiecewiseConstant((0.0, 2.0), (1.0, 10.0))
        assert f.integral(0.0, 3.0) == 2.0 + 10.0
        assert f.integral(1.5, 2.5) == 0.5 + 5.0

    def test_sample_matches_call(self):
        f = PiecewiseConstant((0.0, 1.0, 2.0), (1.0, 2.0, 3.0))
        ts = np.array([0.0, 0.5, 1.0, 1.7, 2.0, 9.0])
        assert np.array_equal(f.sample(ts), [f(t) for t in ts])

    @given(st.lists(st.floats(0.01, 10.0), max_size=4, unique=True),
           st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
           st.lists(st.floats(0.0, 12.0), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_sample_matches_searchsorted(self, interior, values, extra):
        breaks = (0.0,) + tuple(sorted(interior))
        f = PiecewiseConstant(breaks, tuple(values[:len(breaks)]))
        # every breakpoint itself is sampled, plus arbitrary times
        times = np.array(list(breaks) + extra)
        idx = np.searchsorted(breaks, times, side="right") - 1
        assert np.array_equal(f.sample(times), np.asarray(f.values)[idx])
        assert [f(t) for t in times] == [f.values[i] for i in idx]
        grid2d = np.stack([times, times[::-1]])
        assert np.array_equal(f.sample(grid2d),
                              np.stack([f.sample(times),
                                        f.sample(times[::-1])]))

    @given(NON_FINITE, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_rejects_non_finite_entries(self, bad, in_breaks):
        with pytest.raises(ModelError):
            if in_breaks:
                PiecewiseConstant((0.0, bad), (1.0, 2.0))
            else:
                PiecewiseConstant((0.0, 1.0), (1.0, bad))

    def test_rejects_bad_breaks(self):
        with pytest.raises(ModelError):
            PiecewiseConstant((1.0,), (2.0,))       # must start at 0
        with pytest.raises(ModelError):
            PiecewiseConstant((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ModelError):
            PiecewiseConstant((), ())

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_integral_additivity(self, a, b, c):
        lo, mid, hi = sorted([a, b, c])
        f = PiecewiseConstant((0.0, 1.0, 3.0), (2.0, -1.0, 0.5))
        whole = f.integral(lo, hi)
        split = f.integral(lo, mid) + f.integral(mid, hi)
        assert whole == pytest.approx(split, abs=1e-12)


class TestModelValidation:
    def test_positivity_condition_enforced(self):
        # 2*0 + 0 - 1 < 0 on the single piece
        with pytest.raises(ModelError):
            build_model(1.0, 1.0, [{"t_from": 0.0, "rho": 0.0, "mu": 0.0,
                                    "sigma": 1.0}])

    def test_positivity_checked_per_piece(self):
        with pytest.raises(ModelError):
            build_model(2.0, 1.0, [
                {"t_from": 0.0, "rho": 1.0, "mu": 0.0, "sigma": 0.0},
                {"t_from": 1.0, "rho": -1.0, "mu": 0.0, "sigma": 0.0},
            ])

    def test_negative_resilience_allowed_with_drift(self):
        m = constant_model(5.0, 1.0, -0.1, mu=0.5)
        assert m.epsilon == pytest.approx(0.3)

    def test_bad_horizon_and_gamma(self):
        with pytest.raises(ModelError):
            constant_model(0.0, 1.0, 0.5)
        with pytest.raises(ModelError):
            constant_model(1.0, -1.0, 0.5)

    @given(NON_FINITE)
    @settings(max_examples=10, deadline=None)
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ModelError):
            constant_model(T, 1.0, 0.5)

    @given(NON_FINITE)
    @settings(max_examples=10, deadline=None)
    def test_non_finite_gamma0_rejected(self, gamma0):
        with pytest.raises(ModelError):
            constant_model(1.0, gamma0, 0.5)

    @given(NON_FINITE, st.sampled_from(["rho", "mu", "sigma"]),
           st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_non_finite_coefficient_rejected(self, bad, name, piece):
        pieces = [{"t_from": t, "rho": 0.5, "mu": 0.0, "sigma": 0.2}
                  for t in (0.0, 0.5)]
        pieces[piece][name] = bad
        with pytest.raises(ModelError):
            build_model(1.0, 1.0, pieces)

    def test_piece_ordering(self):
        with pytest.raises(ModelError):
            build_model(1.0, 1.0, [
                {"t_from": 0.5, "rho": 1.0, "mu": 0.0, "sigma": 0.0},
                {"t_from": 0.0, "rho": 1.0, "mu": 0.0, "sigma": 0.0},
            ])

    def test_config_roundtrip_and_hash(self):
        m = build_model(2.0, 1.5, [
            {"t_from": 0.0, "rho": 0.4, "mu": 0.1, "sigma": 0.2},
            {"t_from": 1.0, "rho": 0.4, "mu": 0.9, "sigma": 0.2},
        ])
        m2 = model_from_config(m.to_dict())
        assert m2 == m
        assert m2.content_hash() == m.content_hash()
        assert m.breakpoints == (1.0,)


class TestTimeGrid:
    def test_times_and_h(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert g.h == 0.25
        assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_index_of(self):
        g = TimeGrid(0.0, 10.0, 1000)
        assert g.index_of(4.0) == 400
        with pytest.raises(ModelError):
            g.index_of(4.0051)

    def test_breakpoints_must_sit_on_grid(self):
        m = build_model(1.0, 1.0, [
            {"t_from": 0.0, "rho": 1.0, "mu": 0.0, "sigma": 0.0},
            {"t_from": 1.0 / 3.0, "rho": 1.0, "mu": 1.0, "sigma": 0.0},
        ])
        assert TimeGrid(0.0, 1.0, 3).validate_model(m) == [1]
        # a grid that starts after the breakpoint does not contain it
        assert TimeGrid(0.5, 1.0, 10).validate_model(m) == []
        with pytest.raises(ModelError):
            TimeGrid(0.0, 1.0, 10).validate_model(m)

    def test_grid_must_lie_in_the_model_horizon(self):
        m = constant_model(1.0, 1.0, 0.5)
        assert TimeGrid(0.25, 0.75, 2).validate_model(m) == []
        for g in (TimeGrid(-0.5, 1.0, 3), TimeGrid(0.0, 1.5, 3)):
            with pytest.raises(ModelError, match="horizon"):
                g.validate_model(m)

    @pytest.mark.parametrize("fn", [
        solve_y_deterministic, solve_y_ode,
        lambda m, g: simulate_path(m, g, 0, 0)])
    def test_a_grid_before_time_zero_is_refused(self, fn):
        # the coefficients are undefined before 0: refuse, do not price
        model = jump_example_model(0.3, 4.0, 5.0)
        with pytest.raises(ModelError, match="horizon"):
            fn(model, TimeGrid(-1.0, 5.0, 600))


class TestStepTerms:
    MODEL = jump_example_model(0.3, 4.0, 5.0)

    def test_arrays_are_read_only(self):
        terms = step_terms(self.MODEL, TimeGrid(0.0, 5.0, 50))
        assert len(terms) == 6
        for a in terms:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_tail_grid_equals_a_direct_computation(self):
        model = build_model(5.0, 1.0, [
            {"t_from": 0.0, "rho": 0.3, "mu": 0.0, "sigma": 0.2},
            {"t_from": 4.0, "rho": 0.7, "mu": 1.0, "sigma": 0.5},
        ])
        grid = TimeGrid(2.0, 5.0, 300)
        step_terms.cache_clear()
        terms = step_terms(model, grid)
        t = grid.t0 + grid.h * np.arange(grid.n_steps)
        rho = np.where(t >= 4.0, 0.7, 0.3)
        mu = np.where(t >= 4.0, 1.0, 0.0)
        sigma = np.where(t >= 4.0, 0.5, 0.2)
        r = np.concatenate(([0.0], np.cumsum(rho * grid.h)))
        direct = dict(rho=rho, mu=mu, sigma=sigma,
                      log_drift=(mu - 0.5 * sigma**2) * grid.h,
                      decay=np.exp(-r), growth=np.exp(r))
        for name, want in direct.items():
            assert np.array_equal(getattr(terms, name), want), name
        # r is the integral of rho from the grid start
        exact = [model.rho.integral(grid.t0, s) for s in grid.times]
        assert np.allclose(terms.decay, np.exp(-np.array(exact)), rtol=1e-13)
        assert step_terms(model, grid) is terms


class TestSimulatePath:
    def test_exact_lognormal_stepping(self):
        m = constant_model(2.0, 1.5, 0.5, mu=0.1, sigma=0.3)
        g = TimeGrid(0.0, 2.0, 200)
        p = simulate_path(m, g, 42, 0)
        log_incr = (0.1 - 0.5 * 0.3**2) * g.h + 0.3 * p.w
        expected = 1.5 * np.exp(np.concatenate(([0.0], np.cumsum(log_incr))))
        assert np.allclose(p.gamma, expected, rtol=1e-14)
        assert np.allclose(p.alpha * p.gamma, 1.0, rtol=1e-15)

    def test_deterministic_when_sigma_zero(self):
        m = constant_model(1.0, 2.0, 0.5, mu=0.3)
        g = TimeGrid(0.0, 1.0, 100)
        p = simulate_path(m, g, 0, 0)
        assert np.allclose(p.gamma, 2.0 * np.exp(0.3 * g.times), rtol=1e-13)
        # the Brownian driver is still drawn for strategy use
        assert np.any(p.w != 0.0)

    def test_reproducible_per_path_id(self):
        m = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        g = TimeGrid(0.0, 1.0, 50)
        a = simulate_path(m, g, 7, 3)
        b = simulate_path(m, g, 7, 3)
        c = simulate_path(m, g, 7, 4)
        assert np.array_equal(a.gamma, b.gamma)
        assert not np.array_equal(a.gamma, c.gamma)

    def test_tail_subpath(self):
        m = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        g = TimeGrid(0.0, 1.0, 10)
        p = simulate_path(m, g, 1, 0)
        tail = p.tail(4)
        assert tail.grid.t0 == pytest.approx(0.4)
        assert np.array_equal(tail.gamma, p.gamma[4:])
        assert np.array_equal(tail.w, p.w[4:])

    @pytest.mark.parametrize("t0, sigma", [(0.0, 0.4), (0.0, 0.0), (0.3, 0.4)])
    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 7), (5, 12)])
    def test_chunk_rows_equal_single_paths(self, lo, hi, t0, sigma):
        m = build_model(1.0, 1.5, [
            {"t_from": 0.0, "rho": 0.5, "mu": 0.1, "sigma": sigma},
            {"t_from": 0.5, "rho": 0.7, "mu": -0.2, "sigma": 2 * sigma}])
        g = TimeGrid(t0, 1.0, 70)
        chunk = simulate_path(m, g, 13, range(lo, hi))
        assert chunk.w.shape == (hi - lo, 70)
        assert chunk.gamma.shape == chunk.alpha.shape == (hi - lo, 71)
        assert chunk.path_id == range(lo, hi)
        for row, i in enumerate(range(lo, hi)):
            p = simulate_path(m, g, 13, i)
            assert np.array_equal(chunk.w[row], p.w)
            assert np.array_equal(chunk.gamma[row], p.gamma)
            assert np.array_equal(chunk.alpha[row], p.alpha)

    def test_chunk_tail_slices_the_last_axis(self):
        m = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        g = TimeGrid(0.0, 1.0, 10)
        chunk = simulate_path(m, g, 1, range(3))
        tail = chunk.tail(4)
        assert tail.grid == TimeGrid(0.4, 1.0, 6)
        assert np.array_equal(tail.gamma, chunk.gamma[:, 4:])
        assert np.array_equal(tail.w, chunk.w[:, 4:])

    def test_started_grid_scales_initial_level_by_drift(self):
        m = constant_model(1.0, 2.0, 0.5, mu=0.4)
        sub = TimeGrid(0.5, 1.0, 10)
        p = simulate_path(m, sub, 0, 0)
        assert p.gamma[0] == pytest.approx(2.0 * np.exp(0.4 * 0.5), rel=1e-14)


class TestStochasticExponential:
    def test_deterministic_drift_only(self):
        dq = np.full(100, 0.02)
        e = stochastic_exponential(dq, np.zeros(100))
        assert e[0] == 1.0
        assert e[-1] == pytest.approx(np.exp(2.0), rel=1e-12)

    def test_quadratic_variation_correction(self):
        rng = np.random.default_rng(0)
        dw = rng.standard_normal(1000) * 0.01
        dq = 0.5 * dw
        e = stochastic_exponential(dq, (0.5 * 0.01) ** 2 * np.ones(1000) * 0.0
                                   + 0.25 * dw**2 * 0.0 + 0.25 * 1e-4)
        manual = np.exp(np.cumsum(dq - 0.5 * 0.25 * 1e-4))
        assert np.allclose(e[1:], manual, rtol=1e-13)

    def test_path_axis_broadcasts_against_shared_quadratic(self):
        rng = np.random.default_rng(4)
        dq = rng.standard_normal((3, 50)) * 0.1
        dqv = np.full(50, 0.01)
        e = stochastic_exponential(dq, dqv)
        assert e.shape == (3, 51)
        for row in range(3):
            assert np.array_equal(e[row], stochastic_exponential(dq[row], dqv))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stochastic_exponential(np.zeros(3), np.zeros(4))
