"""Market model and path simulation tests."""

import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import execlab
from execlab import (ModelError, PiecewiseConstant, TimeGrid, build_model,
                     constant_model, jump_example_model, model_from_config,
                     simulate_path, solve_y_deterministic, solve_y_ode,
                     step_terms)
from execlab.coefficients import _stream_block

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestPiecewiseConstant:
    def test_constant_value_everywhere(self):
        f = PiecewiseConstant((0.0,), (2.5,))
        assert f(0.0) == 2.5 and f(17.3) == 2.5

    def test_right_continuity_at_breaks(self):
        f = PiecewiseConstant((0.0, 1.0), (3.0, 7.0))
        assert f(0.999999) == 3.0
        assert f(1.0) == 7.0

    def test_integral_exact(self):
        f = PiecewiseConstant((0.0, 2.0), (1.0, 10.0))
        assert f.integral(0.0, 3.0) == 2.0 + 10.0
        assert f.integral(1.5, 2.5) == 0.5 + 5.0

    @pytest.mark.parametrize("f", [
        jump_example_model(0.3, 4.0, 5.0).mu,
        PiecewiseConstant((0.0,), (2.5,))], ids=["two_pieces", "one_piece"])
    def test_undefined_before_zero(self, f):
        # both lookups once answered here, with different pieces
        with pytest.raises(ModelError, match="before 0"):
            f(-1.0)

    @given(st.lists(st.floats(0.01, 10.0), max_size=4, unique=True),
           st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
           st.lists(st.floats(0.0, 12.0), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_call_matches_searchsorted(self, interior, values, extra):
        breaks = (0.0,) + tuple(sorted(interior))
        f = PiecewiseConstant(breaks, tuple(values[:len(breaks)]))
        # every breakpoint itself is looked up, plus arbitrary times
        times = np.array(list(breaks) + extra)
        idx = np.searchsorted(breaks, times, side="right") - 1
        assert [f(t) for t in times] == [f.values[i] for i in idx]

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

    PIECE = {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.2}

    def test_missing_piece_key_is_named(self):
        piece = {k: v for k, v in self.PIECE.items() if k != "sigma"}
        with pytest.raises(ModelError,
                           match=r"pieces\[0\] has no key 'sigma'"):
            build_model(1.0, 1.0, [piece])

    def test_missing_config_key_is_named(self):
        with pytest.raises(ModelError, match=r"missing \['gamma0'\]"):
            model_from_config({"T": 1.0, "pieces": [self.PIECE]})

    def test_pieces_must_be_a_list(self):
        with pytest.raises(ModelError, match="pieces must be a list"):
            model_from_config({"T": 1.0, "gamma0": 1.0, "pieces": {"a": 1}})

    def test_piece_must_be_an_object(self):
        with pytest.raises(ModelError, match=r"pieces\[1\] must be an object"):
            build_model(2.0, 1.0, [self.PIECE, 0.5])

    @pytest.mark.parametrize("field", ["T", "gamma0", "t_from", "rho", "mu",
                                       "sigma"])
    @pytest.mark.parametrize("bad", ["0.5", True], ids=["str", "bool"])
    def test_value_must_be_a_real_number(self, field, bad):
        cfg = {"T": 1.0, "gamma0": 1.0, "pieces": [dict(self.PIECE)]}
        if field in ("T", "gamma0"):
            cfg[field] = bad
        else:
            cfg["pieces"][0][field] = bad
        with pytest.raises(ModelError, match=f"{field} must be a real number"):
            model_from_config(cfg)

    def test_numpy_scalars_are_accepted(self):
        m = build_model(np.float32(2.0), np.int64(1), [
            {"t_from": np.float64(0.0), "rho": np.float32(0.5),
             "mu": np.int32(0), "sigma": np.float64(0.2)}])
        assert m == constant_model(2.0, 1.0, 0.5, sigma=0.2)
        assert type(m.T) is float and type(m.sigma.values[0]) is float

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

    @pytest.mark.parametrize("t0, T, n", [
        (0.0, 1.0, 2.5), (0.0, 1.0, 10.0), (0.0, 1.0, "10"),
        (math.nan, 1.0, 10), (0.0, math.nan, 10), (-math.inf, 1.0, 10),
        (0.0, math.inf, 10)])
    def test_refuses_fractional_steps_and_non_finite_ends(self, t0, T, n):
        # TimeGrid(0, 1, 2.5) once had the times [0, 0.4, 0.8, 1.2]
        with pytest.raises(ModelError):
            TimeGrid(t0, T, n)

    @pytest.mark.parametrize("t0, T, n, field", [
        (0.0, 1.0, True, "n_steps"), (0.0, True, 4, "T"),
        (0.0, "1", 4, "T"), ("0", 1.0, 4, "t0")],
        ids=["bool_steps", "bool_end", "str_end", "str_start"])
    def test_refuses_bools_and_strings_by_name(self, t0, T, n, field):
        # a bool was a one-step grid or an end at 1; a string ended in
        # TypeError from np.isfinite
        with pytest.raises(ModelError, match=f"^{field} must be"):
            TimeGrid(t0, T, n)

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


THREE_PIECES = [
    {"t_from": 0.0, "rho": 0.5, "mu": 0.1, "sigma": 0.0},
    {"t_from": 1.0, "rho": -0.2, "mu": 0.7, "sigma": 0.0},
    {"t_from": 2.0, "rho": 0.4, "mu": -0.3, "sigma": 0.0},
]
# sigma = 0 on every step: one piece with gamma0 != 1, three pieces with
# drift jumps and a negative resilience, and a grid starting at t0 > 0
DETERMINISTIC = {
    "one_piece": (constant_model(2.0, 1.5, 0.5, mu=0.1),
                  TimeGrid(0.0, 2.0, 40)),
    "three_pieces": (build_model(3.0, 0.8, THREE_PIECES),
                     TimeGrid(0.0, 3.0, 60)),
    "started": (build_model(3.0, 0.8, THREE_PIECES),
                TimeGrid(0.5, 3.0, 50)),
}


class TestStepTerms:
    MODEL = jump_example_model(0.3, 4.0, 5.0)

    @pytest.mark.parametrize("case", DETERMINISTIC)
    def test_deterministic_impact_path(self, case):
        model, grid = DETERMINISTIC[case]
        terms = step_terms(model, grid)
        start = model.gamma0 * np.exp(model.mu.integral(0.0, grid.t0))
        want = start * np.exp(np.concatenate(([0.0],
                                              np.cumsum(terms.log_drift))))
        assert np.array_equal(terms.gamma, want)
        assert np.array_equal(terms.gamma_growth, want * terms.growth)
        # the level at time s is gamma0 exp(int_0^s mu)
        exact = [model.gamma0 * np.exp(model.mu.integral(0.0, s))
                 for s in grid.times]
        assert np.allclose(terms.gamma, exact, rtol=1e-13)
        for a in (terms.gamma, terms.gamma_growth):
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("piece", range(3))
    def test_stochastic_impact_on_one_piece_has_no_impact_path(self, piece):
        pieces = [dict(p) for p in THREE_PIECES]
        pieces[piece]["sigma"] = 0.3
        terms = step_terms(build_model(3.0, 0.8, pieces),
                           TimeGrid(0.0, 3.0, 60))
        assert terms.gamma is None and terms.gamma_growth is None

    def test_arrays_are_read_only(self):
        # sigma = 0: the shared impact path and its product are built too
        terms = step_terms(self.MODEL, TimeGrid(0.0, 5.0, 50))
        assert len(terms) == 8
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


class TestPathStreams:
    """Row i of a path draw is numpy's stream ``(seed, i)``, bit for bit."""

    MODEL = constant_model(1.0, 1.0, 0.5, sigma=0.4)
    GRID = TimeGrid(0.0, 1.0, 50)

    def reference_w(self, seed, i):
        return (np.random.default_rng(np.random.SeedSequence((seed, i)))
                .standard_normal(self.GRID.n_steps) * np.sqrt(self.GRID.h))

    def check_rows(self, seed, ids):
        chunk = simulate_path(self.MODEL, self.GRID, seed, ids)
        for row, i in zip(chunk.w, ids):
            assert np.array_equal(row, self.reference_w(seed, i))
            # an int id draws the row of the matching range
            assert np.array_equal(
                simulate_path(self.MODEL, self.GRID, seed, i).w, row)

    @pytest.mark.parametrize("seed", [0, 987654321, 2**40 + 3, 2**130 + 7])
    @pytest.mark.parametrize("ids", [range(4), range(1020, 1030),
                                     range(2**32 - 3, 2**32 + 3)],
                             ids=["first", "block_edge", "word_edge"])
    def test_rows_are_seed_sequence_streams(self, seed, ids):
        self.check_rows(seed, ids)

    def test_alternating_seeds_miss_the_block_memo(self):
        for _ in range(3):
            for seed in (5, 6):
                self.check_rows(seed, range(1022, 1026))
        _stream_block.cache_clear()
        for seed in (5, 6, 5, 6):
            simulate_path(self.MODEL, self.GRID, seed, 7)
        assert _stream_block.cache_info().misses == 4

    @pytest.mark.parametrize("seed, ids", [(-1, 0), (0, -1), (3, range(-2, 2))])
    def test_negative_seed_or_id_raises_like_seed_sequence(self, seed, ids):
        with pytest.raises(ValueError):
            np.random.SeedSequence((seed, ids[0] if isinstance(ids, range)
                                    else ids))
        with pytest.raises(ValueError):
            simulate_path(self.MODEL, self.GRID, seed, ids)

    def test_threads_draw_their_own_streams(self):
        # the shared generator is set and drawn under one lock: a row drawn
        # after another thread reset the state would not be its stream
        ids = range(1020, 1030)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(simulate_path, self.MODEL, self.GRID,
                                       seed % 3, ids) for seed in range(96)]
                draws = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for seed, market in enumerate(draws):
            for row, i in zip(market.w, ids):
                assert np.array_equal(row, self.reference_w(seed % 3, i))

    def test_import_leaves_numpy_random_unloaded(self):
        # the shared generator is made at the first draw, not at import
        src = str(Path(execlab.__file__).resolve().parents[1])
        code = ("import sys, execlab; "
                "sys.exit('numpy.random' in sys.modules)")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

