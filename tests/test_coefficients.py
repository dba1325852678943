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
from execlab import (CoefficientModel, ModelError, TimeGrid, build_model,
                     constant_model, jump_example_model, model_from_config,
                     simulate_path, solve_y_deterministic, solve_y_ode,
                     step_coefficients, step_terms)
from execlab.bsde import _value_at
from execlab.cli import SHOWCASE
from execlab.coefficients import _stream_block
from piece_lookup import integral, value_at

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def piece(t_from, rho=0.5, mu=0.0, sigma=0.0):
    return {"t_from": t_from, "rho": rho, "mu": mu, "sigma": sigma}


THREE_PIECE_MODEL = build_model(3.0, 0.8, [piece(0.0, 0.5, 0.1),
                                           piece(1.0, -0.2, 0.7, 0.3),
                                           piece(2.0, 0.4, -0.3, 0.2)])


class TestPiecewiseConstant:
    """The model's piecewise-constant coefficients: one table of pieces,
    each right-continuous at its start."""

    def test_constant_value_everywhere(self):
        m = constant_model(20.0, 1.0, 2.5)
        assert m.starts == (0.0,) and m.breakpoints == ()
        assert np.all(step_coefficients(m, TimeGrid(0.0, 20.0, 7))[0] == 2.5)
        assert _value_at(m.starts, m.rho, 0.0) == 2.5
        assert _value_at(m.starts, m.rho, 17.3) == 2.5

    def test_right_continuity_at_breaks(self):
        m = build_model(2.0, 1.0, [piece(0.0, rho=3.0), piece(1.0, rho=7.0)])
        assert _value_at(m.starts, m.rho, 0.999999) == 3.0
        assert _value_at(m.starts, m.rho, 1.0) == 7.0
        # the step that starts at the breakpoint takes the new piece
        table = step_coefficients(m, TimeGrid(0.0, 2.0, 4))
        assert table[0].tolist() == [3.0, 3.0, 7.0, 7.0]

    @pytest.mark.parametrize("T, n", [
        (3.0, 6), (2.0, 4), (0.5, 5), (1.0, 4), (1.5, 3), (2.0, 2), (2.5, 5),
        (1.0, 1)],
        ids=["whole", "ends_at_break", "first_piece", "at_break",
             "middle_piece", "at_last_break", "last_piece", "one_piece"])
    def test_each_step_takes_the_piece_of_its_start(self, T, n):
        # the three-piece model cut at T, which is its own horizon, a
        # breakpoint or inside a piece, with one or more steps per piece
        pieces = THREE_PIECE_MODEL.to_dict()["pieces"]
        m = build_model(T, 0.8, [p for p in pieces if p["t_from"] < T])
        grid = TimeGrid(0.0, T, n)
        want = [[value_at(m, name, s) for s in grid.times[:-1]]
                for name in ("rho", "mu", "sigma")]
        assert step_coefficients(m, grid).tolist() == want

    def test_integral_exact(self):
        # with sigma = 0 the impact path carries gamma0 by exp(int_0^t mu),
        # exactly where the sums of mu h are exact in binary
        m = build_model(5.0, 1.5, [piece(0.0, mu=1.0), piece(2.0, mu=10.0)])
        grid = TimeGrid(0.0, 5.0, 10)
        gamma = step_terms(m, grid).gamma
        for t, drift in ((0.0, 0.0), (1.5, 1.5), (2.0, 2.0), (3.0, 12.0)):
            assert gamma[grid.index_of(t)] == 1.5 * np.exp(drift)

    @given(st.lists(st.floats(0.01, 10.0), max_size=4, unique=True),
           st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
           st.lists(st.floats(0.0, 12.0), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_call_matches_searchsorted(self, interior, values, extra):
        starts = (0.0,) + tuple(sorted(interior))
        values = tuple(values[:len(starts)])
        # every start itself is looked up, plus arbitrary times
        times = np.array(list(starts) + extra)
        idx = np.searchsorted(starts, times, side="right") - 1
        assert [_value_at(starts, values, t) for t in times] == \
            [values[i] for i in idx]

    @given(NON_FINITE, st.sampled_from(["starts", "rho", "mu", "sigma"]))
    @settings(max_examples=40, deadline=None)
    def test_rejects_non_finite_entries(self, bad, column):
        table = {"starts": (0.0, 1.0), "rho": (0.5, 0.5), "mu": (0.0, 0.0),
                 "sigma": (0.0, 0.0)}
        table[column] = (table[column][0], bad)
        with pytest.raises(ModelError):
            CoefficientModel(T=2.0, gamma0=1.0, **table)

    BAD_TABLES = [((1.0,), (0.5,), "start at 0"),
                  ((0.0, 0.0), (0.5, 0.5), "strictly increasing"),
                  ((0.0, 1.5, 1.0), (0.5, 0.5, 0.5), "strictly increasing"),
                  ((0.0, 2.0), (0.5, 0.5), r"in \[0, T\)"),
                  ((0.0, 2.5), (0.5, 0.5), r"in \[0, T\)"),
                  ((), (), "at least one piece"),
                  ((0.0, 1.0), (0.5,), "as many")]

    def test_rejects_bad_breaks(self):
        for starts, values, match in self.BAD_TABLES:
            with pytest.raises(ModelError, match=match):
                CoefficientModel(2.0, 1.0, starts, values, values,
                                 tuple(0.0 for _ in values))
            if len(values) == len(starts):  # build_model refuses the same
                with pytest.raises(ModelError, match=match):
                    build_model(2.0, 1.0, [piece(t, rho) for t, rho
                                           in zip(starts, values)])


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
    # 10**400: a JSON integer beyond the float range once overflowed float()
    @pytest.mark.parametrize("bad", ["0.5", True, 10**400],
                             ids=["str", "bool", "huge"])
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
        assert type(m.T) is float and type(m.sigma[0]) is float

    @pytest.mark.parametrize("model, digest", [
        (SHOWCASE, "b8102012beeb8a9f"),
        (jump_example_model(0.3, 4.0, 5.0), "b4fd2e4622b082c7"),
        (THREE_PIECE_MODEL, "da4b63a1d2e694b5")],
        ids=["showcase", "jump", "three_pieces"])
    def test_content_hash_is_pinned(self, model, digest):
        # the model_hash of every estimate and summary
        assert model.content_hash() == digest

    def test_a_first_start_of_minus_zero_hashes_as_zero(self):
        pieces = [piece(-0.0, 0.5, 0.1), piece(1.0, -0.2, 0.7, 0.3),
                  piece(2.0, 0.4, -0.3, 0.2)]
        m = build_model(3.0, 0.8, pieces)
        assert math.copysign(1.0, m.starts[0]) == 1.0
        assert m.content_hash() == THREE_PIECE_MODEL.content_hash()

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
        # inf raised OverflowError and NaN a bare ValueError from round
        for t in (4.0051, math.inf, -math.inf, math.nan, 10**400):
            with pytest.raises(ModelError, match="is not a grid point"):
                g.index_of(t)

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
        (0.0, "1", 4, "T"), ("0", 1.0, 4, "t0"), (0.0, 10**400, 4, "T")],
        ids=["bool_steps", "bool_end", "str_end", "str_start", "huge_end"])
    def test_refuses_bools_and_strings_by_name(self, t0, T, n, field):
        # a bool was a one-step grid or an end at 1; a string ended in
        # TypeError from np.isfinite, an integer beyond the float range in
        # OverflowError
        with pytest.raises(ModelError, match=f"^{field} must be"):
            TimeGrid(t0, T, n)

    def test_breakpoints_must_sit_on_grid(self):
        m = build_model(1.0, 1.0, [
            {"t_from": 0.0, "rho": 1.0, "mu": 0.0, "sigma": 0.0},
            {"t_from": 1.0 / 3.0, "rho": 1.0, "mu": 1.0, "sigma": 0.0},
        ])
        assert TimeGrid(0.0, 1.0, 3).validate_model(m) == [1]
        # a grid that ends before the breakpoint does not span the horizon
        with pytest.raises(ModelError, match="horizon"):
            TimeGrid(0.0, 0.25, 10).validate_model(m)
        with pytest.raises(ModelError, match="not a grid point"):
            TimeGrid(0.0, 1.0, 10).validate_model(m)

    def test_grid_must_lie_in_the_model_horizon(self):
        m = constant_model(1.0, 1.0, 0.5)
        assert TimeGrid(0.0, 1.0, 2).validate_model(m) == []
        # a grid spans the model's horizon: it ends neither before nor after
        for end in (0.75, 1.5):
            with pytest.raises(ModelError, match="horizon"):
                TimeGrid(0.0, end, 3).validate_model(m)
        # a grid starts at 0, so it never reaches before the model's start
        with pytest.raises(ModelError, match="t0 = 0"):
            TimeGrid(-0.5, 1.0, 3)

    @pytest.mark.parametrize("fn", [
        solve_y_deterministic, solve_y_ode,
        lambda m, g: simulate_path(m, g, 0, 0)])
    def test_a_grid_before_time_zero_is_refused(self, fn):
        # the coefficients are undefined before 0: the grid itself is
        # refused, before any solver or path sees it
        model = jump_example_model(0.3, 4.0, 5.0)
        with pytest.raises(ModelError, match="t0 = 0"):
            fn(model, TimeGrid(-1.0, 5.0, 600))


THREE_PIECES = [
    {"t_from": 0.0, "rho": 0.5, "mu": 0.1, "sigma": 0.0},
    {"t_from": 1.0, "rho": -0.2, "mu": 0.7, "sigma": 0.0},
    {"t_from": 2.0, "rho": 0.4, "mu": -0.3, "sigma": 0.0},
]
# the three-piece market from time 0.5 on, as a model of its own: every
# grid starts at 0, so a market started later is a shifted table
STARTED = build_model(2.5, 0.8 * math.exp(0.1 * 0.5), [
    dict(p, t_from=max(p["t_from"] - 0.5, 0.0)) for p in THREE_PIECES])
# sigma = 0 on every step: one piece with gamma0 != 1, three pieces with
# drift jumps and a negative resilience, and the same pieces started at 0.5
DETERMINISTIC = {
    "one_piece": (constant_model(2.0, 1.5, 0.5, mu=0.1),
                  TimeGrid(0.0, 2.0, 40)),
    "three_pieces": (build_model(3.0, 0.8, THREE_PIECES),
                     TimeGrid(0.0, 3.0, 60)),
    "started": (STARTED, TimeGrid(0.0, 2.5, 50)),
}


class TestStepTerms:
    MODEL = jump_example_model(0.3, 4.0, 5.0)

    @pytest.mark.parametrize("case", DETERMINISTIC)
    def test_deterministic_impact_path(self, case):
        model, grid = DETERMINISTIC[case]
        terms = step_terms(model, grid)
        want = model.gamma0 * np.exp(np.concatenate(([0.0],
                                              np.cumsum(terms.log_drift))))
        assert np.array_equal(terms.gamma, want)
        assert np.array_equal(terms.gamma_growth, want * terms.growth)
        # the level at time s is gamma0 exp(int_0^s mu)
        exact = [model.gamma0 * np.exp(integral(model, "mu", 0.0, s))
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
        # a grid with a breakpoint in its interior, far from its start
        model = build_model(5.0, 1.0, [
            {"t_from": 0.0, "rho": 0.3, "mu": 0.0, "sigma": 0.2},
            {"t_from": 4.0, "rho": 0.7, "mu": 1.0, "sigma": 0.5},
        ])
        grid = TimeGrid(0.0, 5.0, 500)
        step_terms.cache_clear()
        terms = step_terms(model, grid)
        t = grid.h * np.arange(grid.n_steps)
        rho = np.where(t >= 4.0, 0.7, 0.3)
        mu = np.where(t >= 4.0, 1.0, 0.0)
        sigma = np.where(t >= 4.0, 0.5, 0.2)
        r = np.concatenate(([0.0], np.cumsum(rho * grid.h)))
        direct = dict(rho=rho, mu=mu, sigma=sigma,
                      log_drift=(mu - 0.5 * sigma**2) * grid.h,
                      decay=np.exp(-r), growth=np.exp(r))
        for name, want in direct.items():
            assert np.array_equal(getattr(terms, name), want), name
        # r is the integral of rho from 0
        exact = [integral(model, "rho", 0.0, s) for s in grid.times]
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

    # short: how far the model's horizon, and the grid's end, fall short of 1
    @pytest.mark.parametrize("short, sigma",
                             [(0.0, 0.4), (0.0, 0.0), (0.3, 0.4)])
    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 7), (5, 12)])
    def test_chunk_rows_equal_single_paths(self, lo, hi, short, sigma):
        m = build_model(1.0 - short, 1.5, [
            {"t_from": 0.0, "rho": 0.5, "mu": 0.1, "sigma": sigma},
            {"t_from": 0.5, "rho": 0.7, "mu": -0.2, "sigma": 2 * sigma}])
        g = TimeGrid(0.0, 1.0 - short, 70)
        chunk = simulate_path(m, g, 13, range(lo, hi))
        assert chunk.w.shape == (hi - lo, 70)
        assert chunk.gamma.shape == chunk.alpha.shape == (hi - lo, 71)
        for row, i in enumerate(range(lo, hi)):
            p = simulate_path(m, g, 13, i)
            assert np.array_equal(chunk.w[row], p.w)
            assert np.array_equal(chunk.gamma[row], p.gamma)
            assert np.array_equal(chunk.alpha[row], p.alpha)


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

    @pytest.mark.parametrize("seed, ids, name", [
        (1.9, 0, "seed"), (True, 0, "seed"), (-3, range(2), "seed"),
        (1, 2.5, "path id"), (1, True, "path id"), (1, -1, "path id"),
        (1, range(-2, 2), "path id")])
    def test_seed_and_path_id_are_non_negative_integers(self, seed, ids,
                                                        name):
        # seed 1.9 once drew seed 1's path bit for bit, id 2.5 path 2's, and
        # a negative seed failed inside the seed hash without naming it
        with pytest.raises(ValueError,
                           match=f"^{name} must be a non-negative integer"):
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

