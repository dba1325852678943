"""Cost functionals, Monte Carlo estimation and closed forms."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execlab import (GridMismatch, Strategy, TimeGrid, closed_form_cost_gbm,
                     closed_form_naive_brownian, constant_model,
                     counterexample_brownian, counterexample_gbm,
                     deviation_path, estimate_cost, immediate_close,
                     naive_deviation_path, optimal_plan, pathwise_cost,
                     pathwise_cost_naive, quadratic_representation_rhs,
                     simulate_path, solve_y_deterministic, step_terms,
                     value_function)
from execlab.cli import SHOWCASE
from execlab.cost import CHUNK_ELEMENTS, path_chunks
from term_builds import spy_builds


def make_setup(n=50, T=1.0, rho=0.5, mu=0.0, sigma=0.0, gamma0=1.0, seed=0):
    model = constant_model(T, gamma0, rho, mu=mu, sigma=sigma)
    grid = TimeGrid(0.0, T, n)
    market = simulate_path(model, grid, seed, 0)
    return model, grid, market


class TestPathwiseCost:
    def test_zero_strategy_costs_nothing(self):
        model, grid, market = make_setup()
        s = Strategy(grid=grid, x_pre=0.0, values=np.zeros(grid.n_steps + 1),
                     is_block=np.ones(grid.n_steps + 1, dtype=bool))
        dev = deviation_path(model, market, s)
        assert pathwise_cost(s, dev, market) == 0.0
        assert pathwise_cost_naive(s, dev, market) == 0.0

    def test_immediate_close_arithmetic(self):
        # close x = 1.5 at t = 0 into deviation d = 3 with gamma = 2:
        # cost = (3 + 2/2 * (-1.5)) * (-1.5) = -2.25
        model, grid, market = make_setup(gamma0=2.0)
        s = immediate_close(grid, 0.0, 1.5)
        dev = deviation_path(model, market, s, d_pre=3.0)
        assert pathwise_cost(s, dev, market) == pytest.approx(-2.25, rel=1e-14)

    def test_flat_book_single_close(self):
        # with d = 0, closing x = 1 costs exactly gamma/2
        model, grid, market = make_setup(gamma0=4.0)
        s = immediate_close(grid, 0.0, 1.0)
        dev = deviation_path(model, market, s)
        assert pathwise_cost(s, dev, market) == pytest.approx(2.0, rel=1e-14)

    @given(st.sampled_from([-2.0, 0.5, 3.0]))
    @settings(max_examples=3, deadline=None)
    def test_quadratic_homogeneity(self, lam):
        model, grid, market = make_setup(n=40, sigma=0.4, seed=2)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(41)
        values[-1] = 0.0
        blocks = np.ones(41, dtype=bool)
        s1 = Strategy(grid=grid, x_pre=0.8, values=values, is_block=blocks)
        s2 = Strategy(grid=grid, x_pre=lam * 0.8, values=lam * values,
                      is_block=blocks)
        d1 = deviation_path(model, market, s1, d_pre=0.5)
        d2 = deviation_path(model, market, s2, d_pre=lam * 0.5)
        c1 = pathwise_cost(s1, d1, market)
        c2 = pathwise_cost(s2, d2, market)
        assert c2 == pytest.approx(lam**2 * c1, rel=1e-12)

    def test_naive_matches_corrected_for_pure_jump(self):
        model, grid, market = make_setup(n=30, sigma=0.3, seed=4)
        rng = np.random.default_rng(1)
        values = rng.standard_normal(31)
        values[-1] = 0.0
        s = Strategy(grid=grid, x_pre=0.4, values=values,
                     is_block=np.ones(31, dtype=bool))
        dev = deviation_path(model, market, s)
        assert pathwise_cost_naive(s, dev, market) == pytest.approx(
            pathwise_cost(s, dev, market), rel=1e-14)

    def test_a_deviation_on_another_grid_is_refused(self):
        # a cost prices only its deviation's own strategy and market, and
        # the representation checks the solution's grid; the grids have as
        # many steps, so only the checks can refuse
        model, grid, market = make_setup()
        s = immediate_close(grid, 0.0, 1.0)
        other = TimeGrid(0.0, 2.0, grid.n_steps)
        other_model = constant_model(2.0, 1.0, 0.5)
        dev = deviation_path(other_model,
                             simulate_path(other_model, other, 0, 0),
                             immediate_close(other, 0.0, 1.0))
        for cost in (pathwise_cost, pathwise_cost_naive):
            with pytest.raises(ValueError, match="deviation's strategy and"):
                cost(s, dev, market)
        with pytest.raises(GridMismatch):
            quadratic_representation_rhs(
                solve_y_deterministic(model, grid), dev)

    @pytest.mark.parametrize("cost", [pathwise_cost, pathwise_cost_naive])
    @pytest.mark.parametrize("operand", ["strategy", "market"])
    def test_only_the_deviations_own_operands_are_priced(self, cost, operand):
        # another path's market of the same model once gave -0.227 for a
        # cost of 0.129, with no error; an equal copy of the strategy is
        # refused as well: the deviation holds the one it was built from
        model, grid, market = make_setup(n=200, sigma=0.8)
        s = immediate_close(grid, 0.5, 1.0)
        dev = deviation_path(model, market, s, 0.7)
        args = {"strategy": s, "deviation": dev, "market": market}
        args[operand] = {"strategy": immediate_close(grid, 0.5, 1.0),
                         "market": simulate_path(model, grid, 0, 1)}[operand]
        with pytest.raises(ValueError, match="deviation's strategy and"):
            cost(**args)

    def test_a_deviation_of_another_model_is_refused(self):
        # the representation once read 0.1089 for a deviation drawn under
        # another model, against 0.1045 for this model's own, with no error
        model, grid, _ = make_setup(sigma=0.3)
        other = constant_model(1.0, 1.0, 0.9, mu=0.4, sigma=0.3)
        market = simulate_path(other, grid, 0, 0)
        dev = deviation_path(other, market, immediate_close(grid, 0.5, 1.0),
                             0.5)
        with pytest.raises(ValueError, match="drawn under another model"):
            quadratic_representation_rhs(solve_y_deterministic(model, grid),
                                         dev)


class TestEstimateCost:
    def test_deterministic_model_has_zero_std_error(self):
        model = constant_model(1.0, 1.0, 0.5)
        grid = TimeGrid(0.0, 1.0, 20)
        est = estimate_cost(model, grid, 10, 0,
                            lambda m: immediate_close(grid, 0.0, 1.0))
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(0.5, rel=1e-14)

    def test_reproducible_and_serializable(self):
        model = constant_model(1.0, 0.5, 0.5, sigma=0.4)
        grid = TimeGrid(0.0, 1.0, 20)
        factory = lambda m: counterexample_brownian(1.0, m)  # noqa: E731
        a = estimate_cost(model, grid, 50, 11, factory, naive=True)
        b = estimate_cost(model, grid, 50, 11, factory, naive=True)
        assert a == b
        blob = json.loads(json.dumps(dataclasses.asdict(a)))
        assert blob["n_paths"] == 50 and blob["seed"] == 11
        assert blob["mean"] == a.mean

    def test_requires_two_paths(self):
        model = constant_model(1.0, 1.0, 0.5)
        grid = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            estimate_cost(model, grid, 1, 0,
                          lambda m: immediate_close(grid, 0.0, 1.0))

    @pytest.mark.parametrize("seed", [1.9, True, -3])
    def test_seed_is_a_non_negative_integer(self, seed):
        # seed = 1.9 once returned seed 1's estimate, recorded as seed 1.9
        model = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        grid = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="^seed must be a non-negative"):
            estimate_cost(model, grid, 4, seed,
                          lambda m: immediate_close(grid, 0.0, 1.0))

    def test_value_function_is_a_lower_bound(self):
        model = constant_model(1.0, 1.0, 0.5, sigma=0.5)
        grid = TimeGrid(0.0, 1.0, 100)
        x, d = 2.0, 0.0
        est = estimate_cost(model, grid, 400, 3,
                            lambda m: immediate_close(grid, 0.0, x))
        # the deterministic-impact value factor upper-bounds the true one,
        # so its value quote still lower-bounds any suboptimal strategy cost
        vs = solve_y_deterministic(constant_model(1.0, 1.0, 0.5), grid)
        v = value_function(vs.y[0], 1.0, x, d).v
        assert v <= est.mean + 3.0 * est.std_error


def chunk_size(grid):
    return max(1, CHUNK_ELEMENTS // (grid.n_steps + 1))


def per_path_estimate(model, grid, n_paths, seed, factory, d_pre=0.0,
                      naive=False, naive_dynamics=False):
    """Plain loop over single paths with estimate_cost's reduction."""
    dev_fn = naive_deviation_path if naive_dynamics else deviation_path
    cost_fn = pathwise_cost_naive if naive else pathwise_cost
    costs = np.empty(n_paths)
    for i in range(n_paths):
        market = simulate_path(model, grid, seed, i)
        strat = factory(market)
        costs[i] = cost_fn(strat, dev_fn(model, market, strat, d_pre), market)
    mean = float(np.sum(costs) / n_paths)
    var = float(np.sum((costs - mean) ** 2) / (n_paths - 1))
    return mean, float(np.sqrt(var / n_paths))


class TestChunkedEstimate:
    """estimate_cost over chunks equals the per-path loop bit for bit."""

    MODEL = constant_model(2.0, 1.0, 0.5, sigma=0.8)

    @pytest.fixture(params=["many_per_chunk", "one_per_chunk"])
    def sized_grid(self, request):
        if request.param == "many_per_chunk":
            grid = TimeGrid(0.0, 2.0, 50)
            chunk = chunk_size(grid)
            assert chunk > 3
            n_paths = 2 * chunk + 3  # two full chunks and a partial one
        else:
            grid = TimeGrid(0.0, 2.0, CHUNK_ELEMENTS)
            assert chunk_size(grid) == 1
            n_paths = 3
        return grid, n_paths

    def check(self, grid, n_paths, factory, **kw):
        est = estimate_cost(self.MODEL, grid, n_paths, 17, factory, **kw)
        ref = per_path_estimate(self.MODEL, grid, n_paths, 17, factory, **kw)
        assert (est.mean, est.std_error) == ref
        assert est.std_error > 0.0

    def test_optimal_plan(self, sized_grid):
        grid, n_paths = sized_grid
        vs = solve_y_deterministic(self.MODEL, grid)
        self.check(grid, n_paths,
                   lambda m: optimal_plan(self.MODEL, vs, m, 0.0, 10.0,
                                          0.5).x_star,
                   d_pre=0.5)

    def test_counterexample_brownian(self, sized_grid):
        grid, n_paths = sized_grid
        self.check(grid, n_paths, lambda m: counterexample_brownian(2.0, m),
                   naive=True)

    def test_counterexample_gbm(self, sized_grid):
        grid, n_paths = sized_grid
        self.check(grid, n_paths, lambda m: counterexample_gbm(-1.0, 1.0, m),
                   naive_dynamics=True)

    def test_immediate_close(self, sized_grid):
        grid, n_paths = sized_grid
        self.check(grid, n_paths,
                   lambda m: immediate_close(grid, 1.0, 2.0), d_pre=0.3,
                   naive=True)

    @pytest.mark.parametrize("kind", ["optimal", "gbm"])
    def test_one_step_terms_per_call(self, sized_grid, kind, monkeypatch):
        grid, n_paths = sized_grid
        vs = solve_y_deterministic(self.MODEL, grid)
        factory = {
            "optimal": lambda m: optimal_plan(self.MODEL, vs, m, 0.0, 10.0,
                                              0.5).x_star,
            "gbm": lambda m: counterexample_gbm(-1.0, 1.0, m)}[kind]
        builds = spy_builds(monkeypatch)
        for naive_dynamics in (False, True):
            builds.clear()
            estimate_cost(self.MODEL, grid, n_paths, 17, factory, d_pre=0.5,
                          naive_dynamics=naive_dynamics)
            assert len(builds) == 1

    def test_priced_chunk_is_released_before_the_next_is_drawn(self):
        # the peak holds the pass's step terms and the six arrays of the
        # chunk being priced, and none of the chunk before: the next chunk
        # reuses their memory.  The terms are built before the pool, so it
        # keeps none of their temporaries: the peak exceeds the one without
        # the terms by what they hold
        grid = TimeGrid(0.0, 10.0, 10_000)
        vs = solve_y_deterministic(SHOWCASE, grid)
        chunks = list(path_chunks(6, grid))
        assert len(chunks) >= 2

        def estimate():
            return estimate_cost(SHOWCASE, grid, 6, 1, lambda m: optimal_plan(
                SHOWCASE, vs, m, 0.0, 100.0, 0.0).x_star)

        estimate()  # the memos of the streams
        tracemalloc.start()
        try:
            terms = step_terms(SHOWCASE, grid)
            terms_bytes = tracemalloc.get_traced_memory()[0]
            del terms
            tracemalloc.reset_peak()
            estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 8 * len(chunks[0]) * (grid.n_steps + 1) + terms_bytes


class TestValueFunction:
    def test_formula(self):
        q = value_function(0.25, 2.0, 3.0, 1.0)
        expected = (0.25 / 2.0) * (1.0 - 6.0) ** 2 - 1.0 / 4.0
        assert q.v == pytest.approx(expected, rel=1e-15)

    def test_flat_state_costs_nothing(self):
        # when d = gamma x the optimal cost is -d^2/(2 gamma) + 0
        q = value_function(0.3, 2.0, 1.5, 3.0)
        assert q.v == pytest.approx(-9.0 / 4.0, rel=1e-14)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            value_function(0.25, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["y_t", "gamma_t", "x", "d"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     pytest.param(10**400, id="huge")])
    def test_non_finite_inputs_are_refused_by_name(self, field, bad):
        # a NaN gamma_t passed the positivity test and gave v = nan
        args = dict(y_t=0.25, gamma_t=2.0, x=3.0, d=1.0) | {field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            value_function(**args)


class TestQuadraticRepresentation:
    def test_optimal_plan_attains_the_head_term(self):
        # along the optimal plan the integrand vanishes identically, so the
        # pathwise right-hand side equals V(0, x, d) exactly
        rho, T = 0.5, 1.0
        model = constant_model(T, 1.0, rho)
        grid = TimeGrid(0.0, T, 200)
        market = simulate_path(model, grid, 0, 0)
        vs = solve_y_deterministic(model, grid)
        x, d = 2.0, 0.3
        plan = optimal_plan(model, vs, market, 0.0, x, d)
        rhs = quadratic_representation_rhs(vs, plan.d_star)
        v = value_function(vs.y[0], 1.0, x, d).v
        assert rhs == pytest.approx(v, rel=1e-12)

    def test_suboptimal_strategy_pays_extra(self):
        model = constant_model(1.0, 1.0, 0.5)
        grid = TimeGrid(0.0, 1.0, 500)
        market = simulate_path(model, grid, 0, 0)
        vs = solve_y_deterministic(model, grid)
        s = immediate_close(grid, 0.0, 1.0)
        dev = deviation_path(model, market, s)
        rhs = quadratic_representation_rhs(vs, dev)
        cost = pathwise_cost(s, dev, market)
        v = value_function(vs.y[0], 1.0, 1.0, 0.0).v
        assert rhs > v
        # left-endpoint Riemann sum reproduces the realized cost up to O(h)
        assert rhs == pytest.approx(cost, abs=5.0 / 500)


class TestChunkedQuadraticRepresentation:
    """Rows of the representation on a chunk equal the single-path calls."""

    MODEL = constant_model(2.0, 1.0, 0.5, sigma=0.8)

    @pytest.mark.parametrize("n_steps", [50, CHUNK_ELEMENTS],
                             ids=["many_per_chunk", "one_per_chunk"])
    def test_rows_equal_single_paths(self, n_steps):
        grid = TimeGrid(0.0, 2.0, n_steps)
        ids = range(5, 5 + chunk_size(grid))
        vs = solve_y_deterministic(self.MODEL, grid)
        s = immediate_close(grid, 1.0, 1.5)

        def rhs(market):
            dev = deviation_path(self.MODEL, market, s, 0.2)
            return quadratic_representation_rhs(vs, dev)

        rows = rhs(simulate_path(self.MODEL, grid, 11, ids))
        assert rows.shape == (len(ids),)
        for row, i in zip(rows, ids):
            single = rhs(simulate_path(self.MODEL, grid, 11, i))
            assert isinstance(single, float) and row == single


class TestClosedFormNaiveBrownian:
    def test_zero_speed_costs_nothing(self):
        assert closed_form_naive_brownian(1.0, 0.5, 1.0, 0.0) == 0.0

    def test_reference_value(self):
        # (gamma nu^2 / rho)(e^{-rho T} - 1 + rho T / 2) at gamma=10, rho=0.5
        got = closed_form_naive_brownian(10.0, 0.5, 1.0, 1.0)
        assert got == pytest.approx(20.0 * (np.exp(-0.5) - 0.75), rel=1e-14)

    def test_negative_and_quadratic_in_nu(self):
        c1 = closed_form_naive_brownian(1.0, 0.05, 1.0, 1.0)
        c2 = closed_form_naive_brownian(1.0, 0.05, 1.0, 2.0)
        assert c1 < 0.0
        assert c2 == pytest.approx(4.0 * c1, rel=1e-14)

    def test_rho_zero_rejected(self):
        with pytest.raises(ValueError):
            closed_form_naive_brownian(1.0, 0.0, 1.0, 1.0)


class TestClosedFormGbm:
    def test_singularities_rejected(self):
        with pytest.raises(ValueError):
            closed_form_cost_gbm(1.0, 1.0, 0.8, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            closed_form_cost_gbm(1.0, 1.0, 0.8, 0.5, 1.0, -1.6)
        with pytest.raises(ValueError):
            closed_form_cost_gbm(1.0, 1.0, 1.0, 0.5, 1.0, 1.0)  # 2rho = sigma^2
        # nu^2 + 2 sigma nu + rho = 1 - 3 + 2 = 0 exactly
        with pytest.raises(ValueError, match=r"2 sigma nu \+ rho = 0"):
            closed_form_cost_gbm(1.0, 1.0, 1.5, 2.0, 1.0, -1.0)

    def test_continuous_through_nu_zero(self):
        lo = closed_form_cost_gbm(2.0, 3.0, 0.8, 0.5, 1.0, -1e-6)
        hi = closed_form_cost_gbm(2.0, 3.0, 0.8, 0.5, 1.0, 1e-6)
        flat = 0.5 * 2.0 * 9.0  # holding then closing: gamma0 x^2 / 2 limit
        assert lo == pytest.approx(flat, rel=1e-4)
        assert hi == pytest.approx(flat, rel=1e-4)

    def test_decreases_without_bound_in_negative_nu(self):
        vals = [closed_form_cost_gbm(1.0, 100.0, 0.8, 0.5, 5.0, nu)
                for nu in (-2.0, -4.0, -6.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -1e10
