"""Optimal plans, counterexample strategies and consistency checks."""

import gc
import math
import weakref

import numpy as np
import pytest

from execlab import (JumpExample, ModelError, TimeGrid,
                     constant_model, counterexample_brownian,
                     counterexample_gbm, deviation_path,
                     dynamic_consistency_check, example_beta_path,
                     immediate_close, jump_example_model,
                     naive_deviation_path, ode_residual, optimal_plan,
                     pathwise_cost, pathwise_cost_naive, simulate_path,
                     solve_y_deterministic, solve_y_ode, step_terms)
from execlab.cli import SHOWCASE

# negative resilience offset by a positive drift
NEGRES = constant_model(5.0, 1.0, -0.1, mu=0.5)


def ow_plan(rho=0.5, T=10.0, n=1000, x=1.0, d=0.0, seed=0):
    model = constant_model(T, 1.0, rho)
    grid = TimeGrid(0.0, T, n)
    market = simulate_path(model, grid, seed, 0)
    vs = solve_y_deterministic(model, grid)
    return optimal_plan(model, vs, market, 0.0, x, d), model, grid, market, vs


class TestOptimalPlanClosedForm:
    def test_constant_resilience_position_path(self):
        plan, model, grid, market, vs = ow_plan()
        s = grid.times
        expected = (1.0 + (10.0 - s) * 0.5) / 7.0
        expected[-1] = 0.0
        assert np.max(np.abs(plan.x_star.values - expected)) <= 1e-12

    def test_terminal_block_size(self):
        # the last grid trade closes the position held at T - h
        plan, *_ = ow_plan()
        h = plan.grid.h
        assert plan.x_star.trades[-1] == pytest.approx(
            -(1.0 + 0.5 * h) / 7.0, rel=1e-12)

    def test_flat_start_produces_no_trading(self):
        # starting at d = gamma_t x the plan is identically zero
        plan, *_ = ow_plan(x=2.0, d=2.0)
        assert plan.scale == 0.0
        assert np.all(plan.x_star.values == 0.0)
        assert np.all(plan.d_star.values == 0.0)

    def test_a_plan_at_the_horizon_is_refused_by_name(self):
        # the internal tail grid once raised "n_steps must be positive"
        _, model, grid, market, vs = ow_plan()
        with pytest.raises(ValueError,
                           match=r"step before T: t = 10\.0 is T = 10\.0"):
            optimal_plan(model, vs, market, 10.0, 1.0, 0.0)

    def test_linearity_in_the_scale(self):
        p1, *_ = ow_plan(x=1.0)
        p2, *_ = ow_plan(x=2.0)
        assert np.allclose(p2.x_star.values, 2.0 * p1.x_star.values,
                           rtol=1e-14)
        assert np.allclose(p2.d_star.values, 2.0 * p1.d_star.values,
                           rtol=1e-14)

    def test_zero_resilience_closes_immediately(self):
        model = constant_model(5.0, 1.0, 0.0, mu=0.3, sigma=0.4)
        grid = TimeGrid(0.0, 5.0, 100)
        market = simulate_path(model, grid, 3, 0)
        vs = solve_y_ode(model, grid)
        plan = optimal_plan(model, vs, market, 0.0, 4.0, 1.0)
        ref = immediate_close(grid, 0.0, 4.0)
        assert np.array_equal(plan.x_star.values, ref.values)
        assert np.array_equal(plan.x_star.block_mask(), ref.block_mask())


class TestPlanInvariants:
    @pytest.fixture(params=["ow", "jump", "negres", "lambert"])
    def plan(self, request):
        if request.param == "ow":
            return ow_plan()[0]
        if request.param == "jump":
            model = jump_example_model(0.3, 4.0, 5.0)
            grid = TimeGrid(0.0, 5.0, 1000)
            market = simulate_path(model, grid, 0, 0)
            vs = solve_y_deterministic(model, grid)
            return optimal_plan(model, vs, market, 0.0, 100.0, 0.0)
        if request.param == "negres":
            grid = TimeGrid(0.0, 5.0, 1000)
            market = simulate_path(NEGRES, grid, 0, 0)
            vs = solve_y_deterministic(NEGRES, grid)
            return optimal_plan(NEGRES, vs, market, 0.0, 100.0, 0.0)
        model = constant_model(10.0, 1.0, 0.5, sigma=0.8)
        grid = TimeGrid(0.0, 10.0, 1000)
        market = simulate_path(model, grid, 5, 0)
        vs = solve_y_deterministic(model, grid)
        return optimal_plan(model, vs, market, 0.0, 100.0, 0.0)

    def test_impact_state_is_the_scaled_exponential(self, plan):
        a = plan.x_star.values - plan.market.alpha * plan.d_star.values
        ref = plan.scale * plan.exp_q
        scale = max(abs(plan.scale), 1e-300)
        # the impact state never moves off scale * E(Q), blocks included
        assert np.max(np.abs(a - ref)) <= 1e-10 * scale

    def test_deviation_constant_between_blocks(self, plan):
        if any(v != 0.0 for v in plan.model.sigma):
            pytest.skip("holds pathwise only for deterministic impact")
        blocks = plan.x_star.block_mask()
        d = plan.d_star.values
        # a step k -> k+1 moves the deviation only via the trade at k+1
        interior = ~(blocks[:-1] | blocks[1:])
        steps = np.abs(np.diff(d)[interior])
        ref = max(np.max(np.abs(d)), 1e-300)
        assert np.max(steps) <= 1e-10 * ref


class TestChunkedPlans:
    """A plan on a chunk of paths equals the single-path plans row by row."""

    @pytest.mark.parametrize("regime", ["lambert", "jump"])
    def test_optimal_plan_rows(self, regime):
        if regime == "lambert":
            model = constant_model(10.0, 1.0, 0.5, sigma=0.8)
            grid = TimeGrid(0.0, 10.0, 200)
            vs = solve_y_deterministic(model, grid)
        else:
            model = jump_example_model(0.3, 4.0, 5.0)
            grid = TimeGrid(0.0, 5.0, 200)
            vs = solve_y_deterministic(model, grid)
        chunk = simulate_path(model, grid, 4, range(2, 6))
        plan = optimal_plan(model, vs, chunk, 0.0, 100.0, 0.5)
        assert plan.x_star.block_mask().shape == (201,)
        assert plan.scale.shape == (4,)
        for row, i in enumerate(range(2, 6)):
            ref = optimal_plan(model, vs, simulate_path(model, grid, 4, i),
                               0.0, 100.0, 0.5)
            assert plan.scale[row] == ref.scale
            assert np.array_equal(plan.exp_q[row], ref.exp_q)
            assert np.array_equal(plan.x_star.values[row], ref.x_star.values)
            assert np.array_equal(plan.d_star.values[row], ref.d_star.values)
            assert np.array_equal(plan.d_star.pre_trade[row],
                                  ref.d_star.pre_trade)
            assert np.array_equal(plan.x_star.block_mask(),
                                  ref.x_star.block_mask())

    def test_counterexample_rows(self):
        model = constant_model(1.0, 1.0, 0.5, sigma=0.8)
        grid = TimeGrid(0.0, 1.0, 50)
        chunk = simulate_path(model, grid, 8, range(3))
        brown = counterexample_brownian(2.0, chunk)
        gbm = counterexample_gbm(-1.0, 3.0, chunk)
        for i in range(3):
            market = simulate_path(model, grid, 8, i)
            assert np.array_equal(brown.values[i],
                                  counterexample_brownian(2.0, market).values)
            assert np.array_equal(gbm.values[i],
                                  counterexample_gbm(-1.0, 3.0, market).values)


class TestJumpExample:
    def setup_method(self):
        self.rho, self.t0, self.T = 0.3, 4.0, 5.0
        self.grid = TimeGrid(0.0, self.T, 1000)
        self.vs = example_beta_path(JumpExample(self.rho, self.t0), self.T,
                                    self.grid)

    def test_matches_general_deterministic_solver(self):
        model = jump_example_model(self.rho, self.t0, self.T)
        ref = solve_y_deterministic(model, self.grid)
        assert np.max(np.abs(self.vs.y - ref.y)) <= 1e-12
        assert np.max(np.abs(self.vs.beta_tilde - ref.beta_tilde)) <= 1e-12

    def test_ratio_jump_size(self):
        k = self.grid.index_of(self.t0)
        jump = self.vs.beta_tilde[k] - self.vs.beta_pre[k]
        y_t0 = self.vs.y[k]
        assert jump == pytest.approx(y_t0 / (2.0 * self.rho + 1.0), rel=1e-10)

    def test_plan_trades_in_blocks_only(self):
        model = jump_example_model(self.rho, self.t0, self.T)
        market = simulate_path(model, self.grid, 0, 0)
        plan = optimal_plan(model, self.vs, market, 0.0, 100.0, 0.0)
        trades = plan.x_star.trades
        k = self.grid.index_of(self.t0)
        big = np.abs(trades) > 1.0
        assert set(np.flatnonzero(big)) == {0, k, len(trades) - 1}

    def test_unknown_example_rejected(self):
        with pytest.raises(TypeError):
            example_beta_path(object(), 1.0, self.grid)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            example_beta_path(JumpExample(0.3, 6.0), 5.0, self.grid)
        # a jump between grid points would silently drop the block trade
        with pytest.raises(ModelError, match="not a grid point"):
            example_beta_path(JumpExample(0.3, 4.0025), 5.0, self.grid)
        with pytest.raises(ValueError, match="horizon"):
            example_beta_path(JumpExample(0.3, 4.0), 5.0,
                              TimeGrid(0.0, 6.0, 1200))


class TestNegativeResilienceExample:
    def setup_method(self):
        self.grid = TimeGrid(0.0, 5.0, 1000)
        self.vs = solve_y_deterministic(NEGRES, self.grid)

    def test_ratio_exceeds_one_everywhere(self):
        assert np.all(self.vs.beta_tilde > 1.0)
        denom0 = 0.4**2 - 0.01 * math.exp(-2.5)
        assert self.vs.beta_tilde[0] == pytest.approx(0.2 / denom0, rel=1e-12)

    def test_solves_the_backward_equation(self):
        assert ode_residual(self.vs, NEGRES) <= 1e-4

    def test_initial_block_overshoots_the_position(self):
        market = simulate_path(NEGRES, self.grid, 0, 0)
        x = 100.0
        plan = optimal_plan(NEGRES, self.vs, market, 0.0, x, 0.0)
        x0 = plan.x_star.values[0]
        block = plan.x_star.trades[0]
        assert x0 < 0.0 < x            # the position flips sign
        assert abs(block) > abs(x)     # the opening trade overshoots


class TestCounterexamples:
    def setup_method(self):
        self.model = constant_model(1.0, 1.0, 0.05, sigma=0.0)
        self.grid = TimeGrid(0.0, 1.0, 200)
        self.market = simulate_path(self.model, self.grid, 9, 0)

    def test_zero_speed_is_the_zero_round_trip(self):
        s = counterexample_brownian(0.0, self.market)
        assert np.all(s.values == 0.0) and s.x_pre == 0.0

    def test_tracks_the_scaled_brownian_path(self):
        s = counterexample_brownian(2.0, self.market)
        w = np.concatenate(([0.0], np.cumsum(self.market.w)))
        assert np.array_equal(s.values[:-1], 2.0 * w[:-1])
        assert s.values[-1] == 0.0
        assert list(np.flatnonzero(s.block_mask())) == [self.grid.n_steps]

    def test_corrected_cost_adds_the_quadratic_charge(self):
        s = counterexample_brownian(2.0, self.market)
        dev = deviation_path(self.model, self.market, s)
        diff = (pathwise_cost(s, dev, self.market)
                - pathwise_cost_naive(s, dev, self.market))
        xi = s.trades
        mask = ~s.block_mask()
        expected = 0.5 * np.sum(self.market.gamma[mask] * xi[mask] ** 2)
        assert diff == pytest.approx(expected, rel=1e-12)
        assert diff > 0.0

    def test_geometric_round_trip_exact_stepping(self):
        model = constant_model(1.0, 0.5, 0.5, sigma=0.8)
        market = simulate_path(model, self.grid, 2, 0)
        s = counterexample_gbm(-1.0, 3.0, market)
        h = self.grid.h
        log_incr = -market.w - 0.5 * h
        expected = 3.0 * np.exp(np.concatenate(([0.0], np.cumsum(log_incr))))
        assert np.allclose(s.values[:-1], expected[:-1], rtol=1e-14)
        assert s.values[-1] == 0.0


def plan_arrays(plan):
    """Every array of a plan, its lazy deviation included."""
    return (plan.q_increments, plan.q_quadratic, plan.exp_q,
            plan.x_star.values, plan.x_star.block_mask(), plan.beta,
            plan.beta_pre, plan.scale, plan.d_star.values,
            plan.d_star.pre_trade, plan.d_star.impact_state,
            plan.value_solution.y, plan.value_solution.beta_pre)


def assert_same_plan(a, b):
    assert a.grid == b.grid
    for u, v in zip(plan_arrays(a), plan_arrays(b), strict=True):
        assert np.array_equal(u, v)


class TestHoistedTerms:
    """Arrays shared across paths and plans give the fresh results bit for bit."""

    @pytest.fixture(params=["lambert", "jump"])
    def setting(self, request):
        """Model, value-solution factory, grid and a replanning time."""
        if request.param == "lambert":
            model = constant_model(10.0, 1.0, 0.5, sigma=0.8)
            grid = TimeGrid(0.0, 10.0, 300)
            return (model, lambda: solve_y_deterministic(model, grid),
                    grid, 10.0 / 3.0)
        model = jump_example_model(0.3, 4.0, 5.0)
        grid = TimeGrid(0.0, 5.0, 300)
        return model, lambda: solve_y_deterministic(model, grid), grid, 2.0

    def test_replan_on_a_used_value_solution(self, setting):
        model, solve, grid, u = setting
        market = simulate_path(model, grid, 3, range(4))
        vs = solve()
        plan = optimal_plan(model, vs, market, 0.0, 100.0, 0.5)
        k = grid.index_of(u)
        x_u = plan.scale[:, None] * plan.exp_q[:, k:k + 1] \
            * (1.0 - plan.beta_pre[k])
        d_u = plan.d_star.pre_trade[:, k:k + 1]
        # the replan starts from one state per path: take path 1's
        x_u, d_u = float(x_u[1, 0]), float(d_u[1, 0])
        replan = optimal_plan(model, vs, market, u, x_u, d_u)
        assert_same_plan(replan, optimal_plan(model, solve(), market, u,
                                              x_u, d_u))
        # and the solution still plans from the start as a fresh one does
        assert_same_plan(optimal_plan(model, vs, market, 0.0, 100.0, 0.5),
                         optimal_plan(model, solve(), market, 0.0, 100.0,
                                      0.5))
        one = simulate_path(model, grid, 3, 1)
        assert dynamic_consistency_check(
            optimal_plan(model, vs, one, 0.0, 100.0, 0.5), u) == \
            dynamic_consistency_check(
                optimal_plan(model, solve(), one, 0.0, 100.0, 0.5), u)

    def test_other_models_terms_are_not_used(self, setting):
        model, solve, grid, _ = setting
        other = constant_model(grid.T, 1.0, 0.9, mu=0.1, sigma=0.3)
        other_vs = lambda: solve_y_ode(other, grid)  # noqa: E731
        market = simulate_path(model, grid, 3, range(4))
        # each model's first call finds the memo holding the other's terms
        for m, solve_m in ((other, other_vs), (model, solve)):
            plan = optimal_plan(m, solve_m(), market, 0.0, 100.0, 0.5)
            devs = [dev(m, market, plan.x_star, 0.5)
                    for dev in (deviation_path, naive_deviation_path)]
            step_terms.cache_clear()
            ref = optimal_plan(m, solve_m(), market, 0.0, 100.0, 0.5)
            assert_same_plan(plan, ref)
            for dev, got in zip((deviation_path, naive_deviation_path), devs):
                step_terms.cache_clear()
                want = dev(m, market, ref.x_star, 0.5)
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(got.pre_trade, want.pre_trade)

    def test_value_solution_is_freed_without_the_collector(self, setting):
        model, solve, grid, u = setting
        market = simulate_path(model, grid, 3, 0)
        gc.disable()
        try:
            vs = solve()
            ref = weakref.ref(vs)
            plan = optimal_plan(model, vs, market, 0.0, 100.0, 0.5)
            dynamic_consistency_check(plan, u)
            del plan, vs
            assert ref() is None
        finally:
            gc.enable()

    def test_lazy_deviation_equals_the_eager_arrays(self, setting):
        model, solve, grid, _ = setting
        market = simulate_path(model, grid, 3, range(4))
        plan = optimal_plan(model, solve(), market, 0.0, 100.0, 0.5)
        assert "d_star" not in vars(plan)
        # the arrays optimal_plan built before d_star became lazy
        scale = plan.scale[:, None]
        gamma = market.gamma
        values = scale * plan.exp_q * (-gamma * plan.beta)
        values[:, -1] = plan.scale * plan.exp_q[:, -1] * (-gamma[:, -1])
        pre = scale * plan.exp_q * (-gamma * plan.beta_pre)
        pre[:, 0] = 0.5
        d_star = plan.d_star
        assert d_star is plan.d_star and d_star.d_pre == 0.5
        assert np.array_equal(d_star.values, values)
        assert np.array_equal(d_star.pre_trade, pre)
        assert np.array_equal(d_star.impact_state,
                              plan.x_star.values - market.alpha * values)

    def test_shared_arrays_are_read_only(self, setting):
        model, solve, grid, _ = setting
        vs = solve()
        a = optimal_plan(model, vs, simulate_path(model, grid, 3, 0), 0.0,
                         100.0, 0.5)
        b = optimal_plan(model, vs, simulate_path(model, grid, 3, 1), 0.0,
                         100.0, 0.5)
        assert a.q_quadratic is b.q_quadratic
        for arr in (a.beta, a.beta_pre, a.q_quadratic, a.x_star.is_block):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestDynamicConsistency:
    def test_replanning_at_start_is_trivial(self):
        plan, *_ = ow_plan()
        assert dynamic_consistency_check(plan, 0.0) == 0.0

    def test_replanning_at_the_horizon_is_refused_by_name(self):
        plan, *_ = ow_plan()
        with pytest.raises(ValueError,
                           match=r"step before T: t = 10\.0 is T = 10\.0"):
            dynamic_consistency_check(plan, 10.0)

    def test_deterministic_replanning(self):
        plan, *_ = ow_plan()
        assert dynamic_consistency_check(plan, 5.0) <= 1e-12

    def test_replanning_across_a_drift_jump(self):
        model = jump_example_model(0.3, 4.0, 5.0)
        grid = TimeGrid(0.0, 5.0, 1000)
        market = simulate_path(model, grid, 0, 0)
        vs = solve_y_deterministic(model, grid)
        plan = optimal_plan(model, vs, market, 0.0, 100.0, 0.0)
        assert dynamic_consistency_check(plan, 4.0) <= 1e-12

    def test_stochastic_replanning(self):
        model = constant_model(10.0, 1.0, 0.5, sigma=0.8)
        grid = TimeGrid(0.0, 10.0, 2000)
        market = simulate_path(model, grid, 7, 0)
        vs = solve_y_deterministic(model, grid)
        plan = optimal_plan(model, vs, market, 0.0, 100.0, 0.0)
        assert dynamic_consistency_check(plan, 5.0) <= 1e-10


class TestOpeningBlockTrade:
    """The plan opens without a block trade exactly when
    d = -beta0 gamma0 x / (1 - beta0)."""

    X = 3.0
    MODELS = {"showcase": SHOWCASE,
              "constant": constant_model(10.0, 2.0, 0.5),
              "negres": NEGRES,
              "jump": jump_example_model(0.3, 4.0, 5.0)}

    def opening(self, model):
        """beta0, and the opening trades of the plan from (0, x, d) on four
        paths as a function of d."""
        grid = TimeGrid(0.0, model.T, 2000)
        vs = solve_y_deterministic(model, grid)
        market = simulate_path(model, grid, 5, range(4))
        return vs.beta_tilde[0], lambda d: optimal_plan(
            model, vs, market, 0.0, self.X, d).x_star.trades[:, 0]

    @pytest.mark.parametrize("name", MODELS)
    def test_no_block_at_the_critical_deviation(self, name):
        model = self.MODELS[name]
        beta0, trades = self.opening(model)
        critical = -beta0 * model.gamma0 * self.X / (1.0 - beta0)
        assert np.all(np.abs(trades(critical)) <= 1e-15 * self.X)
        for d in (critical + 0.1, 0.0):
            # (x - d/gamma0)(1 - beta0) - x
            want = -beta0 * self.X - d * (1.0 - beta0) / model.gamma0
            assert abs(want) > 1e-3 * self.X
            assert trades(d) == pytest.approx(np.full(4, want), rel=1e-12)

    @pytest.mark.parametrize("d", [0.0, 0.5, -2.0, 6.0])
    def test_zero_resilience_closes_for_every_deviation(self, d):
        # rho = 0: beta0 = 1, the opening trade is -x whatever d is
        model = constant_model(5.0, 1.0, 0.0, mu=0.3, sigma=0.4)
        beta0, trades = self.opening(model)
        assert beta0 == 1.0
        assert np.all(trades(d) == -self.X)
