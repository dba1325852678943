"""Deviation dynamics and impact state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execlab import (DeviationPath, GridMismatch, Strategy, TimeGrid,
                     constant_model, deviation_path, immediate_close,
                     jump_example_model, naive_deviation_path, optimal_plan,
                     simulate_path, solve_y_deterministic)


def all_blocks(grid):
    return np.ones(grid.n_steps + 1, dtype=bool)


def make_setup(n=100, T=1.0, rho=0.5, mu=0.0, sigma=0.0, gamma0=1.0, seed=0):
    model = constant_model(T, gamma0, rho, mu=mu, sigma=sigma)
    grid = TimeGrid(0.0, T, n)
    market = simulate_path(model, grid, seed, 0)
    return model, grid, market


class TestStrategyType:
    def test_terminal_value_enforced(self):
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Strategy(grid=g, x_pre=1.0, values=np.array([1.0, 1, 1, 1, 1.0]),
                     is_block=all_blocks(g))

    def test_trades_include_initial_block(self):
        g = TimeGrid(0.0, 1.0, 2)
        s = Strategy(grid=g, x_pre=2.0, values=np.array([1.5, 1.0, 0.0]),
                     is_block=all_blocks(g))
        assert np.allclose(s.trades, [-0.5, -0.5, -1.0])

    def test_trades_are_computed_once_and_read_only(self):
        g = TimeGrid(0.0, 1.0, 2)
        s = Strategy(grid=g, x_pre=2.0, values=np.array([1.5, 1.0, 0.0]),
                     is_block=all_blocks(g))
        assert "trades" not in vars(s)
        xi = s.trades
        assert s.trades is xi
        with pytest.raises(ValueError):
            xi[0] = 0.0

    def test_rows_validated_and_blocks_stay_one_dimensional(self):
        g = TimeGrid(0.0, 1.0, 4)
        values = np.zeros((3, 5))
        values[:, 1] = 1.0
        s = Strategy(grid=g, x_pre=2.0, values=values, is_block=all_blocks(g))
        assert s.trades.shape == (3, 5)
        assert np.array_equal(s.trades[1], [-2.0, 1.0, -1.0, 0.0, 0.0])
        assert s.is_block.shape == (5,)
        values[2, -1] = 0.5
        with pytest.raises(ValueError):
            Strategy(grid=g, x_pre=2.0, values=values, is_block=all_blocks(g))
        with pytest.raises(GridMismatch):
            Strategy(grid=g, x_pre=0.0, values=np.zeros((3, 5)),
                     is_block=np.ones((3, 5), dtype=bool))
        # integer 0/1 flags would index the gammas, not mask them: the
        # uncorrected cost of this close read 0.5189 with them, not 0.2739
        with pytest.raises(ValueError, match="is_block"):
            Strategy(grid=g, x_pre=1.0,
                     values=np.array([1.0, 0.5, 0.25, 0.1, 0.0]),
                     is_block=np.array([1, 0, 0, 0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 10**400],
                             ids=["nan", "inf", "huge"])
    def test_non_finite_x_pre_is_refused_by_name(self, bad):
        # x_pre = nan once made pathwise_cost return nan with a warning only
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="^x_pre must be finite"):
            Strategy(grid=g, x_pre=bad, values=np.zeros(5),
                     is_block=all_blocks(g))

    def test_length_checked(self):
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(GridMismatch):
            Strategy(grid=g, x_pre=0.0, values=np.zeros(3),
                     is_block=all_blocks(g))


class TestDeviationPath:
    def test_zero_strategy_zero_deviation(self):
        model, grid, market = make_setup()
        s = Strategy(grid=grid, x_pre=0.0, values=np.zeros(grid.n_steps + 1),
                     is_block=all_blocks(grid))
        dev = deviation_path(model, market, s)
        assert np.all(dev.values == 0.0) and np.all(dev.pre_trade == 0.0)

    def test_single_block_decays_exactly(self):
        model, grid, market = make_setup(n=10, rho=0.7)
        values = np.zeros(11)
        # close at time 0
        s = Strategy(grid=grid, x_pre=1.0, values=values,
                     is_block=all_blocks(grid))
        dev = deviation_path(model, market, s)
        # jump by gamma*xi = -1, then pure exponential decay
        assert dev.values[0] == pytest.approx(-1.0)
        decay = np.exp(-0.7 * grid.h * np.arange(11))
        assert np.allclose(dev.pre_trade[1:], -decay[1:], rtol=1e-13)

    def test_jump_relation_holds_exactly(self):
        model, grid, market = make_setup(n=50, sigma=0.4, seed=3)
        rng = np.random.default_rng(1)
        values = rng.standard_normal(51)
        values[-1] = 0.0
        s = Strategy(grid=grid, x_pre=0.3, values=values,
                     is_block=all_blocks(grid))
        dev = deviation_path(model, market, s)
        assert np.array_equal(dev.values,
                              dev.pre_trade + market.gamma * s.trades)

    def test_initial_deviation_decays(self):
        model, grid, market = make_setup(n=20, rho=0.5)
        s = Strategy(grid=grid, x_pre=0.0, values=np.zeros(21),
                     is_block=all_blocks(grid))
        dev = deviation_path(model, market, s, d_pre=2.0)
        assert dev.pre_trade[0] == 2.0
        assert dev.values[-1] == pytest.approx(2.0 * np.exp(-0.5), rel=1e-13)

    @given(st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-6))
    @settings(max_examples=25, deadline=None)
    def test_affine_linearity_in_state(self, lam):
        model, grid, market = make_setup(n=30, sigma=0.3, seed=5)
        rng = np.random.default_rng(2)
        values = rng.standard_normal(31)
        values[-1] = 0.0
        s1 = Strategy(grid=grid, x_pre=1.0, values=values,
                      is_block=all_blocks(grid))
        s2 = Strategy(grid=grid, x_pre=lam * 1.0, values=lam * values,
                      is_block=all_blocks(grid))
        d1 = deviation_path(model, market, s1, d_pre=0.7)
        d2 = deviation_path(model, market, s2, d_pre=lam * 0.7)
        ref = np.max(np.abs(d1.values)) * abs(lam)
        assert np.max(np.abs(d2.values - lam * d1.values)) <= 1e-12 * ref

    def test_grid_mismatch_rejected(self):
        model, grid, market = make_setup(n=10)
        other = TimeGrid(0.0, 1.0, 20)
        s = Strategy(grid=other, x_pre=0.0, values=np.zeros(21),
                     is_block=all_blocks(other))
        with pytest.raises(GridMismatch):
            deviation_path(model, market, s)
        # the costs trust a deviation's pairing, so one with given values
        # is checked when it is built, on a grid of as many steps too
        long = TimeGrid(0.0, 2.0, 10)
        close = immediate_close(long, 1.0, 1.0)
        with pytest.raises(GridMismatch):
            DeviationPath.explicit(np.zeros(11), np.zeros(11), close, market)

    def test_bare_constructor_checks_the_pairing(self):
        # the costs trust a deviation's pairing: a hold-then-close on a
        # 10-step grid of [0, 2] with a market on one of [0, 1] once cost
        # 0.5 through pathwise_cost, with no error
        model, grid, market = make_setup(n=10)
        close = immediate_close(TimeGrid(0.0, 2.0, 10), 1.0, 1.0)
        with pytest.raises(GridMismatch):
            DeviationPath(pre_trade=np.zeros(11), strategy=close,
                          market=market, gamma_eff=market.gamma)

    @pytest.mark.parametrize("fn", [deviation_path, naive_deviation_path])
    def test_a_market_of_another_model_is_refused(self, fn):
        # the deviation before the close at 0.5 once read 0.3188 under the
        # other model's resilience, against 0.3894 under the market's own
        model, grid, market = make_setup(n=50, sigma=0.3)
        other = constant_model(1.0, 1.0, 0.9, mu=0.4, sigma=0.3)
        s = immediate_close(grid, 0.5, 1.0)
        with pytest.raises(ValueError, match="drawn under another model"):
            fn(other, market, s, 0.5)
        # an equal model, not the same object, is the market's own
        fn(constant_model(1.0, 1.0, 0.5, sigma=0.3), market, s, 0.5)

    @pytest.mark.parametrize("fn", [deviation_path, naive_deviation_path])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 10**400],
                             ids=["nan", "inf", "huge"])
    def test_non_finite_d_pre_is_refused_by_name(self, fn, bad):
        # d_pre = nan once gave a deviation of NaN and a NaN cost
        model, grid, market = make_setup(n=10)
        with pytest.raises(ValueError, match="^d_pre must be finite"):
            fn(model, market, immediate_close(grid, 0.5, 1.0), bad)

    def test_grid_refinement_first_order(self):
        # continuous linear liquidation sampled on nested grids
        model = constant_model(1.0, 1.0, 0.5)
        ends = []
        for n in (100, 200, 400):
            grid = TimeGrid(0.0, 1.0, n)
            market = simulate_path(model, grid, 0, 0)
            s = Strategy(grid=grid, x_pre=1.0, values=1.0 - grid.times,
                         is_block=all_blocks(grid))
            ends.append(deviation_path(model, market, s).pre_trade[-1])
        # exact continuous-time value: int_0^1 -e^{-rho(1-r)} dr
        exact = -(1.0 - np.exp(-0.5)) / 0.5
        errs = [abs(e - exact) for e in ends]
        assert 1.5 <= errs[0] / errs[1] <= 2.5
        assert 1.5 <= errs[1] / errs[2] <= 2.5


class TestChunkedDeviation:
    @pytest.mark.parametrize("fn", [deviation_path, naive_deviation_path])
    def test_rows_equal_single_paths(self, fn):
        model = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        grid = TimeGrid(0.0, 1.0, 30)
        chunk = simulate_path(model, grid, 6, range(4))
        rng = np.random.default_rng(5)
        values = rng.standard_normal((4, 31))
        values[:, -1] = 0.0
        blocks = rng.random(31) < 0.5
        dev = fn(model, chunk, Strategy(grid, 0.3, values, blocks), 0.7)
        for i in range(4):
            market = simulate_path(model, grid, 6, i)
            ref = fn(model, market, Strategy(grid, 0.3, values[i], blocks),
                     0.7)
            assert np.array_equal(dev.values[i], ref.values)
            assert np.array_equal(dev.pre_trade[i], ref.pre_trade)
            assert np.array_equal(dev.impact_state[i], ref.impact_state)

    def test_shared_strategy_broadcasts_over_paths(self):
        model = constant_model(1.0, 1.0, 0.5, sigma=0.4)
        grid = TimeGrid(0.0, 1.0, 20)
        chunk = simulate_path(model, grid, 2, range(3))
        s = immediate_close(grid, 0.5, 1.0)
        dev = deviation_path(model, chunk, s, 0.2)
        assert dev.values.shape == (3, 21)
        for i in range(3):
            ref = deviation_path(model, simulate_path(model, grid, 2, i), s,
                                 0.2)
            assert np.array_equal(dev.values[i], ref.values)


class TestImpactState:
    def test_continuous_across_block_trade(self):
        model, grid, market = make_setup(n=40, sigma=0.5, seed=9)
        values = np.ones(41)
        values[20:] = 0.25   # interior block
        values[-1] = 0.0
        s = Strategy(grid=grid, x_pre=1.0, values=values,
                     is_block=all_blocks(grid))
        dev = deviation_path(model, market, s)
        a = dev.impact_state
        # pre-trade impact state at the block equals the post-trade value
        a_pre = values[19] - market.alpha[20] * dev.pre_trade[20]
        # both contain the same decay evolution; the block itself cancels
        assert a[20] - a_pre == pytest.approx(0.0, abs=1e-12)


class TestNaiveDeviation:
    def test_agrees_for_all_block_strategies(self):
        model, grid, market = make_setup(n=30, sigma=0.4, seed=4)
        rng = np.random.default_rng(3)
        values = rng.standard_normal(31)
        values[-1] = 0.0
        s = Strategy(grid=grid, x_pre=0.5, values=values,
                     is_block=all_blocks(grid))
        d1 = deviation_path(model, market, s)
        d2 = naive_deviation_path(model, market, s)
        assert np.allclose(d1.values, d2.values, rtol=1e-14)

    def test_non_block_trades_use_left_impact(self):
        model, grid, market = make_setup(n=4, sigma=0.6, seed=8)
        values = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
        blocks = np.array([True, False, True, True, True])
        s = Strategy(grid=grid, x_pre=0.0, values=values, is_block=blocks)
        dev = naive_deviation_path(model, market, s)
        # the trade at k=1 is charged at gamma_0, not gamma_1
        assert dev.values[1] == pytest.approx(market.gamma[0] * 1.0, rel=1e-14)

    @pytest.mark.parametrize("ids", [0, range(3)], ids=["path", "rows"])
    @pytest.mark.parametrize("kind", ["jump_plan", "random_blocks"])
    def test_block_trades_keep_the_current_impact(self, kind, ids):
        # interior block trades: the jump plan's where its ratio jumps
        # (sigma = 0, its rows share one impact path), or random flags
        # under sigma > 0; every other trade takes the previous point's
        if kind == "jump_plan":
            model = jump_example_model(0.3, 4.0, 5.0)
            grid = TimeGrid(0.0, 5.0, 500)
            market = simulate_path(model, grid, 3, ids)
            strat = optimal_plan(model, solve_y_deterministic(model, grid),
                                 market, 0.0, 1.0, 0.5).x_star
        else:
            model, grid, market = make_setup(n=40, sigma=0.6, seed=5)
            market = simulate_path(model, grid, 5, ids)
            rng = np.random.default_rng(7)
            values = rng.standard_normal(market.gamma.shape)
            values[..., -1] = 0.0
            strat = Strategy(grid, 0.5, values, rng.random(41) < 0.3)
        blocks = strat.is_block
        assert blocks[1:-1].any() and not blocks[1:-1].all()
        gamma = market.gamma
        left = np.concatenate((gamma[..., :1], gamma[..., :-1]), axis=-1)
        dev = naive_deviation_path(model, market, strat)
        assert np.array_equal(dev.gamma_eff, np.where(blocks, gamma, left))

