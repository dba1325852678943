"""Deviation dynamics, impact state and admissibility diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execlab import (GridMismatch, Strategy, TimeGrid,
                     admissibility_diagnostics, constant_model,
                     counterexample_brownian, deviation_path, immediate_close,
                     naive_deviation_path, optimal_plan, simulate_path,
                     solve_y_deterministic)
from execlab.cost import CHUNK_ELEMENTS


def make_setup(n=100, T=1.0, rho=0.5, mu=0.0, sigma=0.0, gamma0=1.0, seed=0):
    model = constant_model(T, gamma0, rho, mu=mu, sigma=sigma)
    grid = TimeGrid(0.0, T, n)
    market = simulate_path(model, grid, seed, 0)
    return model, grid, market


class TestStrategyType:
    def test_terminal_value_enforced(self):
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Strategy(grid=g, x_pre=1.0, values=np.array([1.0, 1, 1, 1, 1.0]))

    def test_trades_include_initial_block(self):
        g = TimeGrid(0.0, 1.0, 2)
        s = Strategy(grid=g, x_pre=2.0, values=np.array([1.5, 1.0, 0.0]))
        assert np.allclose(s.trades, [-0.5, -0.5, -1.0])

    def test_trades_are_computed_once_and_read_only(self):
        g = TimeGrid(0.0, 1.0, 2)
        s = Strategy(grid=g, x_pre=2.0, values=np.array([1.5, 1.0, 0.0]))
        assert "trades" not in vars(s)
        xi = s.trades
        assert s.trades is xi
        with pytest.raises(ValueError):
            xi[0] = 0.0

    def test_rows_validated_and_blocks_stay_one_dimensional(self):
        g = TimeGrid(0.0, 1.0, 4)
        values = np.zeros((3, 5))
        values[:, 1] = 1.0
        s = Strategy(grid=g, x_pre=2.0, values=values)
        assert s.trades.shape == (3, 5)
        assert np.array_equal(s.trades[1], [-2.0, 1.0, -1.0, 0.0, 0.0])
        assert s.block_mask().shape == (5,)
        values[2, -1] = 0.5
        with pytest.raises(ValueError):
            Strategy(grid=g, x_pre=2.0, values=values)
        with pytest.raises(GridMismatch):
            Strategy(grid=g, x_pre=0.0, values=np.zeros((3, 5)),
                     is_block=np.ones((3, 5), dtype=bool))

    def test_length_checked(self):
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(GridMismatch):
            Strategy(grid=g, x_pre=0.0, values=np.zeros(3))


class TestDeviationPath:
    def test_zero_strategy_zero_deviation(self):
        model, grid, market = make_setup()
        s = Strategy(grid=grid, x_pre=0.0, values=np.zeros(grid.n_steps + 1))
        dev = deviation_path(model, market, s)
        assert np.all(dev.values == 0.0) and np.all(dev.pre_trade == 0.0)

    def test_single_block_decays_exactly(self):
        model, grid, market = make_setup(n=10, rho=0.7)
        values = np.zeros(11)
        s = Strategy(grid=grid, x_pre=1.0, values=values)  # close at time 0
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
        s = Strategy(grid=grid, x_pre=0.3, values=values)
        dev = deviation_path(model, market, s)
        assert np.array_equal(dev.values,
                              dev.pre_trade + market.gamma * s.trades)

    def test_initial_deviation_decays(self):
        model, grid, market = make_setup(n=20, rho=0.5)
        s = Strategy(grid=grid, x_pre=0.0, values=np.zeros(21))
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
        s1 = Strategy(grid=grid, x_pre=1.0, values=values)
        s2 = Strategy(grid=grid, x_pre=lam * 1.0, values=lam * values)
        d1 = deviation_path(model, market, s1, d_pre=0.7)
        d2 = deviation_path(model, market, s2, d_pre=lam * 0.7)
        ref = np.max(np.abs(d1.values)) * abs(lam)
        assert np.max(np.abs(d2.values - lam * d1.values)) <= 1e-12 * ref

    def test_grid_mismatch_rejected(self):
        model, grid, market = make_setup(n=10)
        other = TimeGrid(0.0, 1.0, 20)
        s = Strategy(grid=other, x_pre=0.0, values=np.zeros(21))
        with pytest.raises(GridMismatch):
            deviation_path(model, market, s)

    def test_grid_refinement_first_order(self):
        # continuous linear liquidation sampled on nested grids
        model = constant_model(1.0, 1.0, 0.5)
        ends = []
        for n in (100, 200, 400):
            grid = TimeGrid(0.0, 1.0, n)
            market = simulate_path(model, grid, 0, 0)
            s = Strategy(grid=grid, x_pre=1.0, values=1.0 - grid.times)
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
        s = Strategy(grid=grid, x_pre=1.0, values=values)
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
        s = Strategy(grid=grid, x_pre=0.5, values=values)  # default: all blocks
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


def per_path_admissibility(model, grid, n_paths, seed, factory, d_pre=0.0):
    """Reference: one simulate_path per id, sigma looked up on every path, and
    the integrals as (mean, standard error) of the per-path values."""
    a1, a2, a3 = [], [], []
    for i in range(n_paths):
        market = simulate_path(model, grid, seed, i)
        strat = factory(market)
        dev = deviation_path(model, market, strat, d_pre)
        sig = np.array([model.sigma(t) for t in grid.times])
        g2a4 = market.gamma**2 * dev.impact_state**4
        a1.append(np.max(g2a4))
        a2.append(np.sqrt(np.sum(g2a4[:-1] * sig[:-1] ** 2) * grid.h))
        a3.append(np.sqrt(np.sum(dev.values[:-1] ** 4 * market.alpha[:-1] ** 2
                                 * sig[:-1] ** 2) * grid.h))
    return [(float(np.mean(a)), float(np.std(a, ddof=1) / np.sqrt(n_paths)))
            for a in (a1, a2, a3)]


class TestAdmissibilityDiagnostics:
    def test_immediate_close_at_flat_state_vanishes(self):
        model = constant_model(1.0, 2.0, 0.5, sigma=0.4)
        grid = TimeGrid(0.0, 1.0, 20)
        d = 3.0
        x = d / 2.0  # d / gamma0: closing leaves zero deviation
        rep = admissibility_diagnostics(
            model, grid, 120, 0, lambda m: immediate_close(grid, 0.0, x),
            d_pre=d)
        assert rep.sup_moment == (0.0, 0.0)
        assert rep.impact_integral == (0.0, 0.0)
        assert rep.deviation_integral == (0.0, 0.0)
        assert rep.n_paths == 120

    def test_deterministic_impact_kills_stochastic_integrals(self):
        model = constant_model(1.0, 0.05, 0.5)
        grid = TimeGrid(0.0, 1.0, 20)
        rep = admissibility_diagnostics(
            model, grid, 100, 0, lambda m: counterexample_brownian(2.0, m))
        assert rep.impact_integral == (0.0, 0.0)
        assert rep.deviation_integral == (0.0, 0.0)
        assert rep.sup_moment[0] > 0.0

    def test_requires_hundred_paths(self):
        model = constant_model(1.0, 1.0, 0.5)
        grid = TimeGrid(0.0, 1.0, 5)
        built = []

        def factory(m):
            built.append(m)
            return Strategy(grid=grid, x_pre=0.0, values=np.zeros(6))

        with pytest.raises(ValueError):
            admissibility_diagnostics(model, grid, 99, 0, factory)
        assert built == []  # refused before any path was simulated

    MODEL = constant_model(2.0, 1.0, 0.5, sigma=0.8)

    @pytest.mark.parametrize("n_steps, n_paths", [(20, 783), (9000, 100)],
                             ids=["many_per_chunk", "one_per_chunk"])
    @pytest.mark.parametrize("kind", ["optimal", "brownian"])
    def test_chunks_equal_the_per_path_loop(self, n_steps, n_paths, kind):
        grid = TimeGrid(0.0, 2.0, n_steps)
        chunk = max(1, CHUNK_ELEMENTS // (n_steps + 1))
        assert (chunk == 1) == (n_steps > CHUNK_ELEMENTS)
        assert chunk == 1 or n_paths % chunk  # a partial last chunk
        if kind == "optimal":
            vs = solve_y_deterministic(self.MODEL, grid)
            d = 0.5
            factory = lambda m: optimal_plan(  # noqa: E731
                self.MODEL, vs, m, 0.0, 10.0, d).x_star
        else:
            d = 0.0
            factory = lambda m: counterexample_brownian(2.0, m)  # noqa: E731
        rep = admissibility_diagnostics(self.MODEL, grid, n_paths, 17,
                                        factory, d_pre=d)
        ref = per_path_admissibility(self.MODEL, grid, n_paths, 17, factory,
                                     d_pre=d)
        got = [rep.sup_moment, rep.impact_integral, rep.deviation_integral]
        for (mean, se), (ref_mean, ref_se) in zip(got, ref):
            assert mean == ref_mean
            assert se > 0.0 and abs(se - ref_se) <= 4e-16 * ref_se
