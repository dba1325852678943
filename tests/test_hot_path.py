"""The Monte Carlo hot path against the out-of-place formulas it replaced.

Every layer of estimate_cost scales its own arrays in place and builds only
what the cost reads; the rest is computed on first access.  The reference
below keeps the earlier out-of-place formulas, operation by operation, so
each comparison is bit for bit.
"""

import numpy as np
import pytest

from execlab import (MarketPath, Strategy, TimeGrid,
                     admissibility_diagnostics, constant_model,
                     counterexample_brownian, counterexample_gbm,
                     deviation_path, estimate_cost, immediate_close,
                     naive_deviation_path, optimal_plan, pathwise_cost,
                     pathwise_cost_naive, simulate_path,
                     solve_y_deterministic, step_terms,
                     stochastic_exponential)
from execlab.cost import CHUNK_ELEMENTS, path_chunks
from execlab.strategy import _beta_ds_integrals

MODEL = constant_model(2.0, 1.0, 0.5, mu=0.1, sigma=0.8)
X, D = 10.0, 0.5


# --- reference: the out-of-place formulas -----------------------------------

def ref_cumsum0(x):
    return np.concatenate((np.zeros(x.shape[:-1] + (1,)),
                           np.cumsum(x, axis=-1)), axis=-1)


def ref_market(model, grid, seed, ids):
    """Brownian increments, impact and its inverse of the paths ``ids``."""
    terms = step_terms(model, grid)
    z = np.stack([np.random.default_rng(np.random.SeedSequence((seed, i)))
                  .standard_normal(grid.n_steps) for i in ids])
    dw = z * np.sqrt(grid.h)
    gamma = model.gamma0 * np.exp(ref_cumsum0(terms.log_drift
                                              + terms.sigma * dw))
    return dw, gamma, 1.0 / gamma


def ref_plan_terms(model, vs, grid):
    rho, mu, sig, *_ = step_terms(model, grid)
    beta = vs.beta_tilde
    int_beta = _beta_ds_integrals(vs.y, rho, mu, grid.h)
    return (beta, -beta[:-1] * sig, int_beta * (mu + rho - sig**2),
            beta[:-1] ** 2 * sig**2 * grid.h)


def ref_plan(model, vs, grid, dw, gamma, x, d):
    """q increments, exp_q and the positions of the optimal plan."""
    beta, neg_beta_sigma, drift, q_quadratic = ref_plan_terms(model, vs, grid)
    q_inc = neg_beta_sigma * dw - drift
    exp_q = np.exp(ref_cumsum0(q_inc - 0.5 * q_quadratic))
    scale = x - d / gamma[..., 0]
    xs = np.expand_dims(scale, -1) * exp_q * (1.0 - beta)
    xs[..., -1] = 0.0
    return q_inc, exp_q, xs


def ref_deviation(model, grid, gamma, alpha, strategy, d_pre, naive):
    """Pre-trade deviation, deviation and impact state."""
    gamma_eff = gamma
    if naive:
        gamma_left = np.concatenate((gamma[..., :1], gamma[..., :-1]),
                                    axis=-1)
        gamma_eff = np.where(strategy.block_mask(), gamma, gamma_left)
    terms = step_terms(model, grid)
    xi = np.diff(strategy.values, prepend=strategy.x_pre)
    cum = d_pre + np.cumsum(gamma_eff * terms.growth * xi, axis=-1)
    pre_trade = np.empty_like(cum)
    pre_trade[..., 0] = d_pre
    pre_trade[..., 1:] = terms.decay[1:] * cum[..., :-1]
    values = pre_trade + gamma_eff * xi
    return pre_trade, values, strategy.values - alpha * values


def ref_cost(strategy, pre_trade, gamma, naive):
    xi = np.diff(strategy.values, prepend=strategy.x_pre)
    if not naive:
        return np.sum((pre_trade + 0.5 * gamma * xi) * xi, axis=-1)
    blocks = strategy.block_mask()
    linear = np.sum(pre_trade * xi, axis=-1)
    return linear + 0.5 * np.sum(gamma[..., blocks] * xi[..., blocks] ** 2,
                                 axis=-1)


def ref_estimate(model, grid, n_paths, seed, kind, d_pre=0.0, naive=False,
                 naive_dynamics=False):
    """estimate_cost's chunk loop and reduction on the reference formulas."""
    vs = solve_y_deterministic(model, grid)
    costs = np.empty(n_paths)
    for ids in path_chunks(n_paths, grid):
        dw, gamma, alpha = ref_market(model, grid, seed, ids)
        if kind == "optimal":
            # the corrected cost and dynamics do not read the block flags
            strat = Strategy(grid, X, ref_plan(model, vs, grid, dw, gamma,
                                               X, D)[2])
        else:
            strat = FACTORIES[kind](MarketPath(grid, dw, gamma, ids, seed))
        pre_trade = ref_deviation(model, grid, gamma, alpha, strat, d_pre,
                                  naive_dynamics)[0]
        costs[ids.start:ids.stop] = ref_cost(strat, pre_trade, gamma, naive)
    mean = float(np.sum(costs) / n_paths)
    var = float(np.sum((costs - mean) ** 2) / (n_paths - 1))
    return mean, float(np.sqrt(var / n_paths))


FACTORIES = {
    "brownian": lambda m: counterexample_brownian(2.0, m),
    "gbm": lambda m: counterexample_gbm(-1.0, 1.0, m),
    "close": lambda m: immediate_close(m.grid, 1.0, 2.0),
}


@pytest.fixture(params=["many_per_chunk", "one_per_chunk"])
def sized_grid(request):
    if request.param == "many_per_chunk":
        grid = TimeGrid(0.0, 2.0, 50)
        chunk = CHUNK_ELEMENTS // 51
        return grid, 2 * chunk + 3  # two full chunks and a partial one
    return TimeGrid(0.0, 2.0, CHUNK_ELEMENTS), 3


class TestEstimateMatchesReference:
    @pytest.mark.parametrize("kind, kw", [
        ("optimal", {"d_pre": D}),
        ("brownian", {"naive": True}),
        ("gbm", {"naive_dynamics": True}),
        ("close", {"d_pre": 0.3}),
        ("close", {"d_pre": 0.3, "naive": True}),
    ], ids=["optimal", "brownian", "gbm", "close", "close_naive"])
    def test_bit_for_bit(self, sized_grid, kind, kw):
        grid, n_paths = sized_grid
        if kind == "optimal":
            vs = solve_y_deterministic(MODEL, grid)
            factory = lambda m: optimal_plan(  # noqa: E731
                MODEL, vs, m, 0.0, X, D).x_star
        else:
            factory = FACTORIES[kind]
        est = estimate_cost(MODEL, grid, n_paths, 17, factory, **kw)
        assert (est.mean, est.std_error) == ref_estimate(
            MODEL, grid, n_paths, 17, kind, **kw)
        assert est.std_error > 0.0


class TestLazyArrays:
    """Arrays computed on first access equal the eager formulas."""

    @pytest.mark.parametrize("ids", [range(3, 7), 5], ids=["chunk", "path"])
    def test_market_alpha(self, ids):
        grid = TimeGrid(0.0, 2.0, 40)
        market = simulate_path(MODEL, grid, 9, ids)
        assert "alpha" not in vars(market)
        dw, gamma, alpha = ref_market(MODEL, grid, 9,
                                      ids if isinstance(ids, range) else [ids])
        if not isinstance(ids, range):
            dw, gamma, alpha = dw[0], gamma[0], alpha[0]
        assert np.array_equal(market.w, dw)
        assert np.array_equal(market.gamma, gamma)
        assert np.array_equal(market.alpha, alpha)
        assert market.alpha is market.alpha
        assert np.array_equal(market.tail(11).alpha, alpha[..., 11:])

    @pytest.mark.parametrize("fn, naive", [(deviation_path, False),
                                           (naive_deviation_path, True)])
    def test_deviation_values_and_impact_state(self, fn, naive):
        grid = TimeGrid(0.0, 2.0, 40)
        market = simulate_path(MODEL, grid, 4, range(3))
        rng = np.random.default_rng(2)
        values = rng.standard_normal((3, 41))
        values[:, -1] = 0.0
        strat = Strategy(grid, 0.7, values, rng.random(41) < 0.5)
        dev = fn(MODEL, market, strat, 0.4)
        assert "values" not in vars(dev) and "impact_state" not in vars(dev)
        ref = ref_deviation(MODEL, grid, market.gamma, market.alpha, strat,
                            0.4, naive)
        for got, want in zip((dev.pre_trade, dev.values, dev.impact_state),
                             ref, strict=True):
            assert np.array_equal(got, want)

    def test_plan_q_increments_and_positions(self):
        grid = TimeGrid(0.0, 2.0, 40)
        market = simulate_path(MODEL, grid, 4, range(3))
        vs = solve_y_deterministic(MODEL, grid)
        plan = optimal_plan(MODEL, vs, market, 0.0, X, D)
        assert "q_increments" not in vars(plan)
        q_inc, exp_q, xs = ref_plan(MODEL, vs, grid, market.w, market.gamma,
                                    X, D)
        assert np.array_equal(plan.q_increments, q_inc)
        assert np.array_equal(plan.exp_q, exp_q)
        assert np.array_equal(plan.exp_q, stochastic_exponential(
            plan.q_increments, plan.q_quadratic))
        assert np.array_equal(plan.x_star.values, xs)


class TestInputsUnchanged:
    """A plan, a deviation and a cost write into no array they were given."""

    @pytest.mark.parametrize("naive", [False, True])
    def test_market_strategy_and_shared_terms(self, naive):
        grid = TimeGrid(0.0, 2.0, 40)
        market = simulate_path(MODEL, grid, 4, range(3))
        vs = solve_y_deterministic(MODEL, grid)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((3, 41))
        values[:, -1] = 0.0
        caller = Strategy(grid, 0.7, values, rng.random(41) < 0.5)
        plan = optimal_plan(MODEL, vs, market, 0.0, X, D)
        kept = [a.copy() for a in (market.w, market.gamma, values,
                                   *step_terms(MODEL, grid), *plan.terms)]
        dev_fn = naive_deviation_path if naive else deviation_path
        cost_fn = pathwise_cost_naive if naive else pathwise_cost
        for strat in (plan.x_star, caller):
            dev = dev_fn(MODEL, market, strat, D)
            cost_fn(strat, dev, market)
            dev.values, dev.impact_state  # noqa: B018
        plan.q_increments, plan.d_star.impact_state  # noqa: B018
        now = (market.w, market.gamma, caller.values,
               *step_terms(MODEL, grid), *plan.terms)
        for before, after in zip(kept, now, strict=True):
            assert np.array_equal(before, after)


class TestTrades:
    @pytest.mark.parametrize("shape", [(41,), (4, 41)], ids=["path", "rows"])
    def test_equal_to_diff(self, shape):
        grid = TimeGrid(0.0, 1.0, 40)
        values = np.random.default_rng(8).standard_normal(shape)
        values[..., -1] = 0.0
        s = Strategy(grid, -1.3, values)
        assert np.array_equal(s.trades, np.diff(values, prepend=-1.3))


class TestNonFiniteRefused:
    """An impact that overflows gives non-finite costs; they are refused."""

    MODEL = constant_model(100.0, 1.0, 50.0, 0.0, 9.0)
    GRID = TimeGrid(0.0, 100.0, 200)

    def factory(self, _market):
        return immediate_close(self.GRID, 99.5, 1.0)

    def test_estimate_cost(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="path 0 "):
                estimate_cost(self.MODEL, self.GRID, 50, 3, self.factory)

    def test_admissibility_diagnostics(self):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(ArithmeticError, match="path 0 "):
                admissibility_diagnostics(self.MODEL, self.GRID, 100, 3,
                                          self.factory)
