"""The Monte Carlo hot path against the out-of-place formulas it replaced.

Every layer of estimate_cost scales its own arrays in place and builds only
what the cost reads; the rest is computed on first access.  The reference
below keeps the earlier out-of-place formulas, operation by operation, so
each comparison is bit for bit.
"""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execlab import (MarketPath, Strategy, TimeGrid, build_model,
                     constant_model, counterexample_brownian,
                     counterexample_gbm, deviation_path, estimate_cost,
                     immediate_close, naive_deviation_path, optimal_plan,
                     pathwise_cost, pathwise_cost_naive, simulate_path,
                     solve_y_deterministic, step_coefficients)
from execlab import coefficients, deviation
from execlab.cli import SHOWCASE
from execlab.cost import CHUNK_ELEMENTS, Pricing, path_chunks, sample_paths
from execlab.bsde import _beta_ds_integrals
from term_builds import spy_builders

MODEL = constant_model(2.0, 1.0, 0.5, mu=0.1, sigma=0.8)
X, D = 10.0, 0.5


# --- reference: the out-of-place formulas -----------------------------------

def ref_cumsum0(x):
    return np.concatenate((np.zeros(x.shape[:-1] + (1,)),
                           np.cumsum(x, axis=-1)), axis=-1)


def ref_market(model, grid, seed, ids):
    """Brownian increments, impact and its inverse of the paths ``ids``."""
    _, mu, sigma = step_coefficients(model, grid)
    z = np.stack([np.random.default_rng(np.random.SeedSequence((seed, i)))
                  .standard_normal(grid.n_steps) for i in ids])
    dw = z * np.sqrt(grid.h)
    log_drift = (mu - 0.5 * sigma**2) * grid.h
    gamma = model.gamma0 * np.exp(ref_cumsum0(log_drift + sigma * dw))
    return dw, gamma, 1.0 / gamma


def ref_plan_terms(model, vs, grid):
    rho, mu, sig = step_coefficients(model, grid)
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
        gamma_eff = np.where(strategy.is_block, gamma, gamma_left)
    r = ref_cumsum0(step_coefficients(model, grid)[0] * grid.h)
    xi = np.diff(strategy.values, prepend=strategy.x_pre)
    cum = d_pre + np.cumsum(gamma_eff * np.exp(r) * xi, axis=-1)
    pre_trade = np.empty_like(cum)
    pre_trade[..., 0] = d_pre
    pre_trade[..., 1:] = np.exp(-r)[1:] * cum[..., :-1]
    values = pre_trade + gamma_eff * xi
    return pre_trade, values, strategy.values - alpha * values


def ref_cost(strategy, pre_trade, gamma, naive):
    xi = np.diff(strategy.values, prepend=strategy.x_pre)
    if not naive:
        return np.sum((pre_trade + 0.5 * gamma * xi) * xi, axis=-1)
    blocks = strategy.is_block
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
                                               X, D)[2],
                             np.ones(grid.n_steps + 1, dtype=bool))
        else:
            strat = FACTORIES[kind](MarketPath(model, grid, dw, gamma))
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

    def test_plan_exp_q_and_positions(self):
        grid = TimeGrid(0.0, 2.0, 40)
        market = simulate_path(MODEL, grid, 4, range(3))
        vs = solve_y_deterministic(MODEL, grid)
        plan = optimal_plan(MODEL, vs, market, 0.0, X, D)
        _, exp_q, xs = ref_plan(MODEL, vs, grid, market.w, market.gamma, X, D)
        assert np.array_equal(plan.exp_q, exp_q)
        assert np.array_equal(plan.x_star.values, xs)


class TestInputsUnchanged:
    """A plan, a deviation and a cost write into no array they were given."""

    @pytest.mark.parametrize("naive", [False, True])
    def test_market_strategy_and_shared_terms(self, naive):
        # sigma > 0, and sigma = 0 with its shared impact path; as in a
        # pass, the market reads one set of impact terms and every
        # deviation one resilience pair
        for model in (MODEL, constant_model(2.0, 1.5, 0.5, mu=0.1)):
            with coefficients._chunk_pool(40):
                self.check_model(model, naive)

    def check_model(self, model, naive):
        grid = TimeGrid(0.0, 2.0, 40)
        impact = coefficients._impact_terms(model, grid)
        resilience = coefficients._resilience(model, grid)
        market = coefficients._market(
            model, grid, simulate_path(model, grid, 4, range(3)).w, impact)
        vs = solve_y_deterministic(model, grid)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((3, 41))
        values[:, -1] = 0.0
        caller = Strategy(grid, 0.7, values, rng.random(41) < 0.5)
        plan = optimal_plan(model, vs, market, 0.0, X, D)
        # the impact path is None when sigma > 0
        shared = [a for a in (*impact, *resilience) if a is not None]
        terms = vars(vs)["_plan_terms"]
        kept = [a.copy() for a in (market.w, market.gamma, values, *shared,
                                   *terms, vs.beta_tilde, vs.beta_pre)]
        cost_fn = pathwise_cost_naive if naive else pathwise_cost
        for strat in (plan.x_star, caller):
            dev = deviation._deviation(model, market, strat, D, naive,
                                       resilience)
            cost_fn(strat, dev, market)
            dev.values, dev.impact_state  # noqa: B018
        plan.d_star.impact_state  # noqa: B018
        now = (market.w, market.gamma, caller.values, *shared, *terms,
               vs.beta_tilde, vs.beta_pre)
        for before, after in zip(kept, now, strict=True):
            assert np.array_equal(before, after)


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


@pytest.mark.parametrize("case", DETERMINISTIC)
class TestDeterministicImpact:
    """With sigma = 0 every path shares one read-only impact path, and in a
    pass the corrected deviation reads gamma * exp(r) from the pass's step
    terms: the same bits as the lognormal stepping and the per-call
    product."""

    @pytest.mark.parametrize("ids", [range(3, 7), 5], ids=["chunk", "path"])
    def test_gamma_is_the_lognormal_stepping(self, case, ids):
        model, grid = DETERMINISTIC[case]
        market = simulate_path(model, grid, 9, ids)
        dw, gamma, alpha = ref_market(model, grid, 9,
                                      ids if isinstance(ids, range) else [ids])
        if not isinstance(ids, range):
            dw, gamma, alpha = dw[0], gamma[0], alpha[0]
        assert np.array_equal(market.w, dw)
        assert np.array_equal(market.gamma, gamma)
        assert np.array_equal(market.alpha, alpha)
        assert market.gamma.shape == market.w.shape[:-1] + (grid.n_steps + 1,)
        with pytest.raises(ValueError):
            market.gamma[..., 0] = 1.0

    @pytest.mark.parametrize("fn, naive", [(deviation_path, False),
                                           (naive_deviation_path, True)])
    @pytest.mark.parametrize("shared_row", [False, True],
                             ids=["rows", "shared_close"])
    def test_deviations_and_costs(self, case, fn, naive, shared_row):
        # a naive deviation charges the gamma of the grid point before, so
        # it takes the general formula in a pass too
        model, grid = DETERMINISTIC[case]
        if shared_row:
            strat = immediate_close(grid, grid.times[grid.n_steps // 2], 2.0)
        else:
            rng = np.random.default_rng(2)
            values = rng.standard_normal((3, grid.n_steps + 1))
            values[:, -1] = 0.0
            strat = Strategy(grid, 0.7, values,
                             rng.random(grid.n_steps + 1) < 0.5)
        _, gamma, alpha = ref_market(model, grid, 4, range(3))
        ref = ref_deviation(model, grid, gamma, alpha, strat, 0.4, naive)
        single = simulate_path(model, grid, 4, range(3))
        passed = []

        def price(strat, dev, market):
            passed.append((dev, market))
            return pathwise_cost(strat, dev, market)

        # per call, and in a pass, which hands down its resilience pair
        sample_paths(grid, 3, 4, [Pricing(model, lambda m: strat, price,
                                          0.4, naive)])
        # the pass's paths share its one impact path
        assert passed[0][1].gamma.strides[0] == 0
        for dev, market in [(fn(model, single, strat, 0.4), single),
                            *passed]:
            assert dev.pre_trade.shape == gamma.shape
            for got, want in zip((dev.pre_trade, dev.values,
                                  dev.impact_state), ref, strict=True):
                assert np.array_equal(got, want)
            for cost_fn, cost_naive in ((pathwise_cost, False),
                                        (pathwise_cost_naive, True)):
                assert np.array_equal(
                    cost_fn(strat, dev, market),
                    ref_cost(strat, ref[0], gamma, cost_naive))

    def test_other_gamma_is_not_read_from_the_terms(self, case):
        # a market of this model that carries another sigma = 0 model's
        # gamma, a view of that model's impact path, keeps its own gamma
        # when its deviation is handed this model's resilience pair
        model, grid = DETERMINISTIC[case]
        other = constant_model(model.T, 1.0, 0.3, mu=0.9)
        strat = immediate_close(grid, grid.times[grid.n_steps // 2], 2.0)
        with coefficients._chunk_pool(grid.n_steps):
            foreign = simulate_path(other, grid, 4, range(3))
            market = MarketPath(model, grid, foreign.w, foreign.gamma)
            dev = deviation._deviation(model, market, strat, 0.4, False,
                                       coefficients._resilience(model, grid))
        ref = ref_deviation(model, grid, market.gamma, market.alpha, strat,
                            0.4, False)
        assert np.array_equal(dev.pre_trade, ref[0])


class TestTrades:
    @pytest.mark.parametrize("shape", [(41,), (4, 41)], ids=["path", "rows"])
    def test_equal_to_diff(self, shape):
        grid = TimeGrid(0.0, 1.0, 40)
        values = np.random.default_rng(8).standard_normal(shape)
        values[..., -1] = 0.0
        s = Strategy(grid, -1.3, values, np.ones(41, dtype=bool))
        assert np.array_equal(s.trades, np.diff(values, prepend=-1.3))


class TestNonFiniteRefused:
    """An impact that overflows gives non-finite costs; they are refused."""

    # log gamma grows by about 9.5 t: it overflows before t = 75 on every
    # path, while the integral of rho stays in the range of exp
    MODEL = constant_model(100.0, 1.0, 1.0, 10.0, 1.0)
    GRID = TimeGrid(0.0, 100.0, 200)

    def factory(self, _market):
        return immediate_close(self.GRID, 99.5, 1.0)

    def test_estimate_cost(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="path 0 "):
                estimate_cost(self.MODEL, self.GRID, 50, 3, self.factory)

    def test_sample_paths_names_the_entry(self):
        # the first entry prices a model whose impact stays finite
        finite = constant_model(100.0, 1.0, 0.5)
        pricings = [Pricing(finite, self.factory, pathwise_cost),
                    Pricing(self.MODEL, self.factory, pathwise_cost)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="path 0 of entry 1 "):
                sample_paths(self.GRID, 50, 3, pricings)


SIGMA_ZERO = constant_model(2.0, 1.5, 0.5, mu=0.1)
ENTRY_MODELS = {"stochastic": MODEL, "sigma_zero": SIGMA_ZERO}


def entry_factory(model, grid, kind):
    """A strategy factory of one kind: the plan, the two round trips (one
    row per path) or an immediate close (one row shared by the chunk)."""
    if kind == "optimal":
        vs = solve_y_deterministic(model, grid)
        return lambda m: optimal_plan(model, vs, m, 0.0, X, D).x_star
    if kind == "close":
        return lambda m: immediate_close(grid, grid.times[grid.n_steps // 2],
                                         2.0)
    return FACTORIES[kind]


PRICES = {
    "cost": pathwise_cost,
    "naive": pathwise_cost_naive,
    "both": lambda s, dv, m: (pathwise_cost(s, dv, m),
                              pathwise_cost_naive(s, dv, m)),
}


class TestSharedPass:
    """sample_paths draws each chunk once and prices every entry on it."""

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_equals_one_pass_per_entry(self, data):
        grid, n_paths = data.draw(st.sampled_from([
            (TimeGrid(0.0, 2.0, 50), 2 * (CHUNK_ELEMENTS // 51) + 3),
            (TimeGrid(0.0, 2.0, CHUNK_ELEMENTS), 3)]),
            label="grid")
        entries = data.draw(st.lists(st.tuples(
            st.sampled_from(sorted(ENTRY_MODELS)),
            st.sampled_from(["optimal", "brownian", "gbm", "close"]),
            st.sampled_from(sorted(PRICES)),
            st.sampled_from([0.0, D]),
            st.booleans()), min_size=1, max_size=4), label="entries")
        pricings = [Pricing(ENTRY_MODELS[m],
                            entry_factory(ENTRY_MODELS[m], grid, kind),
                            PRICES[price], d_pre, naive_dynamics)
                    for m, kind, price, d_pre, naive_dynamics in entries]
        shared = sample_paths(grid, n_paths, 23, pricings)
        assert len(shared) == len(pricings)
        for pricing, got in zip(pricings, shared, strict=True):
            alone, = sample_paths(grid, n_paths, 23, [pricing])
            assert got.shape == alone.shape
            assert got.shape[1] == n_paths
            assert np.array_equal(got, alone)

    @pytest.mark.parametrize("ids", [range(3, 7), 5], ids=["chunk", "path"])
    @pytest.mark.parametrize("model", [MODEL, SIGMA_ZERO],
                             ids=["stochastic", "sigma_zero"])
    def test_market_arrays_are_read_only(self, model, ids):
        market = simulate_path(model, TimeGrid(0.0, 2.0, 40), 9, ids)
        with pytest.raises(ValueError):
            market.w[..., 0] = 1.0
        with pytest.raises(ValueError):
            market.gamma[..., 0] = 1.0

    def test_a_factory_cannot_write_into_the_shared_increments(self):
        grid = TimeGrid(0.0, 2.0, 40)

        def factory(market):
            market.w[..., 0] = 0.0
            return immediate_close(grid, 1.0, 2.0)

        with pytest.raises(ValueError):
            sample_paths(grid, 4, 1, [Pricing(MODEL, factory, pathwise_cost)])

    @pytest.mark.parametrize("n_paths, pricings, match", [
        (0, [Pricing(MODEL, FACTORIES["close"], pathwise_cost)],
         "at least 1 path"),
        (4, [], "at least one pricing"),
    ], ids=["no_paths", "no_pricings"])
    def test_refuses_an_empty_pass(self, n_paths, pricings, match):
        with pytest.raises(ValueError, match=match):
            sample_paths(TimeGrid(0.0, 2.0, 40), n_paths, 1, pricings)

    def test_two_models_build_step_terms_once_each(self, monkeypatch):
        grid = TimeGrid(0.0, 2.0, 50)
        n_paths = 3 * (CHUNK_ELEMENTS // 51) + 1  # four chunks
        assert len(list(path_chunks(n_paths, grid))) >= 3
        pricings = [Pricing(model, FACTORIES["gbm"], pathwise_cost,
                            naive_dynamics=True)
                    for model in (MODEL, SIGMA_ZERO, MODEL)]
        builds = spy_builders(monkeypatch)
        sample_paths(grid, n_paths, 5, pricings)
        assert [(b.name, b.model) for b in builds] == [
            (name, model) for name in ("_resilience", "_impact_terms")
            for model in (MODEL, SIGMA_ZERO)]


def chunk_rows(grid):
    """The paths in a full chunk on ``grid``."""
    return len(next(path_chunks(1 << 20, grid)))


class TestChunkPool:
    """A pass reuses a chunk array only once nothing but its pool holds it,
    and only inside sample_paths."""

    def test_kept_arrays_are_never_reused(self):
        grid = TimeGrid(0.0, 2.0, 40)
        n_paths = 4 * chunk_rows(grid) + 1
        vs = solve_y_deterministic(MODEL, grid)
        kept, copies, seen = [], [], []

        def keep(*arrays):
            kept.extend(arrays)
            copies.extend(a.copy() for a in arrays)

        def factory(market):
            if seen:  # a later chunk's market is read-only as well
                for a in (market.w, market.gamma):
                    with pytest.raises(ValueError):
                        a[..., 0] = 1.0
            seen.append(len(market.w))
            strat = optimal_plan(MODEL, vs, market, 0.0, X, D).x_star
            keep(market.w, market.gamma, market.gamma[..., :5], strat.values)
            return strat

        def price(strat, dev, market):
            keep(dev.pre_trade)
            return pathwise_cost(strat, dev, market)

        gbm = Pricing(MODEL, FACTORIES["gbm"], pathwise_cost,
                      naive_dynamics=True)
        got = sample_paths(grid, n_paths, 7, [Pricing(MODEL, factory, price),
                                              gbm])
        assert len(seen) >= 4
        for a, b in zip(kept, copies, strict=True):
            assert np.array_equal(a, b)
        plain = sample_paths(grid, n_paths, 7, [
            Pricing(MODEL, entry_factory(MODEL, grid, "optimal"),
                    pathwise_cost), gbm])
        for a, b in zip(got, plain, strict=True):
            assert np.array_equal(a, b)

    def test_the_pass_terms_take_nothing_from_the_pool(self):
        # the terms are built before the pool is set: a one-row temporary
        # taken from it would stay in it, keyed (), for the whole pass
        grid = TimeGrid(0.0, 2.0, 40)
        keys = []

        def price(strat, dev, market):
            keys.append(set(coefficients._POOL.get()._buffers))
            return pathwise_cost(strat, dev, market)

        # every array of these entries has the chunk's rows
        sample_paths(grid, 2 * chunk_rows(grid), 1, [
            Pricing(model, FACTORIES["gbm"], price, naive_dynamics=naive)
            for model in (MODEL, SIGMA_ZERO) for naive in (False, True)])
        assert len(keys) == 8
        assert all(() not in k for k in keys)

    def test_pool_is_set_only_inside_a_pass(self):
        grid = TimeGrid(0.0, 2.0, 40)
        inside = []

        def price(strat, dev, market):
            inside.append(coefficients._POOL.get())
            return pathwise_cost(strat, dev, market)

        sample_paths(grid, 4, 1, [Pricing(MODEL, FACTORIES["close"], price)])
        assert inside[0] is not None
        assert coefficients._POOL.get() is None

        def failing(strat, dev, market):
            raise RuntimeError("priced nothing")

        with pytest.raises(RuntimeError, match="priced nothing"):
            sample_paths(grid, 4, 1,
                         [Pricing(MODEL, FACTORIES["close"], failing)])
        assert coefficients._POOL.get() is None

    @pytest.mark.parametrize("caller, n_steps, inside", [
        (8192, 1000, 992), (8192, 10, 16), (8192, 10_000, 8192),
        (1024, 1000, 992), (512, 1000, 512)])
    def test_ufunc_buffer_is_bounded_by_the_row_only_inside_a_pass(
            self, caller, n_steps, inside):
        grid = TimeGrid(0.0, 2.0, n_steps)
        seen = []

        def price(strat, dev, market):
            seen.append(np.getbufsize())
            return pathwise_cost(strat, dev, market)

        def failing(strat, dev, market):
            raise RuntimeError("priced nothing")

        # set and restored by hand: NumPy 1.x does not scope it to errstate
        before = np.setbufsize(caller)
        try:
            sample_paths(grid, 4, 1, [Pricing(MODEL, FACTORIES["close"],
                                              price)])
            assert set(seen) == {inside}
            assert np.getbufsize() == caller
            with pytest.raises(RuntimeError, match="priced nothing"):
                sample_paths(grid, 4, 1,
                             [Pricing(MODEL, FACTORIES["close"], failing)])
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(before)

    def test_pool_does_not_grow_with_the_chunk_count(self):
        # a guard that never matches would keep every chunk's arrays
        grid = TimeGrid(0.0, 2.0, CHUNK_ELEMENTS // 4 - 1)
        few, many = 2 * chunk_rows(grid), 40 * chunk_rows(grid)
        vs = solve_y_deterministic(MODEL, grid)
        pricings = [
            Pricing(MODEL, lambda m: optimal_plan(MODEL, vs, m, 0.0, X,
                                                  D).x_star, pathwise_cost),
            Pricing(MODEL, FACTORIES["gbm"], pathwise_cost_naive,
                    naive_dynamics=True)]

        def peak(n_paths):
            # the memos of the streams
            sample_paths(grid, n_paths, 3, pricings)
            tracemalloc.start()
            try:
                sample_paths(grid, n_paths, 3, pricings)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk_array = 8 * chunk_rows(grid) * (grid.n_steps + 1)
        assert peak(many) <= peak(few) + chunk_array

    def test_a_short_last_chunk_takes_rows_of_full_buffers(self):
        # the criterion-3 plan at 10^4 steps: 7 paths end in a one-path
        # chunk, which once allocated a second set of arrays.  Its views
        # add only their own objects to the peak, far below one array row.
        grid = TimeGrid(0.0, 10.0, 10_000)
        vs = solve_y_deterministic(SHOWCASE, grid)
        full = 2 * chunk_rows(grid)

        def peak(n_paths):
            def estimate():
                estimate_cost(SHOWCASE, grid, n_paths, 1, lambda m: (
                    optimal_plan(SHOWCASE, vs, m, 0.0, 100.0, 0.0).x_star))
            estimate()  # the memos of the streams
            tracemalloc.start()
            try:
                estimate()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(full + 1) < peak(full) + 8 * (grid.n_steps + 1)


class TestThreads:
    def test_each_thread_has_its_own_pool(self):
        grid = TimeGrid(0.0, 2.0, 40)
        n_paths = 6 * chunk_rows(grid)
        pricings = [Pricing(ENTRY_MODELS[m], entry_factory(ENTRY_MODELS[m],
                                                           grid, kind),
                            PRICES[price], D, naive_dynamics)
                    for m, kind, price, naive_dynamics in (
                        ("stochastic", "optimal", "both", False),
                        ("sigma_zero", "gbm", "cost", True),
                        ("stochastic", "close", "naive", False))]
        seeds = (3, 4)
        serial = [sample_paths(grid, n_paths, seed, pricings)
                  for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the passes interleave chunk by chunk
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(
                    lambda seed: sample_paths(grid, n_paths, seed, pricings),
                    seeds, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial, strict=True):
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)

    def test_each_thread_bounds_and_restores_its_own_ufunc_buffer(self):
        # a pass on a 40-step and one on a 1 000-step grid, interleaved:
        # each reads its own bound, and its caller's size after the pass
        def run(n_steps):
            grid = TimeGrid(0.0, 2.0, n_steps)
            caller, seen = np.getbufsize(), set()

            def price(strat, dev, market):
                seen.add(np.getbufsize())
                return pathwise_cost(strat, dev, market)

            sample_paths(grid, 8 * chunk_rows(grid), 1,
                         [Pricing(MODEL, FACTORIES["close"], price)])
            return seen, caller, np.getbufsize()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(run, (40, 1000), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [({32}, 8192, 8192), ({992}, 8192, 8192)]
