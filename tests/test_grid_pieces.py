"""Every grid computation takes a step's coefficients by grid index.

A grid time can round to either side of a breakpoint: on TimeGrid(0, 1, 206)
the point of t = 0.5 is 0.49999999999999994.  The pieces must still change
at the index that TimeGrid.validate_model gives the breakpoint, in the step
table, in both solvers and in the optimal plan.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from execlab import (JumpExample, TimeGrid, build_model, example_beta_path,
                     immediate_close, jump_example_model, optimal_plan,
                     simulate_path, solve_y_deterministic, solve_y_ode,
                     step_coefficients, step_terms)

GRID = TimeGrid(0.0, 1.0, 206)
MODEL = jump_example_model(0.3, 0.5, 1.0)
K = GRID.index_of(0.5)
SOLVERS = pytest.mark.parametrize("solve", [solve_y_deterministic,
                                            solve_y_ode])


def changes(rows):
    """Indices of the steps whose coefficients differ from the step before."""
    rows = np.atleast_2d(rows)
    return (np.flatnonzero(np.any(rows[:, 1:] != rows[:, :-1], axis=0))
            + 1).tolist()


class TestRoundedBreakpoint:
    def test_table_changes_drift_at_the_grid_index(self):
        assert GRID.times[K] < 0.5
        assert changes(step_coefficients(MODEL, GRID)[1]) == [K]
        assert changes(step_terms(MODEL, GRID).mu) == [K]

    @SOLVERS
    def test_ratio_jumps_at_the_grid_index(self, solve):
        vs = solve(MODEL, GRID)
        assert np.flatnonzero(vs.beta_tilde != vs.beta_pre).tolist() == [K]

    def test_exact_ratio_matches_the_closed_form(self):
        vs = solve_y_deterministic(MODEL, GRID)
        ref = example_beta_path(JumpExample(0.3, 0.5), 1.0, GRID)
        assert np.max(np.abs(vs.beta_tilde - ref.beta_tilde)) <= 1e-15
        assert np.max(np.abs(vs.beta_pre - ref.beta_pre)) <= 1e-15

    def test_rk4_matches_the_exact_solver(self):
        exact = solve_y_deterministic(MODEL, GRID)
        assert np.max(np.abs(solve_y_ode(MODEL, GRID).y - exact.y)) <= 1e-10

    @SOLVERS
    def test_plan_trades_blocks_at_the_grid_index(self, solve):
        market = simulate_path(MODEL, GRID, 0, 0)
        plan = optimal_plan(MODEL, solve(MODEL, GRID), market, 0.0, 100.0,
                            0.0)
        big = np.flatnonzero(np.abs(plan.x_star.trades) > 1.0)
        assert big.tolist() == [0, K, GRID.n_steps]


@given(T=st.floats(0.1, 50.0), n=st.integers(2, 400), data=st.data())
@settings(max_examples=200, deadline=None)
def test_table_changes_piece_at_the_validated_indices(T, n, data):
    # breakpoints written as k T / n, as a user would: within rounding of
    # the grid times k h, on either side of them
    ks = data.draw(st.lists(st.integers(1, n - 1), unique=True, max_size=4),
                   label="break indices")
    starts = [0.0] + [k * T / n for k in sorted(ks)]
    model = build_model(T, 1.0, [
        {"t_from": t, "rho": 1.0, "mu": 0.1 * i, "sigma": 0.01 * i}
        for i, t in enumerate(starts)])
    grid = TimeGrid(0.0, T, n)
    indices = grid.validate_model(model)
    assert indices == sorted(ks)
    table = step_coefficients(model, grid)
    assert changes(table) == indices
    assert changes(np.stack(step_terms(model, grid)[:3])) == indices
    # each run holds the values of its piece
    for i, k in enumerate([0, *indices]):
        assert table[:, k].tolist() == [1.0, 0.1 * i, 0.01 * i]


@st.composite
def zero_resilience_models(draw):
    """A model with rho = 0 on one to three pieces, and a grid for it."""
    T, n = draw(st.floats(0.5, 10.0)), draw(st.integers(2, 300))
    ks = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=2))
    pieces = []
    for k in [0, *sorted(ks)]:
        sigma = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
        mu = draw(st.floats(sigma**2 + 0.01, 3.0))
        pieces.append({"t_from": k * T / n, "rho": 0.0, "mu": mu,
                       "sigma": sigma})
    return build_model(T, 1.0, pieces), TimeGrid(0.0, T, n)


# RK4's ratio was once 1 - 1.1e-16 on the first piece of this model
TWO_ZERO_RESILIENCE_PIECES = (build_model(2.0, 1.0, [
    {"t_from": 0.0, "rho": 0.0, "mu": 1.2, "sigma": 0.4},
    {"t_from": 1.0, "rho": 0.0, "mu": 0.9, "sigma": 0.1}]),
    TimeGrid(0.0, 2.0, 20))


@given(zero_resilience_models())
@example(TWO_ZERO_RESILIENCE_PIECES)
@settings(max_examples=60, deadline=None)
def test_zero_resilience_closes_at_once_in_both_solvers(model_and_grid):
    # rho = 0 on every piece: y = 1/2 and the ratio is exactly 1, so the
    # optimal plan is the immediate close, with no round-off trades
    model, grid = model_and_grid
    market = simulate_path(model, grid, 3, range(2))
    ref = immediate_close(grid, 0.0, 4.0)
    for solve in (solve_y_deterministic, solve_y_ode):
        vs = solve(model, grid)
        assert np.all(vs.y == 0.5)
        assert np.all(vs.beta_tilde == 1.0) and np.all(vs.beta_pre == 1.0)
        plan = optimal_plan(model, vs, market, 0.0, 4.0, 1.0)
        assert np.array_equal(plan.x_star.values, np.broadcast_to(
            ref.values, plan.x_star.values.shape))
        assert np.array_equal(plan.x_star.block_mask(), ref.block_mask())
        assert plan.x_star.x_pre == ref.x_pre
