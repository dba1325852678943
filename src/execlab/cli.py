"""Experiment runner: configs, figure data, CSV/JSON artifacts, selftest.

Every artifact is deterministic for a fixed seed: CSV floats are printed
with 17 significant digits, JSON summaries use sorted keys and contain no
timestamps, so re-running a config produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bsde import (discrete_value_recursion, ode_residual, solve_y_deterministic,
                   solve_y_ode)
from .coefficients import (CoefficientModel, TimeGrid, _require_finite,
                           constant_model, model_from_config, simulate_path)
from .cost import (CostEstimate, Pricing, _mean_se, closed_form_cost_gbm,
                   closed_form_naive_brownian, path_chunks, pathwise_cost,
                   pathwise_cost_naive, quadratic_representation_rhs,
                   sample_paths, value_function)
from .deviation import deviation_path
from .strategy import (OptimalPlan, counterexample_brownian,
                       counterexample_gbm, dynamic_consistency_check,
                       immediate_close, jump_example_model, optimal_plan)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "EXEC_LAB_OUT"


def default_out_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, ".")


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV with a header row, '.' decimal and round-trip float formatting."""
    rows = len(columns[0])
    for c in columns:
        if len(c) != rows:
            raise ValueError("all CSV columns must have equal length")
    # one template over Python floats: numpy scalars format the same bytes
    # at twice the cost
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row
                      for row in zip(*(np.asarray(c).tolist() for c in columns)))


def write_summary(path, summary: dict) -> None:
    """Summary JSON with sorted keys.  A NaN or infinity raises ValueError
    before the file is opened: JSON has no such values."""
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


@dataclass
class ExperimentConfig:
    """One experiment: tag, market model, grid/sampling sizes, start state."""

    tag: str
    n_steps: int
    model: dict = field(default_factory=dict)
    n_paths: int = 2
    seed: int = 0
    x: float = 0.0
    d: float = 0.0
    nu: float | None = None
    out_dir: str = field(default_factory=default_out_dir)

    def __post_init__(self):
        for name in ("tag", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string: "
                                 f"{getattr(self, name)!r}")
        if self.tag not in EXPERIMENTS:
            raise ValueError(f"unknown experiment tag {self.tag!r}; "
                             f"known: {sorted(EXPERIMENTS)}")
        # the types JSON gives them, so a summary can echo them back
        for name in ("n_steps", "n_paths", "seed"):
            if not _is_number(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer: "
                                 f"{getattr(self, name)!r}")
        for name in ("x", "d", "nu"):
            value = getattr(self, name)
            if value is not None and not _is_number(value, (int, float)):
                raise ValueError(f"{name} must be a real number: {value!r}")
            # json.load reads NaN, Infinity and integers of any size
            if value is not None:
                _require_finite(**{name: value})
        # its keys are checked by the runners that read it
        if not isinstance(self.model, dict):
            raise ValueError(f"model must be an object: {self.model!r}")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be positive")

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        """The config in a JSON file; a file that is not an object of the
        fields, the required ones included, raises ValueError."""
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a config is a JSON object, not a "
                             f"{type(raw).__name__}")
        unknown = sorted(raw.keys() - {f.name for f in fields(ExperimentConfig)})
        missing = [f.name for f in fields(ExperimentConfig) if f.name not in raw
                   and f.default is MISSING and f.default_factory is MISSING]
        if unknown or missing:
            raise ValueError(f"{path}: unknown keys {unknown}, missing keys "
                             f"{missing}")
        return ExperimentConfig(**raw)


def _is_number(value, types) -> bool:
    """Whether value is of ``types``; a bool is not a number here."""
    return isinstance(value, types) and not isinstance(value, bool)


def _plan_cost_convergence(model: CoefficientModel, x: float, d: float,
                           seed: int, steps) -> tuple:
    """Value, grid costs of the optimal plan, their errors and error ratios.

    For mu = sigma = 0.  The plan trades continuously between its block
    trades, so the grid cost must not charge the quadratic term on the O(h)
    sampled increments; that reading converges to the value at first order.
    """
    v = value_function(1.0 / (2.0 + model.T * model.rho[0]),
                       model.gamma0, x, d).v
    costs = []
    for n in steps:
        grid = TimeGrid(0.0, model.T, n)
        market = simulate_path(model, grid, seed, 0)
        plan = optimal_plan(model, solve_y_deterministic(model, grid), market,
                            0.0, x, d)
        dev = deviation_path(model, market, plan.x_star, d)
        costs.append(pathwise_cost_naive(plan.x_star, dev, market))
    errors = [abs(c - v) for c in costs]
    return v, costs, errors, [e0 / e1 for e0, e1 in zip(errors, errors[1:])]


def _regime_model(cfg: ExperimentConfig, *zero: str) -> CoefficientModel:
    """The config's model if it is one piece with the ``zero`` coefficients 0;
    runners refuse other models rather than price them from their first piece."""
    model = model_from_config(cfg.model)
    if model.breakpoints:
        raise ValueError(f"{cfg.tag} needs a single-piece model")
    if any(getattr(model, c)[0] != 0.0 for c in zero):
        raise ValueError(f"{cfg.tag} needs {' = '.join(zero)} = 0")
    return model


def _refuse_unread(cfg: ExperimentConfig, *read: str) -> None:
    """Refuse a config that sets a field its runner does not ``read``.

    Each runner reads ``tag``, ``n_steps``, ``seed`` and ``out_dir``; of the
    other fields, one left at its default (``{}`` for ``model``) is unset.
    """
    unset = {f.name: f.default for f in fields(cfg)
             if f.name in ("n_paths", "x", "d", "nu")}
    unset["model"] = {}
    given = [k for k, v in unset.items()
             if k not in read and getattr(cfg, k) != v]
    if given:
        raise ValueError(f"{cfg.tag} does not read {', '.join(given)}; "
                         "leave them unset")


class _Experiment(NamedTuple):
    """A Monte Carlo cost and the reference its estimate is held against;
    a runner and a selftest check share it."""

    pricing: Pricing
    ref_name: str
    ref: float


def _lambertw_value(model: CoefficientModel, grid: TimeGrid, x: float,
                    d: float) -> _Experiment:
    """The optimal plan's cost, and the value formula."""
    vs = solve_y_deterministic(model, grid)
    return _Experiment(
        Pricing(model, lambda m: optimal_plan(model, vs, m, 0.0, x, d).x_star,
                pathwise_cost, d_pre=d),
        "value", value_function(vs.y[0], model.gamma0, x, d).v)


def _naive_brownian(model: CoefficientModel, nu: float) -> _Experiment:
    """The scaled-Brownian round trip's uncorrected cost, and its closed
    form."""
    return _Experiment(
        Pricing(model, lambda m: counterexample_brownian(nu, m),
                pathwise_cost_naive),
        "closed_form", closed_form_naive_brownian(
            model.gamma0, model.rho[0], model.T, nu))


def _naive_gbm(model: CoefficientModel, x: float, nu: float) -> _Experiment:
    """The geometric round trip's cost under the uncorrected dynamics, and
    its closed form."""
    return _Experiment(
        Pricing(model, lambda m: counterexample_gbm(nu, x, m), pathwise_cost,
                naive_dynamics=True),
        "closed_form", closed_form_cost_gbm(
            model.gamma0, x, model.sigma[0], model.rho[0], model.T, nu))


def _mc_result(experiment: _Experiment, grid: TimeGrid, seed: int,
               costs: np.ndarray) -> dict:
    """An experiment's estimate from its costs, and its reference; it passes
    within 3 standard errors."""
    est = CostEstimate.from_costs(costs, grid, seed, experiment.pricing.model)
    return {experiment.ref_name: experiment.ref,
            "estimate": asdict(est),
            "pass": bool(abs(est.mean - experiment.ref)
                         <= 3.0 * est.std_error)}


def _run_mc(cfg: ExperimentConfig, grid: TimeGrid,
            experiment: _Experiment) -> dict:
    """A runner's result: the experiment priced on the config's paths."""
    costs, = sample_paths(grid, cfg.n_paths, cfg.seed, [experiment.pricing])
    return _mc_result(experiment, grid, cfg.seed, costs[0])


def _run_ow_value(cfg: ExperimentConfig) -> dict:
    model = _regime_model(cfg, "mu", "sigma")
    _refuse_unread(cfg, "model", "x", "d")
    v, costs, errors, ratios = _plan_cost_convergence(
        model, cfg.x, cfg.d, cfg.seed,
        [cfg.n_steps * mult for mult in (1, 2, 4)])
    return {"value": v, "costs": costs, "errors": errors,
            "error_ratios": ratios,
            "pass": all(1.5 <= r <= 2.5 for r in ratios)}


def _run_lambertw_value(cfg: ExperimentConfig) -> dict:
    model = _regime_model(cfg, "mu")
    _refuse_unread(cfg, "model", "n_paths", "x", "d")
    grid = TimeGrid(0.0, model.T, cfg.n_steps)
    return _run_mc(cfg, grid, _lambertw_value(model, grid, cfg.x, cfg.d))


def _run_naive_brownian(cfg: ExperimentConfig) -> dict:
    if cfg.nu is None:
        raise ValueError("naive_brownian needs the scale parameter nu")
    model = _regime_model(cfg, "mu", "sigma")
    _refuse_unread(cfg, "model", "n_paths", "nu")
    return _run_mc(cfg, TimeGrid(0.0, model.T, cfg.n_steps),
                   _naive_brownian(model, cfg.nu))


def _run_naive_gbm(cfg: ExperimentConfig) -> dict:
    if cfg.nu is None:
        raise ValueError("naive_gbm needs the exponent parameter nu")
    model = _regime_model(cfg, "mu")
    _refuse_unread(cfg, "model", "n_paths", "x", "nu")
    return _run_mc(cfg, TimeGrid(0.0, model.T, cfg.n_steps),
                   _naive_gbm(model, cfg.x, cfg.nu))


def _run_figure(cfg: ExperimentConfig) -> dict:
    # a figure's model and start state are fixed in FIGURE_PARAMS
    _refuse_unread(cfg)
    name = cfg.tag.removeprefix("figure_")
    path = reproduce_figure(name, cfg.out_dir, seed=cfg.seed,
                            n_steps=cfg.n_steps)
    return {"csv": str(path), "pass": True}


EXPERIMENTS = {
    "ow_value": _run_ow_value,
    "lambertw_value": _run_lambertw_value,
    "naive_brownian": _run_naive_brownian,
    "naive_gbm": _run_naive_gbm,
    "figure_lambertw": _run_figure,
    "figure_jump": _run_figure,
    "figure_negres": _run_figure,
}


def run(cfg: ExperimentConfig) -> dict:
    """Dispatch one experiment, write its summary JSON, return the summary."""
    results = EXPERIMENTS[cfg.tag](cfg)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "tag": cfg.tag,
        "inputs": {"model": cfg.model, "n_steps": cfg.n_steps,
                   "n_paths": cfg.n_paths, "seed": cfg.seed, "x": cfg.x,
                   "d": cfg.d, "nu": cfg.nu},
        "results": results,
        "pass": bool(results["pass"]),
    }
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_summary(out / f"{cfg.tag}_summary.json", summary)
    return summary


# --- figure data -----------------------------------------------------------

FIGURE_PARAMS = {   # model, start position x, start deviation d
    # stochastic-impact plan on one seeded path
    "lambertw": (constant_model(10.0, 1.0, 0.5, sigma=0.8), 100.0, 0.0),
    # drift switches on at t0 = 4: interior block trade
    "jump": (jump_example_model(0.3, 4.0, 5.0), 100.0, 0.0),
    # negative resilience: self-exciting impact, overshooting initial block
    "negres": (constant_model(5.0, 1.0, -0.1, mu=0.5), 100.0, 0.0),
}


def figure_plan(name: str, seed: int = 0, n_steps: int = 2000) -> OptimalPlan:
    """Build the plan behind one of the three showcase figures."""
    if name not in FIGURE_PARAMS:
        raise ValueError(f"unknown figure {name!r}; known: "
                         f"{sorted(FIGURE_PARAMS)}")
    model, x, d = FIGURE_PARAMS[name]
    grid = TimeGrid(0.0, model.T, n_steps)
    market = simulate_path(model, grid, seed, 0)
    return optimal_plan(model, solve_y_deterministic(model, grid), market,
                        0.0, x, d)


def reproduce_figure(name: str, out_dir=None, seed: int = 0,
                     n_steps: int = 2000) -> Path:
    """Emit the t-indexed series behind one figure; returns the CSV path."""
    plan = figure_plan(name, seed=seed, n_steps=n_steps)
    out = Path(out_dir if out_dir is not None else default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"figure_{name}.csv"
    write_csv(path, ["t", "X_star", "D_star", "gamma", "beta", "exp_q"],
              [plan.x_star.grid.times, plan.x_star.values,
               plan.d_star.values, plan.market.gamma, plan.beta, plan.exp_q])
    return path


# --- verification battery ----------------------------------------------------
# A fixed-size check takes no argument and returns a _check; SHOWCASE is the
# stochastic-impact regime.  A Monte Carlo check takes the grid and returns
# what it prices and the verdict it draws from its samples; it runs only
# through _monte_carlo, which selftest runs on all four at once.

SELFTEST_SEED = 20240811
SHOWCASE = constant_model(10.0, 1.0, 0.5, sigma=0.8)


def _py(v):
    """Plain-Python view of numpy scalars/sequences for JSON artifacts."""
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_py(x) for x in v]
    return v


def _check(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "pass": bool(passed),
            "detail": {k: _py(v) for k, v in detail.items()}}


def _mc_check(experiment: _Experiment, grid: TimeGrid,
              samples: np.ndarray) -> tuple[bool, dict]:
    """An experiment's verdict on its samples of the selftest's paths, and
    its reference value, mean and standard error as check detail."""
    r = _mc_result(experiment, grid, SELFTEST_SEED, samples[0])
    est = r.pop("estimate")
    return r.pop("pass"), dict(r, mean=est["mean"], std_error=est["std_error"])


def _monte_carlo(n_paths: int, mc_steps: int, *checks) -> list[dict]:
    """The Monte Carlo ``checks``, priced on one pass over the selftest's
    paths.

    A Monte Carlo check takes the grid and returns what it prices, a
    :class:`Pricing`, and the verdict that makes the check from its samples.
    """
    grid = TimeGrid(0.0, 10.0, mc_steps)
    built = [check(grid) for check in checks]
    samples = sample_paths(grid, n_paths, SELFTEST_SEED,
                           [pricing for pricing, _ in built])
    return [verdict(s) for (_, verdict), s in zip(built, samples)]


def constant_impact_value_convergence() -> dict:
    """Grid cost of the optimal plan converges to the value 1/7 at first order."""
    *_, ratios = _plan_cost_convergence(constant_model(10.0, 1.0, 0.5), 1.0,
                                        0.0, SELFTEST_SEED,
                                        (1000, 2000, 4000, 8000))
    return _check("constant_impact_value_convergence",
                  all(1.7 <= r <= 2.3 for r in ratios), ratios=ratios)


def lambertw_solution_residual() -> dict:
    """Exact solution in the Lambert-W regime: residual and RK4 gap."""
    grid = TimeGrid(0.0, 10.0, 10000)   # h = 1e-3
    vs = solve_y_deterministic(SHOWCASE, grid)
    residual = ode_residual(vs, SHOWCASE)
    gap = float(np.max(np.abs(vs.y - solve_y_ode(SHOWCASE, grid).y)))
    return _check("lambertw_solution_residual",
                  residual <= 1e-5 and vs.y[-1] == 0.5 and gap <= 1e-8,
                  residual=residual, integrator_gap=gap)


def stochastic_value_match(grid: TimeGrid):
    """Monte Carlo cost of the optimal plan against the value formula."""
    experiment = _lambertw_value(SHOWCASE, grid, 100.0, 0.0)

    def verdict(samples):
        ok, detail = _mc_check(experiment, grid, samples)
        return _check("stochastic_value_match", ok, **detail)
    return experiment.pricing, verdict


def brownian_roundtrip_cost(grid: TimeGrid):
    """Scaled-Brownian round trip: a negative naive cost, quadratic in nu.

    The naive cost and its closed form are exactly quadratic in nu, so one
    estimate at nu = 2 is held against the closed form, and on one chunk
    the costs at nu = 1 and 4 must be (nu/2)^2 times the nu = 2 cost.
    """
    model = constant_model(10.0, 1.0, 0.05)
    experiment = _naive_brownian(model, 2.0)

    def verdict(samples):
        ok, detail = _mc_check(experiment, grid, samples)
        market = simulate_path(model, grid, SELFTEST_SEED,
                               next(path_chunks(samples.shape[1], grid)))

        def cost(nu):
            s = counterexample_brownian(nu, market)
            return pathwise_cost_naive(s, deviation_path(model, market, s),
                                       market)

        c2 = cost(2.0)
        scaling = max(float(np.max(np.abs(cost(nu) / ((nu / 2.0) ** 2 * c2)
                                          - 1.0)))
                      for nu in (1.0, 4.0))
        return _check("brownian_roundtrip_cost",
                      ok and detail["mean"] < 0.0 and scaling <= 1e-12,
                      **detail, scaling_gap=scaling)
    return experiment.pricing, verdict


def geometric_roundtrip_cost(grid: TimeGrid):
    """Geometric round trip under uncorrected dynamics, and its divergence."""
    experiment = _naive_gbm(SHOWCASE, 1.0, -1.0)

    def verdict(samples):
        ok, detail = _mc_check(experiment, grid, samples)
        trend = [closed_form_cost_gbm(1.0, 1.0, 0.8, 0.5, 10.0, nu)
                 for nu in (-2.0, -4.0, -6.0)]
        return _check("geometric_roundtrip_cost",
                      ok and trend[0] > trend[1] > trend[2], **detail,
                      trend=trend)
    return experiment.pricing, verdict


def discrete_recursion_convergence() -> dict:
    """Discrete backward recursion converges to the continuous value: first
    order with stochastic impact, second with constant impact (closed form)."""
    lambert_y0 = solve_y_deterministic(SHOWCASE, TimeGrid(0.0, 10.0, 10)).y[0]
    ratios = {}
    for tag, model, target in (
            ("constant", constant_model(10.0, 1.0, 0.5), 1.0 / 7.0),
            ("stochastic", SHOWCASE, lambert_y0)):
        errs = [abs(discrete_value_recursion(model, h).y_h[0] - target)
                for h in (1e-1, 5e-2, 2.5e-2)]
        ratios[tag] = [errs[0] / errs[1], errs[1] / errs[2]]
    return _check("discrete_recursion_convergence",
                  all(1.7 <= r <= 2.3 for r in ratios["stochastic"])
                  and all(3.6 <= r <= 4.4 for r in ratios["constant"]),
                  **ratios)


def _pathwise_representation_gap() -> float:
    """Gap of the quadratic representation on one path of deterministic
    impact, on a 10^5-step grid."""
    model = constant_model(1.0, 1.0, 0.5)
    grid = TimeGrid(0.0, 1.0, 100_000)
    # solved first: the solver's temporaries are freed before the path is drawn
    vs = solve_y_deterministic(model, grid)
    market = simulate_path(model, grid, SELFTEST_SEED, 0)
    hold = immediate_close(grid, 1.0, 1.0)
    dev = deviation_path(model, market, hold)
    return abs(pathwise_cost(hold, dev, market)
               - quadratic_representation_rhs(vs, dev))


def quadratic_representation(grid: TimeGrid):
    """Quadratic cost representation of a hold-then-close strategy: pathwise
    with deterministic impact; with stochastic impact, in the mean (paired SE)
    and against the closed cost E[gamma_T] x^2 / 2 = gamma_0 exp(mu T) / 2."""
    det_gap = _pathwise_representation_gap()
    vs = solve_y_deterministic(SHOWCASE, grid)
    hold = immediate_close(grid, 10.0, 1.0)

    def verdict(samples):
        lhs, rhs = samples
        gap, se = _mean_se(lhs - rhs)
        cost, cost_se = _mean_se(lhs)
        closed_form = (SHOWCASE.gamma0
                       * np.exp(SHOWCASE.mu[0] * 10.0) / 2.0)
        return _check("quadratic_representation",
                      det_gap <= 1e-6 and abs(gap) <= 3.0 * se
                      and abs(cost - closed_form) <= 3.0 * cost_se,
                      deterministic_gap=det_gap, mc_gap=gap, paired_se=se,
                      cost=cost, cost_se=cost_se, closed_form=closed_form)
    pricing = Pricing(SHOWCASE, lambda _: hold, lambda s, dv, m: (
        pathwise_cost(s, dv, m),
        quadratic_representation_rhs(vs, dv)))
    return pricing, verdict


def structural_invariants() -> dict:
    """Plan invariants in four regimes, and exact zero-resilience closing.

    y stays in [0, 1/2] and ends at exactly 1/2; the impact state is the
    scaled stochastic exponential; with deterministic impact the deviation
    is flat between block trades; replanning midway reproduces the plan.
    """
    g10, g5 = TimeGrid(0.0, 10.0, 4000), TimeGrid(0.0, 5.0, 4000)
    cases = [(model, solve_y_deterministic(model, g), g)
             for model, g in ((constant_model(10.0, 1.0, 0.5), g10),
                              (jump_example_model(0.3, 4.0, 5.0), g5),
                              (constant_model(5.0, 1.0, -0.1, mu=0.5), g5),
                              (SHOWCASE, g10))]
    rows = []
    for model, vs, g in cases:
        market = simulate_path(model, g, SELFTEST_SEED, 0)
        plan = optimal_plan(model, vs, market, 0.0, 2.0, 0.5)
        state = plan.d_star.impact_state / plan.exp_q
        dv = plan.d_star.values[:-1]
        d_const = np.max(np.abs(plan.d_star.pre_trade[1:-1] - dv[:-1]))
        rows.append((max(np.max(vs.y) - 0.5, -np.min(vs.y)),
                     np.max(np.abs(state - plan.scale)) / abs(plan.scale),
                     0.0 if any(model.sigma)
                     else d_const / np.max(np.abs(dv)),
                     dynamic_consistency_check(plan, g.times[g.n_steps // 2])))
    y_range, *tol = np.max(rows, axis=0)
    worst = dict(zip(("impact_state", "d_const", "dyn_consistency"), tol))
    terminal_exact = all(case[1].y[-1] == 0.5 for case in cases)

    zero_rho = constant_model(5.0, 1.0, 0.0, mu=0.3, sigma=0.4)
    plan0 = optimal_plan(zero_rho, solve_y_deterministic(zero_rho, g5),
                         simulate_path(zero_rho, g5, SELFTEST_SEED, 0),
                         0.0, 2.0, 1.0)
    zero_rho_exact = bool(np.all(plan0.x_star.values
                                 == immediate_close(g5, 0.0, 2.0).values))
    return _check("structural_invariants",
                  y_range <= 0.0 and terminal_exact and max(tol) <= 1e-10
                  and zero_rho_exact, y_range=y_range,
                  terminal_exact=terminal_exact,
                  zero_rho_exact=zero_rho_exact, **worst)


def interior_block_trade() -> dict:
    """Drift switching on at t0 = 4: ratio jump size and block trade times."""
    model = jump_example_model(0.3, 4.0, 5.0)
    jump_gaps, nonzero_trades, expected = [], [], []
    for n in (1000, 2000):
        grid = TimeGrid(0.0, 5.0, n)
        vs = solve_y_deterministic(model, grid)
        k = grid.index_of(4.0)
        jump_gaps.append(abs((vs.beta_tilde[k] - vs.beta_pre[k])
                             - vs.y[k] / (2.0 * 0.3 + 1.0)))
        market = simulate_path(model, grid, SELFTEST_SEED, 0)
        trades = optimal_plan(model, vs, market, 0.0, 100.0, 0.0).x_star.trades
        # block trades stay O(1) as the grid refines; samples of the
        # continuous trading path are O(h) (< 0.1 here), so 1.0 separates them
        nonzero_trades.append(np.flatnonzero(np.abs(trades) > 1.0).tolist())
        expected.append([0, k, n])
    return _check("interior_block_trade",
                  max(jump_gaps) <= 1e-10 and nonzero_trades == expected,
                  jump_gap=max(jump_gaps), nonzero_trades=nonzero_trades)


def reproducible_artifacts(out_dir: Path) -> dict:
    """Figure CSVs written twice under out_dir are byte-identical."""
    blobs = []
    for dd in (out_dir / "rep1", out_dir / "rep2"):
        for name in FIGURE_PARAMS:
            reproduce_figure(name, dd, seed=SELFTEST_SEED)
        blobs.append(b"".join(sorted(p.read_bytes()
                                     for p in dd.glob("*.csv"))))
    return _check("reproducible_artifacts", blobs[0] == blobs[1])


# The one registry of checks: selftest runs them all at reduced size and
# tests/test_acceptance.py each one at full size.
CHECKS = (constant_impact_value_convergence, lambertw_solution_residual,
          stochastic_value_match, brownian_roundtrip_cost,
          geometric_roundtrip_cost, discrete_recursion_convergence,
          quadratic_representation, structural_invariants,
          interior_block_trade, reproducible_artifacts)

# the Monte Carlo checks, which selftest prices on one pass
_MONTE_CARLO = (stochastic_value_match, brownian_roundtrip_cost,
                geometric_roundtrip_cost, quadratic_representation)


def selftest(out_dir=None, n_paths: int = 20000, mc_steps: int = 5000) -> int:
    """Run every check at reduced size; 0 exit iff every check passes.

    The Monte Carlo checks, at ``n_paths`` paths of ``mc_steps`` steps,
    draw each chunk of paths once and are all priced on it.  They run
    first, then the artifacts check, then the fixed-size checks."""
    out = Path(out_dir if out_dir is not None else default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    done = dict(zip(_MONTE_CARLO, _monte_carlo(n_paths, mc_steps,
                                               *_MONTE_CARLO)))
    done[reproducible_artifacts] = reproducible_artifacts(out)
    checks = [done[fn] if fn in done else fn() for fn in CHECKS]
    summary = {"schema_version": SCHEMA_VERSION, "seed": SELFTEST_SEED,
               "checks": checks, "pass": all(c["pass"] for c in checks)}
    write_summary(out / "selftest_summary.json", summary)
    for c in checks:
        print(("PASS" if c["pass"] else "FAIL") + f"  {c['name']}")
    return 0 if summary["pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="exec-lab",
        description="Optimal-execution engine: experiments, figures, selftest")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("name", choices=sorted(FIGURE_PARAMS))
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--seed", type=int, default=0)
    sub.add_parser("selftest", help="run the built-in verification battery")
    args = parser.parse_args(argv)

    if args.command == "run":
        summary = run(ExperimentConfig.from_file(args.config))
        print(json.dumps(summary, sort_keys=True, indent=2))
        return 0 if summary["pass"] else 1
    if args.command == "figure":
        path = reproduce_figure(args.name, args.out, seed=args.seed)
        print(path)
        return 0
    return selftest()


if __name__ == "__main__":
    sys.exit(main())
