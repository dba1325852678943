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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bsde import (ValueSolution, discrete_value_recursion, ode_residual,
                   solve_y_lambert, solve_y_ode, solve_y_ow)
from .coefficients import (CoefficientModel, TimeGrid, constant_model,
                           model_from_config, simulate_path)
from .cost import (closed_form_cost_gbm, closed_form_naive_brownian,
                   estimate_cost, pathwise_cost, pathwise_cost_naive,
                   quadratic_representation_rhs, value_function)
from .deviation import deviation_path
from .strategy import (JumpExample, NegResExample, OptimalPlan,
                       counterexample_brownian, counterexample_gbm,
                       dynamic_consistency_check, example_beta_path,
                       immediate_close, jump_example_model,
                       negres_example_model, optimal_plan)

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
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join("%.17g" % c[i] for c in columns) + "\n")


def plan_to_csv(plan: OptimalPlan, path) -> None:
    write_csv(path, ["t", "X_star", "D_star", "gamma", "beta", "exp_q"],
              [plan.grid.times, plan.x_star.values, plan.d_star.values,
               plan.market.gamma, plan.beta, plan.exp_q])


@dataclass
class ExperimentConfig:
    """One experiment: tag, market model, grid/sampling sizes, start state."""

    tag: str
    model: dict
    n_steps: int
    n_paths: int = 2
    seed: int = 0
    x: float = 0.0
    d: float = 0.0
    t: float = 0.0
    nu: float | None = None
    t0: float | None = None
    out_dir: str = field(default_factory=default_out_dir)

    def __post_init__(self):
        if self.tag not in EXPERIMENTS:
            raise ValueError(f"unknown experiment tag {self.tag!r}; "
                             f"known: {sorted(EXPERIMENTS)}")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be positive")

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return ExperimentConfig(**raw)


def _deterministic_plan_cost(model: CoefficientModel, vs: ValueSolution,
                             grid: TimeGrid, x: float, d: float,
                             seed: int) -> float:
    """Grid cost of the optimal plan, read as a finite-variation strategy.

    The plan trades continuously between its block trades, so the grid
    evaluation of its cost must not charge the quadratic term on the O(h)
    sampled increments; that reading converges to the value at first order.
    """
    market = simulate_path(model, grid, seed, 0)
    plan = optimal_plan(model, vs, market, grid.t0, x, d)
    dev = deviation_path(model, market, plan.x_star, d)
    return pathwise_cost_naive(plan.x_star, dev, market)


def _run_ow_value(cfg: ExperimentConfig) -> dict:
    model = model_from_config(cfg.model)
    rho = model.rho.values[0]
    y0 = 1.0 / (2.0 + model.T * rho)
    v = value_function(y0, model.gamma0, cfg.x, cfg.d).v
    costs, errors = [], []
    for mult in (1, 2, 4):
        grid = TimeGrid(0.0, model.T, cfg.n_steps * mult)
        vs = solve_y_ow(rho, model.T, grid)
        c = _deterministic_plan_cost(model, vs, grid, cfg.x, cfg.d, cfg.seed)
        costs.append(c)
        errors.append(abs(c - v))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    return {"value": v, "costs": costs, "errors": errors,
            "error_ratios": ratios, "pass": ok}


def _run_lambertw_value(cfg: ExperimentConfig) -> dict:
    model = model_from_config(cfg.model)
    rho = model.rho.values[0]
    sigma = model.sigma.values[0]
    grid = TimeGrid(0.0, model.T, cfg.n_steps)
    vs = solve_y_lambert(rho, sigma, model.T, grid)
    v = value_function(vs.y[0], model.gamma0, cfg.x, cfg.d).v
    est = estimate_cost(model, grid, cfg.n_paths, cfg.seed,
                        lambda m: optimal_plan(model, vs, m, 0.0,
                                               cfg.x, cfg.d).x_star,
                        d_pre=cfg.d)
    ok = bool(abs(est.mean - v) <= 3.0 * est.std_error)
    return {"value": v, "estimate": json.loads(est.to_json()), "pass": ok}


def _run_naive_brownian(cfg: ExperimentConfig) -> dict:
    if cfg.nu is None:
        raise ValueError("naive_brownian needs the scale parameter nu")
    model = model_from_config(cfg.model)
    rho = model.rho.values[0]
    ref = closed_form_naive_brownian(model.gamma0, rho, model.T, cfg.nu)
    grid = TimeGrid(0.0, model.T, cfg.n_steps)
    est = estimate_cost(model, grid, cfg.n_paths, cfg.seed,
                        lambda m: counterexample_brownian(cfg.nu, m),
                        naive=True)
    ok = bool(abs(est.mean - ref) <= 3.0 * est.std_error)
    return {"closed_form": ref, "estimate": json.loads(est.to_json()),
            "pass": ok}


def _run_naive_gbm(cfg: ExperimentConfig) -> dict:
    if cfg.nu is None:
        raise ValueError("naive_gbm needs the exponent parameter nu")
    model = model_from_config(cfg.model)
    rho = model.rho.values[0]
    sigma = model.sigma.values[0]
    ref = closed_form_cost_gbm(model.gamma0, cfg.x, sigma, rho, model.T,
                               cfg.nu)
    grid = TimeGrid(0.0, model.T, cfg.n_steps)
    est = estimate_cost(model, grid, cfg.n_paths, cfg.seed,
                        lambda m: counterexample_gbm(cfg.nu, cfg.x, m),
                        naive_dynamics=True)
    ok = bool(abs(est.mean - ref) <= 3.0 * est.std_error)
    return {"closed_form": ref, "estimate": json.loads(est.to_json()),
            "pass": ok}


def _run_figure(cfg: ExperimentConfig) -> dict:
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
                   "d": cfg.d, "t": cfg.t, "nu": cfg.nu, "t0": cfg.t0},
        "results": results,
        "pass": bool(results["pass"]),
    }
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{cfg.tag}_summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


# --- figure data -----------------------------------------------------------

FIGURE_PARAMS = {
    # stochastic-impact plan on one seeded path
    "lambertw": {"T": 10.0, "x": 100.0, "d": 0.0, "gamma0": 1.0,
                 "rho": 0.5, "sigma": 0.8},
    # drift switches on at t0: interior block trade
    "jump": {"T": 5.0, "x": 100.0, "d": 0.0, "gamma0": 1.0,
             "rho": 0.3, "t0": 4.0},
    # negative resilience: self-exciting impact, overshooting initial block
    "negres": {"T": 5.0, "x": 100.0, "d": 0.0, "gamma0": 1.0,
               "rho": -0.1, "mu": 0.5},
}


def figure_plan(name: str, seed: int = 0, n_steps: int = 2000) -> OptimalPlan:
    """Build the plan behind one of the three showcase figures."""
    if name not in FIGURE_PARAMS:
        raise ValueError(f"unknown figure {name!r}; known: "
                         f"{sorted(FIGURE_PARAMS)}")
    p = FIGURE_PARAMS[name]
    if name == "lambertw":
        model = constant_model(p["T"], p["gamma0"], p["rho"], 0.0, p["sigma"])
        grid = TimeGrid(0.0, p["T"], n_steps)
        vs = solve_y_lambert(p["rho"], p["sigma"], p["T"], grid)
    elif name == "jump":
        if (n_steps * p["t0"]) % p["T"] != 0.0:
            raise ValueError("n_steps must place t0 on the grid")
        model = jump_example_model(p["rho"], p["t0"], p["T"], p["gamma0"])
        grid = TimeGrid(0.0, p["T"], n_steps)
        vs = example_beta_path(JumpExample(p["rho"], p["t0"]), p["T"], grid)
    else:
        model = negres_example_model(p["rho"], p["mu"], p["T"], p["gamma0"])
        grid = TimeGrid(0.0, p["T"], n_steps)
        vs = example_beta_path(NegResExample(p["rho"], p["mu"]), p["T"], grid)
    market = simulate_path(model, grid, seed, 0)
    return optimal_plan(model, vs, market, 0.0, p["x"], p["d"])


def reproduce_figure(name: str, out_dir=None, seed: int = 0,
                     n_steps: int = 2000) -> Path:
    """Emit the t-indexed series behind one figure; returns the CSV path."""
    plan = figure_plan(name, seed=seed, n_steps=n_steps)
    out = Path(out_dir if out_dir is not None else default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"figure_{name}.csv"
    plan_to_csv(plan, path)
    return path


# --- selftest ---------------------------------------------------------------

SELFTEST_SEED = 20240811


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


def _selftest_checks(tmp_dir: Path, n_paths: int = 20000,
                     mc_steps: int = 5000) -> list[dict]:
    checks = []
    seed = SELFTEST_SEED

    # 1. first-order convergence of the grid cost to the constant-impact value
    cfg = ExperimentConfig(tag="ow_value",
                           model={"T": 10.0, "gamma0": 1.0, "pieces": [
                               {"t_from": 0.0, "rho": 0.5, "mu": 0.0,
                                "sigma": 0.0}]},
                           n_steps=1000, x=1.0, d=0.0, out_dir=str(tmp_dir))
    r = _run_ow_value(cfg)
    checks.append(_check("constant_impact_value_convergence", r["pass"],
                         ratios=r["error_ratios"], value=r["value"]))

    # 2. Lambert-W closed form: residual and agreement with the integrator
    T, rho, sigma = 10.0, 0.5, 0.8
    grid = TimeGrid(0.0, T, 10000)
    model52 = constant_model(T, 1.0, rho, 0.0, sigma)
    vs_lw = solve_y_lambert(rho, sigma, T, grid)
    res = ode_residual(vs_lw, model52)
    vs_ode = solve_y_ode(model52, grid)
    gap = float(np.max(np.abs(vs_lw.y - vs_ode.y)))
    checks.append(_check("lambertw_solution_residual",
                         res <= 1e-5 and vs_lw.y[-1] == 0.5 and gap <= 1e-8,
                         residual=res, integrator_gap=gap))

    # 3. Monte Carlo cost of the optimal plan vs the value formula
    x = 100.0
    mc_grid = TimeGrid(0.0, T, mc_steps)
    vs_mc = solve_y_lambert(rho, sigma, T, mc_grid)
    v = value_function(vs_mc.y[0], 1.0, x, 0.0).v
    est = estimate_cost(model52, mc_grid, n_paths, seed,
                        lambda m: optimal_plan(model52, vs_mc, m, 0.0,
                                               x, 0.0).x_star)
    checks.append(_check("stochastic_value_match",
                         abs(est.mean - v) <= 3.0 * est.std_error,
                         value=v, mean=est.mean, std_error=est.std_error))

    # 4. scaled-Brownian round trip: naive cost matches its closed form
    model41 = constant_model(T, 1.0, 0.05)
    nu = 2.0
    ref = closed_form_naive_brownian(1.0, 0.05, T, nu)
    est = estimate_cost(model41, mc_grid, n_paths, seed,
                        lambda m: counterexample_brownian(nu, m), naive=True)
    checks.append(_check("brownian_roundtrip_cost",
                         abs(est.mean - ref) <= 3.0 * est.std_error,
                         closed_form=ref, mean=est.mean,
                         std_error=est.std_error))

    # 5. geometric round trip under uncorrected dynamics + divergence trend
    ref = closed_form_cost_gbm(1.0, 1.0, sigma, rho, T, -1.0)
    est = estimate_cost(model52, mc_grid, n_paths, seed,
                        lambda m: counterexample_gbm(-1.0, 1.0, m),
                        naive_dynamics=True)
    trend = [closed_form_cost_gbm(1.0, 1.0, sigma, rho, T, nu_)
             for nu_ in (-2.0, -4.0, -6.0)]
    checks.append(_check("geometric_roundtrip_cost",
                         abs(est.mean - ref) <= 3.0 * est.std_error
                         and trend[0] > trend[1] > trend[2],
                         closed_form=ref, mean=est.mean,
                         std_error=est.std_error, trend=trend))

    # 6. discrete backward recursion converges to the continuous value in
    # both regimes: first order with stochastic impact, second order with
    # constant impact (there the recursion solves in closed form and its
    # error halves twice per halved step)
    ratios = {}
    for tag, model, target in (
            ("constant", constant_model(T, 1.0, rho), 1.0 / 7.0),
            ("stochastic", model52, vs_lw.y[0])):
        errs = [abs(discrete_value_recursion(model, h).y_h[0] - target)
                for h in (1e-1, 5e-2, 2.5e-2)]
        ratios[tag] = [errs[0] / errs[1], errs[1] / errs[2]]
    ok6 = (all(1.7 <= r <= 2.3 for r in ratios["stochastic"])
           and all(3.6 <= r <= 4.4 for r in ratios["constant"]))
    checks.append(_check("discrete_recursion_convergence", ok6, **ratios))

    # 7. quadratic representation: deterministic and stochastic regimes
    ow1 = constant_model(1.0, 1.0, 0.5)
    g_fine = TimeGrid(0.0, 1.0, 100000)
    vs_ow1 = solve_y_ow(0.5, 1.0, g_fine)
    mkt = simulate_path(ow1, g_fine, seed, 0)
    hold = immediate_close(g_fine, 1.0, 1.0, 0.0)
    dev = deviation_path(ow1, mkt, hold)
    lhs = pathwise_cost(hold, dev, mkt)
    rhs = quadratic_representation_rhs(ow1, vs_ow1, mkt, hold, dev, 1.0, 0.0)
    det_gap = abs(lhs - rhs)

    def rep_pair(m):
        s = immediate_close(mc_grid, T, 1.0, 0.0)
        dv = deviation_path(model52, m, s)
        return (pathwise_cost(s, dv, m),
                quadratic_representation_rhs(model52, vs_mc, m, s, dv,
                                             1.0, 0.0))

    pairs = np.array([rep_pair(simulate_path(model52, mc_grid, seed, i))
                      for i in range(n_paths)])
    m_l, m_r = pairs.mean(axis=0)
    se = np.sqrt((pairs.var(axis=0, ddof=1) / n_paths).sum())
    checks.append(_check("quadratic_representation",
                         det_gap <= 1e-6 and abs(m_l - m_r) <= 3.0 * se,
                         deterministic_gap=det_gap, mc_gap=float(m_l - m_r),
                         combined_se=float(se)))

    # 8. structural invariants across the plan matrix
    worst = {"y_range": 0.0, "impact_state": 0.0, "d_const": 0.0,
             "dyn_consistency": 0.0}
    t0 = 4.0
    plans = []
    g10 = TimeGrid(0.0, 10.0, 4000)
    ow10 = constant_model(10.0, 1.0, 0.5)
    plans.append((ow10, solve_y_ow(0.5, 10.0, g10), g10, True))
    g5 = TimeGrid(0.0, 5.0, 4000)
    jm = jump_example_model(0.3, t0, 5.0)
    plans.append((jm, example_beta_path(JumpExample(0.3, t0), 5.0, g5), g5,
                  True))
    nr = negres_example_model(-0.1, 0.5, 5.0)
    plans.append((nr, example_beta_path(NegResExample(-0.1, 0.5), 5.0, g5),
                  g5, True))
    plans.append((model52, solve_y_lambert(rho, sigma, T,
                                           TimeGrid(0.0, T, 4000)),
                  TimeGrid(0.0, T, 4000), False))
    for model, vs, g, d_const in plans:
        worst["y_range"] = max(worst["y_range"], float(np.max(vs.y)) - 0.5,
                               -float(np.min(vs.y)))
        m = simulate_path(model, g, seed, 0)
        plan = optimal_plan(model, vs, m, 0.0, 2.0, 0.0)
        const = (plan.x_star.values - m.alpha * plan.d_star.values) / plan.exp_q
        worst["impact_state"] = max(worst["impact_state"],
                                    float(np.max(np.abs(const - plan.scale)))
                                    / abs(plan.scale))
        if d_const:
            dv = plan.d_star.values[:-1]
            pre = plan.d_star.pre_trade[1:-1]
            worst["d_const"] = max(worst["d_const"],
                                   float(np.max(np.abs(pre - dv[:-1])))
                                   / float(np.max(np.abs(dv))))
        u = g.times[g.n_steps // 2]
        worst["dyn_consistency"] = max(worst["dyn_consistency"],
                                       dynamic_consistency_check(plan, u))
    zero_rho = constant_model(5.0, 1.0, 0.0, mu=0.3, sigma=0.4)
    vs0 = solve_y_ode(zero_rho, g5)
    m0 = simulate_path(zero_rho, g5, seed, 0)
    plan0 = optimal_plan(zero_rho, vs0, m0, 0.0, 2.0, 1.0)
    ic = immediate_close(g5, 0.0, 2.0, 1.0)
    zero_rho_exact = bool(np.all(plan0.x_star.values == ic.values))
    ok8 = (worst["y_range"] <= 1e-12 and worst["impact_state"] <= 1e-10
           and worst["d_const"] <= 1e-10
           and worst["dyn_consistency"] <= 1e-10 and zero_rho_exact)
    checks.append(_check("structural_invariants", ok8,
                         zero_rho_exact=zero_rho_exact, **worst))

    # 9. interior block trade: ratio jump size and block locations
    plan_j = figure_plan("jump", seed=seed, n_steps=2000)
    gj = plan_j.grid
    kj = gj.index_of(t0)
    vs_j = plan_j.value_solution
    jump_gap = abs((vs_j.beta_tilde[kj] - vs_j.beta_left[kj])
                   - vs_j.y[kj] / (2.0 * 0.3 + 1.0))
    trades = plan_j.x_star.trades
    # block trades stay O(1) as the grid refines; samples of the continuous
    # trading path are O(h) (< 0.1 here), so 1.0 separates them cleanly
    nonzero = set(np.nonzero(np.abs(trades) > 1.0)[0])
    blocks_ok = nonzero == {0, kj, gj.n_steps}
    checks.append(_check("interior_block_trade",
                         jump_gap <= 1e-10 and blocks_ok,
                         jump_gap=jump_gap,
                         nonzero_trades=sorted(int(i) for i in nonzero)))

    # 10. byte-identical figure artifacts across two runs
    d1, d2 = tmp_dir / "rep1", tmp_dir / "rep2"
    blobs = []
    for dd in (d1, d2):
        for name in ("lambertw", "jump", "negres"):
            reproduce_figure(name, dd, seed=seed)
        blobs.append(b"".join(sorted(p.read_bytes()
                                     for p in dd.glob("*.csv"))))
    checks.append(_check("reproducible_artifacts", blobs[0] == blobs[1]))
    return checks


def selftest(out_dir=None, n_paths: int = 20000, mc_steps: int = 5000) -> int:
    """Run the reduced deterministic battery; 0 exit iff every check passes."""
    out = Path(out_dir if out_dir is not None else default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    checks = _selftest_checks(out, n_paths=n_paths, mc_steps=mc_steps)
    summary = {"schema_version": SCHEMA_VERSION, "seed": SELFTEST_SEED,
               "checks": checks,
               "pass": all(c["pass"] for c in checks)}
    with open(out / "selftest_summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
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
