"""Workloads of the exec-lab benchmark.

A workload object is built from the workload seed; building it is the
set-up (models, grids and, where needed, the value-factor solve).  Its
``run_pass`` then does one timed unit of work.  The engine is reached only
through the public functions of ``execlab.coefficients``, ``strategy``,
``deviation``, ``cost``, ``bsde`` and ``cli``, and every engine call goes
through ``call(span_name, fn, *args)``: a plain call when tracing is off, a
recorded span when it is on.

Importing this module imports numpy and execlab, which is part of what the
set-up time measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import signal
import struct
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from execlab import bsde, cli, coefficients, cost, deviation, strategy

OUT_DIR = Path(__file__).resolve().parent / "out"

# Path set 0 of each Monte Carlo workload is drawn from this fixed master
# seed whatever the workload seed is.  Its standard error feeds s_x_se2, so
# that metric compares code, not samples: the optimal-plan cost has a
# kurtosis above 100, and SE^2 from seed-drawn paths alone would spread
# across seeds by more than any useful bound.
REFERENCE_SEED = 987_654_321
SEED_STRIDE = 1_000  # set k >= 1 uses master seed seed * SEED_STRIDE + k


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload; ``full`` is what the benchmark runs."""

    name: str
    opt_steps: int
    opt_paths: int        # paths per estimate_cost call
    opt_sets: int         # distinct path sets, the reference set included
    rt_steps: int
    rt_paths: int
    rt_sets: int
    solver_steps: int
    selftest_paths: int
    selftest_steps: int
    setup_probes: int     # fresh processes that time the set-up


SIZES = {s.name: s for s in (
    Sizes("full", opt_steps=10_000, opt_paths=1_000, opt_sets=4,
          rt_steps=1_000, rt_paths=2_500, rt_sets=8, solver_steps=10_000,
          selftest_paths=4_000, selftest_steps=2_000, setup_probes=7),
    Sizes("tiny", opt_steps=200, opt_paths=20, opt_sets=2,
          rt_steps=100, rt_paths=20, rt_sets=2, solver_steps=1_000,
          selftest_paths=40, selftest_steps=100, setup_probes=1),
)}


# Seconds per unit of each ``calibrate`` part on the host the benchmark was
# built on (Xeon, 2 vCPUs, numpy 2.4) when other tenants do not slow it.
NOMINAL_ARRAY_REP_S = 0.37e-3
NOMINAL_SMALL_CALL_S = 3.0e-6


def calibrate(array_reps: int, small_calls: int) -> float:
    """Seconds for a fixed kernel in two parts shaped like the engine's work.

    ``array_reps`` rounds of numpy arithmetic on 10^4-element arrays, as in
    the Monte Carlo layers on long grids, and ``small_calls`` tiny numpy
    calls from Python, as in the scalar solvers and the per-call overhead
    of short grids.  Each workload mixes the parts like its own hot loop.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(array_reps):
        w = rng.standard_normal(10_000) * 0.03
        g = np.exp(np.concatenate(([0.0], np.cumsum(w - 0.0005))))
        xi = np.diff(g, prepend=1.0)
        float(np.sum((np.cumsum(g * xi) + 0.5 * g * xi) * xi))
    breaks, values, acc = (0.0, 3.0, 7.0), (0.1, 0.2, 0.3), 0.0
    for k in range(small_calls):
        t = k * 9.0 / small_calls
        acc += values[int(np.searchsorted(breaks, t, side="right") - 1)] * t
    return time.perf_counter() - start


def nominal_kernel_s(array_reps: int, small_calls: int) -> float:
    return array_reps * NOMINAL_ARRAY_REP_S + small_calls * NOMINAL_SMALL_CALL_S


class SpeedSampler:
    """Times ``calibrate`` every ``INTERVAL_S`` seconds while it is entered.

    A shared host can change speed by 1.7x for seconds to minutes at a time.
    The sampler runs from SIGALRM in the main thread, between the bytecodes
    of the work being measured, so its samples follow the host's speed
    during that work.  ``scale`` turns them into a factor that brings a
    timing back to the nominal host speed.  This removes most of the host's
    drift and keeps all of the engine's: the kernel is benchmark code that
    no engine change touches.  Sampling takes about 3 % of the time, the
    same on every commit.
    """

    INTERVAL_S = 0.1

    def __init__(self, kernel: tuple[int, int]):
        self.kernel = kernel
        self.samples: list[float] = []
        calibrate(*kernel)  # the first call pays one-off numpy set-up

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(calibrate(*self.kernel))

    def scale(self, lo: int, hi: int) -> float:
        """Nominal over mean kernel time for samples lo:hi, or all so far."""
        window = self.samples[lo:hi] or self.samples or [calibrate(*self.kernel)]
        return nominal_kernel_s(*self.kernel) * len(window) / sum(window)


def direct_call(_name: str, fn: Callable, *args):
    return fn(*args)


class Tracer:
    """In-memory spans (name, start, end, parent index) of one run.

    ``failed`` counts the exceptions raised inside each span name; the
    exception itself propagates.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.failed: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.failed[name] = self.failed.get(name, 0) + 1
            raise
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()


def gate(name: str, passed: bool, value: float, limit: float) -> dict:
    return {"name": name, "pass": bool(passed), "value": float(value),
            "limit": float(limit)}


def z_gate(name: str, means: list[float], ses: list[float],
           reference: float) -> dict:
    """|mean - reference| <= 3 SE for the average of equal-size estimates."""
    mean = float(np.mean(means))
    se = float(np.sqrt(np.sum(np.square(ses)))) / len(ses)
    return gate(name, abs(mean - reference) <= 3.0 * se,
                abs(mean - reference) / se, 3.0)


def floats_digest(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@dataclass
class PassRecord:
    """One timed pass: ``key`` names its inputs, so equal keys must give
    equal ``outputs``."""

    key: int
    wall: float
    engine: float         # time inside the engine calls that do the work
    se2_time: float       # the time that s_x_se2 multiplies
    outputs: bytes
    gates: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    scale: float = 1.0    # calibration factor for the three times above


# --- Monte Carlo workloads ---------------------------------------------------

@dataclass(frozen=True)
class Construction:
    """One estimate_cost call: model, grid, strategy and cost variant."""

    label: str
    model: coefficients.CoefficientModel
    grid: coefficients.TimeGrid
    n_paths: int
    reference: float
    strategy_span: str
    strategy_factory: Callable
    naive: bool = False
    naive_dynamics: bool = False

    @property
    def deviation_span(self) -> tuple[str, Callable]:
        if self.naive_dynamics:
            return "deviation.naive_deviation_path", deviation.naive_deviation_path
        return "deviation.deviation_path", deviation.deviation_path

    @property
    def cost_span(self) -> tuple[str, Callable]:
        if self.naive:
            return "cost.pathwise_cost_naive", cost.pathwise_cost_naive
        return "cost.pathwise_cost", cost.pathwise_cost

    def span_names(self) -> list[str]:
        return ["coefficients.simulate_path", self.strategy_span,
                self.deviation_span[0], self.cost_span[0]]

    def estimate(self, call: Callable, master_seed: int):
        return call("cost.estimate_cost", cost.estimate_cost, self.model,
                    self.grid, self.n_paths, master_seed,
                    self.strategy_factory, 0.0, self.naive,
                    self.naive_dynamics)

    def replay(self, tracer: Tracer, master_seed: int) -> tuple[float, float]:
        """estimate_cost path by path with a span per layer call.

        Mirrors estimate_cost's loop and reduction, so mean and SE must
        come out bit for bit equal.
        """
        dev_name, dev_fn = self.deviation_span
        cost_name, cost_fn = self.cost_span
        n = self.n_paths
        costs = np.empty(n)
        for i in range(n):
            market = tracer.call("coefficients.simulate_path",
                                 coefficients.simulate_path, self.model,
                                 self.grid, master_seed, i)
            strat = tracer.call(self.strategy_span, self.strategy_factory,
                                market)
            dev = tracer.call(dev_name, dev_fn, self.model, market, strat,
                              0.0)
            costs[i] = tracer.call(cost_name, cost_fn, strat, dev, market)
        mean = float(np.sum(costs) / n)
        var = float(np.sum((costs - mean) ** 2) / (n - 1))
        return mean, float(np.sqrt(var / n))


class _MonteCarlo:
    """Passes cycle through the path sets, one estimate_cost per construction.

    The first ``n_sets`` passes see every set once; later passes repeat
    sets, and a repeat must reproduce its first result bit for bit.  The
    3 SE gate pools the sets of each construction, so it is evaluated once
    per run on inputs fixed by the seed alone.
    """

    constructions: list[Construction]
    se2_label: str        # construction whose SE and time give s_x_se2

    def __init__(self, seed: int, n_sets: int):
        self.masters = [REFERENCE_SEED] + [seed * SEED_STRIDE + k
                                           for k in range(1, n_sets)]

    @property
    def n_sets(self) -> int:
        return len(self.masters)

    @property
    def steps_per_pass(self) -> int:
        return sum(c.n_paths * c.grid.n_steps for c in self.constructions)

    def run_pass(self, j: int, call: Callable) -> PassRecord:
        k = j % self.n_sets
        start = time.perf_counter()
        results, est_times = [], {}
        for c in self.constructions:
            t0 = time.perf_counter()
            est = c.estimate(call, self.masters[k])
            est_times[c.label] = time.perf_counter() - t0
            results.append((est.mean, est.std_error))
        return self._record(k, start, results, est_times)

    def _record(self, k, start, results, est_times, **extra) -> PassRecord:
        return PassRecord(key=k, wall=time.perf_counter() - start,
                          engine=sum(est_times.values()),
                          se2_time=est_times[self.se2_label],
                          outputs=floats_digest(np.ravel(results)),
                          data={"results": results, "est_times": est_times},
                          **extra)

    def trace_pass(self, j: int, tracer: Tracer) -> PassRecord:
        """Untraced estimate_cost, then its traced replay on the same set."""
        k = j % self.n_sets
        start = time.perf_counter()
        results, gates, est_times, overhead = [], [], {}, 0.0
        for c in self.constructions:
            t0 = time.perf_counter()
            est = c.estimate(tracer.call, self.masters[k])
            est_times[c.label] = time.perf_counter() - t0
            t0 = time.perf_counter()
            replayed = tracer.call("replay." + c.label, c.replay, tracer,
                                   self.masters[k])
            overhead += time.perf_counter() - t0 - est_times[c.label]
            results.append((est.mean, est.std_error))
            gates.append(gate(f"replay_bit_identical.{c.label}.set{k}",
                              replayed == results[-1],
                              replayed[0] - est.mean, 0.0))
        rec = self._record(k, start, results, est_times, gates=gates)
        rec.data["overhead"] = overhead
        return rec

    def finish(self, first: dict[int, PassRecord]) -> tuple[list, float]:
        """Pooled 3 SE gates over every set; SE^2 of the reference set."""
        gates = []
        for i, c in enumerate(self.constructions):
            means, ses = zip(*(first[k].data["results"][i] for k in first))
            gates.append(z_gate(f"{c.label}_within_3se", means, ses,
                                c.reference))
        i = [c.label for c in self.constructions].index(self.se2_label)
        return gates, first[0].data["results"][i][1] ** 2


class McOptimalLognormal(_MonteCarlo):
    """Criterion-3 regime: optimal plan, corrected dynamics and cost."""

    KERNEL = (4, 600)  # calibrate() mix: long arrays and per-call overhead

    T, GAMMA0, RHO, MU, SIGMA, X, D = 10.0, 1.0, 0.5, 0.0, 0.8, 100.0, 0.0

    def __init__(self, seed: int, sizes: Sizes, call: Callable = direct_call):
        super().__init__(seed, sizes.opt_sets)
        model = coefficients.constant_model(self.T, self.GAMMA0, self.RHO,
                                            self.MU, self.SIGMA)
        grid = coefficients.TimeGrid(0.0, self.T, sizes.opt_steps)
        vs = call("bsde.solve_y_lambert", bsde.solve_y_lambert, self.RHO,
                  self.SIGMA, self.T, grid)
        value = cost.value_function(vs.y[0], self.GAMMA0, self.X, self.D).v

        def plan(market):
            return strategy.optimal_plan(model, vs, market, 0.0, self.X,
                                         self.D).x_star

        self.constructions = [Construction(
            "optimal", model, grid, sizes.opt_paths, value,
            "strategy.optimal_plan", plan)]
        self.se2_label = "optimal"


class McRoundtripShort(_MonteCarlo):
    """The two ill-posedness round trips with their uncorrected twins."""

    KERNEL = (0, 1_000)  # calibrate() mix: per-call overhead dominates

    T, GAMMA0 = 10.0, 1.0
    BROWN_RHO, BROWN_NU = 0.05, 2.0
    GBM_RHO, GBM_SIGMA, GBM_NU, GBM_X = 0.5, 0.8, -1.0, 1.0

    def __init__(self, seed: int, sizes: Sizes, call: Callable = direct_call):
        super().__init__(seed, sizes.rt_sets)
        grid = coefficients.TimeGrid(0.0, self.T, sizes.rt_steps)
        brown = coefficients.constant_model(self.T, self.GAMMA0,
                                            self.BROWN_RHO)
        gbm = coefficients.constant_model(self.T, self.GAMMA0, self.GBM_RHO,
                                          0.0, self.GBM_SIGMA)
        nu_b, nu_g, x_g = self.BROWN_NU, self.GBM_NU, self.GBM_X
        self.constructions = [
            Construction(
                "brownian", brown, grid, sizes.rt_paths,
                cost.closed_form_naive_brownian(self.GAMMA0, self.BROWN_RHO,
                                                self.T, nu_b),
                "strategy.counterexample_brownian",
                lambda m: strategy.counterexample_brownian(nu_b, m),
                naive=True),
            Construction(
                "gbm", gbm, grid, sizes.rt_paths,
                cost.closed_form_cost_gbm(self.GAMMA0, x_g, self.GBM_SIGMA,
                                          self.GBM_RHO, self.T, nu_g),
                "strategy.counterexample_gbm",
                lambda m: strategy.counterexample_gbm(nu_g, x_g, m),
                naive_dynamics=True),
        ]
        # the GBM round-trip cost has a kurtosis near 10^3, so its SE^2 is
        # too noisy to price accuracy; the Brownian one carries s_x_se2
        self.se2_label = "brownian"


# --- deterministic workloads --------------------------------------------------

class ValueSolvers:
    """Value-factor solvers on 10^4-step grids; no paths are drawn."""

    KERNEL = (0, 1_000)  # calibrate() mix: scalar loops of tiny calls

    T, GAMMA0, RHO, SIGMA = 10.0, 1.0, 0.5, 0.8
    JUMP_T = 5.0
    MAX_LAMBERT_GAP = 1e-8     # Lambert-W against RK4, criterion-3 model
    MAX_RESIDUAL = 1e-5        # ode_residual of a solution
    MAX_DISCRETE_GAP = 1e-4    # first-order bias at h = 1e-3 is ~1.5e-5
    MAX_JUMP_GAP = 1e-12       # three solvers on the jump model, ~2e-14
    n_sets = 1

    def __init__(self, seed: int, sizes: Sizes, call: Callable = direct_call):
        rng = np.random.default_rng(seed)
        n = sizes.solver_steps
        self.model = coefficients.constant_model(self.T, self.GAMMA0,
                                                 self.RHO, 0.0, self.SIGMA)
        self.grid = coefficients.TimeGrid(0.0, self.T, n)
        # three pieces with integer breaks, so the breaks are grid points;
        # 2 rho + mu - sigma^2 >= 0.6 - 0.2 - 0.36 > 0 on every piece
        breaks = [0.0, float(rng.integers(2, 5)), float(rng.integers(6, 9))]
        self.three_piece = coefficients.build_model(self.T, self.GAMMA0, [
            {"t_from": t, "rho": rng.uniform(0.3, 0.8),
             "mu": rng.uniform(-0.2, 0.3), "sigma": rng.uniform(0.2, 0.6)}
            for t in breaks])
        self.h = self.T / n
        jump_rho = float(rng.uniform(0.2, 0.6))
        jump_t0 = float(rng.integers(1, 5))
        self.jump = strategy.jump_example_model(jump_rho, jump_t0,
                                                self.JUMP_T, self.GAMMA0)
        self.jump_example = strategy.JumpExample(jump_rho, jump_t0)
        self.jump_grid = coefficients.TimeGrid(0.0, self.JUMP_T, n)
        # grid steps that the nine solver and residual calls of a pass march
        self.steps_per_pass = 9 * n

    def run_pass(self, j: int, call: Callable) -> PassRecord:
        start = time.perf_counter()
        lw = call("bsde.solve_y_lambert", bsde.solve_y_lambert, self.RHO,
                  self.SIGMA, self.T, self.grid)
        res_lw = call("bsde.ode_residual", bsde.ode_residual, lw, self.model)
        ode = call("bsde.solve_y_ode", bsde.solve_y_ode, self.model,
                   self.grid)
        ode3 = call("bsde.solve_y_ode", bsde.solve_y_ode, self.three_piece,
                    self.grid)
        res3 = call("bsde.ode_residual", bsde.ode_residual, ode3,
                    self.three_piece)
        dv = call("bsde.discrete_value_recursion",
                  bsde.discrete_value_recursion, self.model, self.h)
        jd = call("bsde.solve_y_deterministic", bsde.solve_y_deterministic,
                  self.jump, self.jump_grid)
        jb = call("strategy.example_beta_path", strategy.example_beta_path,
                  self.jump_example, self.JUMP_T, self.jump_grid)
        jo = call("bsde.solve_y_ode", bsde.solve_y_ode, self.jump,
                  self.jump_grid)
        wall = time.perf_counter() - start

        lambert_gap = float(np.max(np.abs(lw.y - ode.y)))
        discrete_gap = abs(float(dv.y_h[0]) - float(lw.y[0]))
        jump_gap = max(float(np.max(np.abs(a.y - b.y)))
                       for a, b in ((jd, jb), (jd, jo), (jb, jo)))
        gates = [
            gate("lambert_vs_rk4_gap", lambert_gap <= self.MAX_LAMBERT_GAP,
                 lambert_gap, self.MAX_LAMBERT_GAP),
            gate("lambert_residual", res_lw <= self.MAX_RESIDUAL, res_lw,
                 self.MAX_RESIDUAL),
            gate("three_piece_residual", res3 <= self.MAX_RESIDUAL, res3,
                 self.MAX_RESIDUAL),
            gate("discrete_vs_lambert_gap",
                 0.0 < discrete_gap <= self.MAX_DISCRETE_GAP, discrete_gap,
                 self.MAX_DISCRETE_GAP),
            gate("jump_solvers_agree", jump_gap <= self.MAX_JUMP_GAP,
                 jump_gap, self.MAX_JUMP_GAP),
        ]
        arrays = (lw.y, lw.beta_tilde, ode.y, ode3.y, ode3.beta_tilde,
                  dv.y_h, jd.y, jb.y, jo.y)
        outputs = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                           for a in arrays)
        outputs += floats_digest([res_lw, res3])
        return PassRecord(key=0, wall=wall, engine=wall, se2_time=wall,
                          outputs=outputs, gates=gates,
                          data={"discrete_gap": discrete_gap})

    def finish(self, first: dict[int, PassRecord]) -> tuple[list, float]:
        # no paths, so the error scale is the discrete-time bias of y(0)
        return [], first[0].data["discrete_gap"] ** 2


class SelftestReduced:
    """The selftest battery at reduced size, with its own fixed seed.

    The workload seed has no effect here: the battery always uses
    ``cli.SELFTEST_SEED``, so repeats must write byte-identical summaries.
    """

    KERNEL = (4, 600)  # calibrate() mix: both kinds of work
    n_sets = 1

    def __init__(self, seed: int, sizes: Sizes, call: Callable = direct_call):
        self.n_paths = sizes.selftest_paths
        self.mc_steps = sizes.selftest_steps
        # paths x steps of checks 3, 4, 5 and 7, the Monte Carlo checks
        self.steps_per_pass = 4 * self.n_paths * self.mc_steps

    def run_pass(self, j: int, call: Callable) -> PassRecord:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR))
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = call("cli.selftest", cli.selftest, out, self.n_paths,
                          self.mc_steps)
            wall = time.perf_counter() - start
            summary = (out / "selftest_summary.json").read_bytes()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        checks = json.loads(summary)["checks"]
        failed = sum(not c["pass"] for c in checks)
        se = next(c["detail"]["std_error"] for c in checks
                  if c["name"] == "stochastic_value_match")
        return PassRecord(key=0, wall=wall, engine=wall, se2_time=wall,
                          outputs=summary,
                          gates=[gate("selftest_exit_code", rc == 0, rc, 0)],
                          data={"checks_failed": failed, "se": se})

    def finish(self, first: dict[int, PassRecord]) -> tuple[list, float]:
        return [], first[0].data["se"] ** 2


WORKLOADS = {
    "mc_optimal_lognormal": McOptimalLognormal,
    "mc_roundtrip_short": McRoundtripShort,
    "value_solvers": ValueSolvers,
    "selftest_reduced": SelftestReduced,
}


def digest(first: dict[int, PassRecord]) -> str:
    h = hashlib.sha256()
    for k in sorted(first):
        h.update(first[k].outputs)
    return h.hexdigest()[:16]
