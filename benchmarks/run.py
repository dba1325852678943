"""exec-lab benchmark: one workload per invocation.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The engine is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.  With ``--trace 0``
the run measures the end-to-end metrics; with ``--trace 1`` it records spans
around every engine call and reports the per-module metrics instead.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (environment, gates, digest, samples) goes to
``benchmarks/out/``.  METRICS.md says what each metric and workload is for.

numpy and execlab are imported only after the BLAS/OpenMP thread counts are
pinned to 1, so this file imports nothing but the standard library at the top.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("mc_optimal_lognormal", "mc_roundtrip_short",
                  "value_solvers", "selftest_reduced")
PINNED_THREADS = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "path_steps_per_s": "1/s",
    "s_x_se2": "s.se2",
    "peak_rss_mb": "MB",
}
# span name -> metrics reported for it besides ".failed"
LAYER_SPANS = {
    "coefficients.simulate_path": ("calls", "us_per_call"),
    "strategy.optimal_plan": ("calls", "us_per_call"),
    "strategy.counterexample_brownian": ("us_per_call",),
    "strategy.counterexample_gbm": ("us_per_call",),
    "deviation.deviation_path": ("calls", "us_per_call"),
    "deviation.naive_deviation_path": ("calls", "us_per_call"),
    "cost.pathwise_cost": ("calls", "us_per_call"),
    "cost.pathwise_cost_naive": ("calls", "us_per_call"),
    "cost.estimate_cost": ("s",),
    "bsde.solve_y_lambert": ("s",),
    "bsde.solve_y_ode": ("s",),
    "bsde.ode_residual": ("s",),
    "bsde.discrete_value_recursion": ("s",),
    "bsde.solve_y_deterministic": ("s",),
    "strategy.example_beta_path": ("s",),
    "cli.selftest": ("s",),
}
SUFFIX_UNITS = {"calls": "count", "us_per_call": "us", "s": "s",
                "failed": "count"}
EXTRA_LAYER_UNITS = {
    "cost.estimate_cost.unattributed_share": "ratio",
    "cli.selftest.checks_failed": "count",
    "replay.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span, kinds in LAYER_SPANS.items():
        for kind in kinds + ("failed",):
            units[f"{span}.{kind}"] = SUFFIX_UNITS[kind]
    units.update(EXTRA_LAYER_UNITS)
    return units


# --- environment ---------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import hashlib
    import numpy
    src = hashlib.sha256()
    for path in sorted((SRC / "execlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "execlab_source_sha256": src.hexdigest()[:16],
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }


# --- measurement ---------------------------------------------------------------

# The probe times its set-up, then the calibration kernel right after it:
# host speed changes over seconds, so the two see the same host.
SETUP_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), workloads.SIZES[sys.argv[5]])
elapsed = time.perf_counter() - start
mix = workloads.WORKLOADS[sys.argv[3]].KERNEL
workloads.calibrate(*mix)
kernel = sum(workloads.calibrate(*mix) for _ in range(10)) / 10
print(repr(elapsed), repr(elapsed * workloads.nominal_kernel_s(*mix) / kernel))
"""


def setup_samples(name: str, seed: int, sizes) -> tuple[list, list]:
    """Raw and host-scaled set-up times, each from a fresh process, so that
    every sample imports execlab."""
    raw, scaled = [], []
    for _ in range(sizes.setup_probes):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
             name, str(seed), sizes.name],
            capture_output=True, text=True, timeout=120, check=True)
        elapsed, elapsed_scaled = proc.stdout.split()[-2:]
        raw.append(float(elapsed))
        scaled.append(float(elapsed_scaled))
    return raw, scaled


def run_passes(run, n_min: int, seconds: float, sampler) -> tuple[list, int]:
    """Run passes for ``seconds``, at least ``n_min``; stop at an exception.

    Another pass starts only while the median pass still fits in the time
    left, so a run measures about ``seconds`` whatever the pass length.
    Each pass gets the scale of the speed samples taken during it.
    """
    records, errors = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        lo = len(sampler.samples)
        try:
            rec = run(len(records))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            errors += 1
            break
        rec.scale = sampler.scale(lo, len(sampler.samples))
        records.append(rec)
        if len(records) >= n_min and time.perf_counter() + statistics.median(
                r.wall for r in records) > deadline:
            break
    return records, errors


def layer_metrics(wl, tracer, records, bounds) -> dict[str, float]:
    """Per-module numbers from the spans of a traced run."""
    setup_end = bounds[0][0] if bounds else len(tracer.spans)
    durations: dict[str, list[float]] = {}
    for name, start, end, _parent in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    pass_seconds, pass_calls = [], []
    for lo, hi in bounds:
        seconds, calls = {}, {}
        for name, start, end, _parent in tracer.spans[lo:hi]:
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        pass_seconds.append(seconds)
        pass_calls.append(calls)

    med_us = {n: statistics.median(d) * 1e6 for n, d in durations.items()}
    out = {}
    for span, kinds in LAYER_SPANS.items():
        for kind in kinds:
            if kind == "calls":
                value = statistics.mean(c.get(span, 0) for c in pass_calls)
            elif kind == "us_per_call":
                value = med_us.get(span, 0.0)
            elif any(span in t for t in pass_seconds):
                value = statistics.median(t.get(span, 0.0) for t in pass_seconds)
            else:
                value = sum(end - start for n, start, end, _ in
                            tracer.spans[:setup_end] if n == span)
            out[f"{span}.{kind}"] = value
        out[f"{span}.failed"] = tracer.failed.get(span, 0)

    # untraced estimate_cost time not covered by calls x per-call medians
    est_total, attributed = 0.0, 0.0
    for rec in records:
        for c in getattr(wl, "constructions", []):
            est_total += rec.data["est_times"][c.label]
            attributed += c.n_paths * sum(med_us[s] for s in c.span_names()) / 1e6
    out["cost.estimate_cost.unattributed_share"] = (
        1.0 - attributed / est_total if est_total else 0.0)
    out["cli.selftest.checks_failed"] = max(
        (r.data.get("checks_failed", 0) for r in records), default=0)
    out["replay.overhead_s"] = statistics.median(
        r.data.get("overhead", 0.0) for r in records) if records else 0.0
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes_name: str = "full") -> dict:
    """One benchmark run; returns the full record (see ``main`` for output)."""
    import workloads
    sizes = workloads.SIZES[sizes_name]
    # untraced times are scaled to nominal host speed; spans stay raw
    setup, setup_scaled = setup_samples(name, seed, sizes) if not trace \
        else ([], [])
    sampler = workloads.SpeedSampler(workloads.WORKLOADS[name].KERNEL)
    tracer = workloads.Tracer(f"{name}-{seed}-{os.getpid()}-{time.time_ns()}") \
        if trace else None
    call = tracer.call if trace else workloads.direct_call
    wl = workloads.WORKLOADS[name](seed, sizes, call)

    bounds = []
    def one_pass(j):
        if trace and hasattr(wl, "trace_pass"):
            return wl.trace_pass(j, tracer)
        return wl.run_pass(j, call)

    def run(j):
        lo = len(tracer.spans) if trace else 0
        rec = one_pass(j)
        if trace:
            bounds.append((lo, len(tracer.spans)))
        return rec

    # untraced: every set once plus a repeat; traced: the time decides
    n_min = 1 if trace else wl.n_sets + 1
    with contextlib.nullcontext() if trace else sampler:
        records, errors = run_passes(run, n_min, seconds, sampler)

    # a repeat is checked against its first pass, whose gates stand for both
    gates, first = [], {}
    for j, rec in enumerate(records):
        if rec.key in first:
            gates.append(workloads.gate(
                f"repeat_identical.set{rec.key}.pass{j}",
                rec.outputs == first[rec.key].outputs, 0.0, 0.0))
        else:
            first[rec.key] = rec
            gates += rec.gates
    if trace:
        metrics = layer_metrics(wl, tracer, records, bounds) if records else {}
        units = per_layer_units()
    else:
        metrics = {}
        if records and len(first) == wl.n_sets:
            final_gates, se2 = wl.finish(first)
            gates += final_gates
            metrics = {
                "wall_s": statistics.median(r.wall * r.scale for r in records),
                "setup_s": statistics.median(setup_scaled),
                "path_steps_per_s": wl.steps_per_pass / statistics.median(
                    r.engine * r.scale for r in records),
                "s_x_se2": se2 * statistics.median(
                    r.se2_time * r.scale for r in records),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = END_TO_END_UNITS
    failed = errors + sum(not g["pass"] for g in gates)
    attempted = len(records) + errors + len(gates)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "sizes": sizes_name, "passes": len(records),
        "digest": workloads.digest(first) if first else None,
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": attempted, "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
        "gates": gates,
        "samples": {"setup_s": setup, "setup_s_scaled": setup_scaled,
                    "wall_s": [r.wall for r in records],
                    "engine_s": [r.engine for r in records],
                    "scale": [r.scale for r in records]},
        "spans": {"run_id": tracer.run_id,
                  "fields": ["name", "start", "end", "parent"],
                  "spans": tracer.spans} if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "execlab" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(PINNED_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import execlab
    if Path(execlab.__file__).resolve().parent != SRC / "execlab":
        print(f"error: imported execlab from {execlab.__file__}",
              file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result["passes"] == 0:
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    result["environment"] = environment()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans is not None:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  digest {result['digest']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for g in result["gates"]:
        if not g["pass"] or not g["name"].startswith(("repeat", "replay")):
            print(f"gate {'PASS' if g['pass'] else 'FAIL'}  {g['name']}  "
                  f"value {g['value']!r}  limit {g['limit']!r}")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(f"ops_failed_ratio {result['ops_failed_ratio']!r} ratio")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
