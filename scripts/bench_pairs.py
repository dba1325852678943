"""Paired benchmark runs of a base revision against the working tree.

    python3 scripts/bench_pairs.py --base REV --out BENCH_<n>.json \\
        [--pairs 10] [--seconds 20] [--seeds 1 7919] [--workloads NAME ...]

Run from anywhere inside the repository.  The base revision's committed
files are unpacked with ``git archive`` into a temporary directory; the
other side is the working tree this script sits in.  For every workload and
seed, each pair runs ``benchmarks/run.py --trace 0`` once on each side, the
side that goes first alternating from pair to pair, so a drift of the host
speed falls on both sides alike.

Besides the workloads of ``BENCHMARK.json``, ``--workloads`` takes two
suites, which are not run by default: ``tier1``, the Tier-1 test command
(``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``),
and ``selftest``, the default-size ``exec-lab selftest``.  A suite runs in
alternating pairs like a workload, once per pair whatever ``--seeds`` says,
and records its wall seconds and whether it exited 0.

The output holds, per workload, seed and end-to-end metric of
``BENCHMARK.json``: the per-pair values of both sides, their medians and
quartiles, the number of pairs the working tree wins, whether the median
gap exceeds the interquartile range of the base runs, and each pair's
change/base ratio with the median and quartiles of the ratios.  Per
workload and seed it also holds, read from the record
``benchmarks/out/<workload>-seed<n>-trace0.json`` that each run writes:
the determinism digest of every run of each side, and ``digests_equal``,
whether all of them are one digest; and under ``raw`` the same summary of
each run's median raw ``samples.wall_s`` (``raw_wall_s``) and median
calibration ``scale``.  The scaled metrics of two files are scaled by
kernels timed in different sessions, so compare files by their median
ratios, not by their medians.  Per suite it holds the same summary of the
wall seconds.  It also records the host, the core count and the Python and
numpy versions.  An existing ``--out`` file of the same base revision is
updated, not replaced: the workloads and suites run now take the place of
their earlier entries, and the others stay.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# each suite's command, run with src/ of its checkout on PYTHONPATH
SUITES = {
    "tier1": ["-m", "pytest", "-q", "--continue-on-collection-errors"],
    "selftest": ["-c", "import sys; from execlab.cli import main; "
                 "sys.exit(main(['selftest']))"],
}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The last output line of one untraced benchmark run, as a dict, with
    the digest of the run record it writes and the medians of the record's
    raw wall times and calibration scales."""
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    record = json.loads((checkout / "benchmarks" / "out"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    samples = record["samples"]
    return {"correct": result["correct"], "failed": result["failed"],
            "digest": record["digest"],
            "raw": {"raw_wall_s": statistics.median(samples["wall_s"]),
                    "scale": statistics.median(samples["scale"])},
            **{k: m["value"] for k, m in result["metrics"].items()}}


def run_suite(checkout: Path, suite: str) -> dict:
    """Wall seconds and exit status of one run of ``suite`` in
    ``checkout``; its artifacts go to a temporary directory."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
                   EXEC_LAB_OUT=out)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *SUITES[suite]], cwd=checkout,
                              env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
    return {"correct": done.returncode == 0, "wall_s": wall,
            "tail": done.stdout.strip().splitlines()[-1:]}


def paired(pairs: int, label: str, run) -> dict[str, list[dict]]:
    """``run(side)`` on each side in ``pairs`` pairs, the side that goes
    first alternating; each pair's wall seconds are printed after
    ``label``."""
    runs = {"base": [], "change": []}
    for i in range(pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[side].append(run(side))
        print(f"{label} pair {i + 1}: " + "  ".join(
            f"{side} {runs[side][-1].get('wall_s', float('nan')):.4f}"
            for side in ("base", "change")), flush=True)
    return runs


def summarize(base: list[float], change: list[float],
              better: str | None) -> dict:
    """Medians, quartiles and wins of paired values of one metric, and the
    change/base ratio of each pair with their median and quartiles; a
    quantity that is neither better ``"lower"`` nor ``"higher"`` (None)
    has no wins."""
    def quartiles(values):
        if len(values) < 2:
            return [values[0]] * 3
        return statistics.quantiles(values, n=4, method="inclusive")

    wins = None if better is None else sum(
        (c < b) if better == "lower" else (c > b)
        for b, c in zip(base, change))
    ratios = [c / b for b, c in zip(base, change) if b]
    qb, qc = quartiles(base), quartiles(change)
    qr = quartiles(ratios) if ratios else [None] * 3
    gap = qc[1] - qb[1]
    return {"base": base, "change": change,
            "base_median": qb[1], "change_median": qc[1],
            "base_quartiles": [qb[0], qb[2]],
            "change_quartiles": [qc[0], qc[2]],
            "median_change_rel": gap / qb[1] if qb[1] else None,
            "ratios": ratios, "ratio_median": qr[1],
            "ratio_quartiles": [qr[0], qr[2]],
            "wins": wins, "pairs": len(base),
            "gap_exceeds_base_iqr": abs(gap) > qb[2] - qb[0]}


def environment() -> dict:
    import numpy
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to write, relative to the current "
                             "directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+",
                        choices=names + list(SUITES), default=names)
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    base = _git("rev-parse", args.base)
    if args.out.exists():
        record = json.loads(args.out.read_text())
        if record["base"] != base:
            parser.error(f"{args.out} compares with {record['base']}, "
                         f"not {base}")
    else:
        record = {"base": base,
                  "change": {"head": _git("rev-parse", "HEAD"),
                             "dirty": bool(_git("status", "--porcelain",
                                                "--untracked-files=no"))},
                  "pairs": args.pairs, "seconds": args.seconds,
                  "environment": environment(), "started": time.strftime(
                      "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                  "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        unpack(args.base, base_dir)
        sides = {"base": base_dir, "change": ROOT}
        for workload in args.workloads:
            if workload in SUITES:
                runs = paired(args.pairs, workload, lambda side: run_suite(
                    sides[side], workload))
                record.setdefault("suites", {})[workload] = {
                    "correct": {side: all(r["correct"] for r in rs)
                                for side, rs in runs.items()},
                    "last_lines": {side: rs[-1]["tail"]
                                   for side, rs in runs.items()},
                    "wall_s": summarize([r["wall_s"] for r in runs["base"]],
                                        [r["wall_s"] for r in runs["change"]],
                                        "lower")}
                continue
            per_seed = record["workloads"].setdefault(workload, {})
            for seed in args.seeds:
                runs = paired(args.pairs, f"{workload} seed {seed}",
                              lambda side: run_once(sides[side], workload,
                                                    seed, args.seconds))
                digests = {side: [r["digest"] for r in rs]
                           for side, rs in runs.items()}
                per_seed[str(seed)] = {
                    "correct": {side: all(r["correct"] for r in rs)
                                for side, rs in runs.items()},
                    "digests": digests,
                    "digests_equal": len({d for ds in digests.values()
                                          for d in ds}) == 1,
                    "metrics": {name: summarize(
                        [r[name] for r in runs["base"]],
                        [r[name] for r in runs["change"]], better[name])
                        for name in better
                        if all(name in r for rs in runs.values()
                               for r in rs)},
                    "raw": {name: summarize(
                        [r["raw"][name] for r in runs["base"]],
                        [r["raw"][name] for r in runs["change"]],
                        "lower" if name == "raw_wall_s" else None)
                        for name in ("raw_wall_s", "scale")}}
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
