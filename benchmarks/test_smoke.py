"""Smoke test of the benchmark at tiny sizes.

Checks that each run reports every metric BENCHMARK.json names, with its
unit, and that the correctness gates are evaluated.  Tiny sizes are below
what the statistical and accuracy limits assume, so whether those gates pass
is not asserted; the determinism gates (repeats and the traced replay) do not
depend on size and must pass.

    PYTHONPATH=src python -m pytest -q benchmarks/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_metrics_and_gates(workload, trace):
    result = run.measure(workload, seed=1, seconds=0, trace=trace,
                         sizes_name="tiny")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    gates = result["gates"]
    assert gates and all(isinstance(g["pass"], bool) for g in gates)
    assert all(g["pass"] for g in gates
               if g["name"].startswith(("repeat_identical", "replay_")))
    if trace and workload.startswith("mc_"):
        assert any(g["name"].startswith("replay_") for g in gates)
    if not trace:
        assert any(g["name"].startswith("repeat_identical") for g in gates)
    assert result["attempted"] == result["passes"] + len(gates)
    assert result["digest"]


def test_refuses_checkout_without_engine(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", "value_solvers", "--seed", "1",
                   "--seconds", "1", "--trace", "0"])
    assert rc != 0
    assert capsys.readouterr().out == ""
