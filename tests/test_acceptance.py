"""End-to-end acceptance battery.

Each criterion runs one check of the registry in ``execlab.cli`` at full
size; ``exec-lab selftest`` runs the same checks at reduced size.  Each test
prints one PASS/FAIL line on the terminal (bypassing capture) and asserts
the check's verdict.  Criteria 1 and 2 also gate their wall-clock time.
The Monte Carlo criteria run 2e4-1e5 paths and take a few minutes each;
criteria 3 and 7 share one pass over their paths (``showcase``).
"""

import json
import time

import pytest

from execlab.cli import (_MC_PARTS, _monte_carlo, brownian_roundtrip_cost,
                         constant_impact_value_convergence,
                         discrete_recursion_convergence,
                         geometric_roundtrip_cost, interior_block_trade,
                         lambertw_solution_residual, quadratic_representation,
                         selftest, stochastic_value_match,
                         structural_invariants)

N_PATHS_LARGE = 100_000
N_PATHS_MEDIUM = 20_000
MC_STEPS = 10_000   # h = 1e-3 on the T = 10 grids


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str = ""):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
        assert ok, f"criterion {num}: {detail}"
    return _report


@pytest.fixture(scope="module")
def showcase():
    """Criteria 3 and 7 price the same 1e5 SHOWCASE paths on one grid and
    seed: one pass prices both, keyed by the check it makes."""
    checks = (stochastic_value_match, quadratic_representation)
    return dict(zip(checks, _monte_carlo(
        N_PATHS_LARGE, MC_STEPS, *(_MC_PARTS[fn] for fn in checks))))


def verdict(check: dict, elapsed: float | None = None) -> tuple[bool, str]:
    """Pass flag and report detail of a check, with its wall-clock gate."""
    if elapsed is None:
        return check["pass"], json.dumps(check["detail"])
    return (check["pass"] and elapsed < 1.0,
            f"{json.dumps(check['detail'])}, {elapsed:.2f}s")


def test_criterion_01_deterministic_value_convergence(report):
    start = time.perf_counter()
    c = constant_impact_value_convergence(N_PATHS_MEDIUM, MC_STEPS)
    report(1, *verdict(c, time.perf_counter() - start))


def test_criterion_02_lambertw_solution_residual(report):
    start = time.perf_counter()
    c = lambertw_solution_residual(N_PATHS_MEDIUM, MC_STEPS)
    report(2, *verdict(c, time.perf_counter() - start))


def test_criterion_03_stochastic_value_match(report, showcase):
    report(3, *verdict(showcase[stochastic_value_match]))


def test_criterion_04_brownian_roundtrip_ill_posedness(report):
    report(4, *verdict(brownian_roundtrip_cost(N_PATHS_MEDIUM, MC_STEPS)))


def test_criterion_05_gbm_roundtrip_ill_posedness(report):
    report(5, *verdict(geometric_roundtrip_cost(N_PATHS_MEDIUM, MC_STEPS)))


def test_criterion_06_discrete_recursion_convergence(report):
    report(6, *verdict(discrete_recursion_convergence(N_PATHS_MEDIUM, MC_STEPS)))


def test_criterion_07_quadratic_representation(report, showcase):
    report(7, *verdict(showcase[quadratic_representation]))


def test_criterion_08_structural_invariants(report):
    report(8, *verdict(structural_invariants(N_PATHS_MEDIUM, MC_STEPS)))


def test_criterion_09_interior_block_trade(report):
    report(9, *verdict(interior_block_trade(N_PATHS_MEDIUM, MC_STEPS)))


def test_criterion_10_selftest_reproducibility(report, tmp_path):
    start = time.perf_counter()
    rc1 = selftest(tmp_path / "run1")
    rc2 = selftest(tmp_path / "run2")
    elapsed = time.perf_counter() - start
    s1 = (tmp_path / "run1" / "selftest_summary.json").read_bytes()
    s2 = (tmp_path / "run2" / "selftest_summary.json").read_bytes()
    csv1 = sorted(p.read_bytes() for p in (tmp_path / "run1").rglob("*.csv"))
    csv2 = sorted(p.read_bytes() for p in (tmp_path / "run2").rglob("*.csv"))
    identical = s1 == s2 and csv1 == csv2 and len(csv1) > 0
    ok = rc1 == 0 and rc2 == 0 and identical and elapsed <= 15 * 60
    detail = (f"exit codes ({rc1}, {rc2}), byte-identical {identical}, "
              f"{elapsed:.0f}s for two runs")
    if not ok:
        detail += " | checks: " + json.dumps(
            [c["name"] for c in json.loads(s1)["checks"] if not c["pass"]])
    report(10, ok, detail)
