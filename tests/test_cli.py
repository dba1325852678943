"""Command line layer: configs, artifacts, figures, reproducibility."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from execlab.cli import (CHECKS, EXPERIMENTS, ExperimentConfig,
                         default_out_dir, main, reproduce_figure,
                         reproducible_artifacts, run, selftest, write_csv,
                         OUTPUT_DIR_ENV)


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "a.csv"
        t = np.linspace(0.0, 1.0, 7)
        y = np.sin(t) / 3.0
        write_csv(p, ["t", "y"], [t, y])
        lines = p.read_text().splitlines()
        assert lines[0] == "t,y"
        back = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        assert np.array_equal(back[:, 0], t)
        assert np.array_equal(back[:, 1], y)

    def test_column_length_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "b.csv", ["a", "b"],
                      [np.zeros(3), np.zeros(4)])


class TestExperimentConfig:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(tag="nope", model={}, n_steps=10)

    def test_positive_sizes_required(self):
        with pytest.raises(ValueError):
            ExperimentConfig(tag="ow_value", model={}, n_steps=0)

    def test_from_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "tag": "ow_value",
            "model": {"T": 1.0, "gamma0": 1.0, "pieces": [
                {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0}]},
            "n_steps": 100, "x": 1.0,
            "out_dir": str(tmp_path),
        }))
        cfg = ExperimentConfig.from_file(cfg_path)
        assert cfg.tag == "ow_value" and cfg.n_steps == 100

    def test_start_time_fields_rejected(self):
        # the runners always start at time 0; t and t0 must not be ignored
        for extra in ({"t": 3.0}, {"t0": 2.0}, {"t": 3.0, "t0": 2.0}):
            with pytest.raises(ValueError):
                ExperimentConfig(tag="ow_value", model={}, n_steps=10, **extra)

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        assert default_out_dir() == str(tmp_path)
        cfg = ExperimentConfig(tag="ow_value", model={}, n_steps=10)
        assert cfg.out_dir == str(tmp_path)


class TestRun:
    def ow_config(self, tmp_path, n_steps=200):
        return ExperimentConfig(
            tag="ow_value",
            model={"T": 10.0, "gamma0": 1.0, "pieces": [
                {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0}]},
            n_steps=n_steps, x=1.0, d=0.0, out_dir=str(tmp_path))

    def test_ow_value_summary(self, tmp_path):
        summary = run(self.ow_config(tmp_path))
        assert summary["pass"] is True
        assert summary["results"]["value"] == pytest.approx(1.0 / 7.0)
        for r in summary["results"]["error_ratios"]:
            assert 1.5 <= r <= 2.5
        assert (tmp_path / "ow_value_summary.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        run(self.ow_config(tmp_path))
        first = (tmp_path / "ow_value_summary.json").read_bytes()
        run(self.ow_config(tmp_path))
        assert (tmp_path / "ow_value_summary.json").read_bytes() == first

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_summary_is_not_written(self, tmp_path, monkeypatch,
                                               bad):
        monkeypatch.setitem(EXPERIMENTS, "ow_value",
                            lambda cfg: {"value": bad, "pass": False})
        with pytest.raises(ValueError):
            run(self.ow_config(tmp_path))
        assert not (tmp_path / "ow_value_summary.json").exists()

    def test_naive_brownian_small(self, tmp_path):
        cfg = ExperimentConfig(
            tag="naive_brownian",
            model={"T": 1.0, "gamma0": 1.0, "pieces": [
                {"t_from": 0.0, "rho": 0.05, "mu": 0.0, "sigma": 0.0}]},
            n_steps=200, n_paths=2000, seed=4, nu=2.0, out_dir=str(tmp_path))
        summary = run(cfg)
        assert summary["pass"] is True
        assert summary["results"]["closed_form"] < 0.0


class TestRunnerRegimes:
    """Each runner refuses models outside the regime of its closed form."""

    def config(self, tmp_path, tag, pieces, **kw):
        return ExperimentConfig(
            tag=tag, model={"T": 1.0, "gamma0": 1.0, "pieces": pieces},
            n_steps=20, n_paths=4, x=1.0, out_dir=str(tmp_path), **kw)

    @pytest.mark.parametrize("tag, nu", [
        ("ow_value", None), ("naive_brownian", 2.0),
        ("lambertw_value", None), ("naive_gbm", -1.0)])
    def test_two_pieces_rejected(self, tmp_path, tag, nu):
        pieces = [{"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0},
                  {"t_from": 0.5, "rho": 0.5, "mu": 0.0, "sigma": 0.6}]
        with pytest.raises(ValueError, match="single-piece"):
            run(self.config(tmp_path, tag, pieces, nu=nu))
        assert not (tmp_path / f"{tag}_summary.json").exists()

    @pytest.mark.parametrize("tag, nu, coef", [
        ("ow_value", None, "mu"), ("ow_value", None, "sigma"),
        ("naive_brownian", 2.0, "mu"), ("naive_brownian", 2.0, "sigma"),
        ("lambertw_value", None, "mu"), ("naive_gbm", -1.0, "mu")])
    def test_nonzero_coefficient_rejected(self, tmp_path, tag, nu, coef):
        piece = {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.3}
        if tag in ("ow_value", "naive_brownian"):
            piece["sigma"] = 0.0
        piece[coef] = 0.2
        with pytest.raises(ValueError, match="= 0"):
            run(self.config(tmp_path, tag, [piece], nu=nu))


# the optional config fields each runner reads, and the coefficients its
# closed form needs to be 0
READS = {"ow_value": ("model", "x", "d"),
         "lambertw_value": ("model", "n_paths", "x", "d"),
         "naive_brownian": ("model", "n_paths", "nu"),
         "naive_gbm": ("model", "n_paths", "x", "nu"),
         "figure_lambertw": (), "figure_jump": (), "figure_negres": ()}
ZERO = {"ow_value": ("mu", "sigma"), "naive_brownian": ("mu", "sigma"),
        "lambertw_value": ("mu",), "naive_gbm": ("mu",)}


def model_dict(pieces, T=1.0):
    return {"T": T, "gamma0": 1.0, "pieces": pieces}


def regime_config(tag, out_dir, **kw):
    """A config the runner accepts, with ``kw`` overriding its fields."""
    fields = {"tag": tag, "model": {}, "n_steps": 20, "out_dir": str(out_dir)}
    if tag in ZERO:
        sigma = 0.0 if "sigma" in ZERO[tag] else 0.8
        fields["model"] = model_dict([{"t_from": 0.0, "rho": 0.5, "mu": 0.0,
                                       "sigma": sigma}])
    if "nu" in READS[tag]:
        fields["nu"] = -1.0
    fields.update(kw)
    return ExperimentConfig(**fields)


coefficient = st.floats(-0.3, 0.3, allow_subnormal=False)
piece = st.fixed_dictionaries({"rho": st.floats(0.2, 1.0), "mu": coefficient,
                               "sigma": coefficient})


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("refused")


class TestRunnerInputsProperty:
    """Hypothesis: every runner refuses what it cannot price or does not read."""

    def refused(self, cfg, match):
        with pytest.raises(ValueError, match=match):
            run(cfg)
        assert not (Path(cfg.out_dir) / f"{cfg.tag}_summary.json").exists()

    def test_tables_cover_every_tag(self):
        assert set(READS) == set(EXPERIMENTS)

    @given(st.lists(piece, min_size=2, max_size=4),
           st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_multi_piece_models(self, out_dir, pieces, starts):
        starts = [0.0] + sorted(starts)[:len(pieces) - 1]
        for p, t in zip(pieces, starts):
            p["t_from"] = t
        assume(all(2.0 * p["rho"] + p["mu"] - p["sigma"] ** 2 > 0.0
                   for p in pieces))
        for tag in EXPERIMENTS:
            cfg = regime_config(tag, out_dir, model=model_dict(pieces))
            self.refused(cfg, "single-piece" if tag in ZERO else "model")

    @given(st.sampled_from(sorted(ZERO)), piece)
    @settings(max_examples=60, deadline=None)
    def test_coefficients_outside_the_closed_form(self, out_dir, tag, p):
        assume(any(p[c] != 0.0 for c in ZERO[tag]))
        assume(2.0 * p["rho"] + p["mu"] - p["sigma"] ** 2 > 0.0)
        cfg = regime_config(tag, out_dir, model=model_dict([dict(
            p, t_from=0.0)]))
        self.refused(cfg, "= 0")

    @given(st.sampled_from(sorted(READS)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unread_fields(self, out_dir, tag, data):
        unread = [f for f in ("model", "n_paths", "x", "d", "nu")
                  if f not in READS[tag]]
        name = data.draw(st.sampled_from(unread))
        value = data.draw({
            "model": st.just(model_dict([{"t_from": 0.0, "rho": 0.5,
                                          "mu": 0.0, "sigma": 0.0}])),
            "n_paths": st.integers(3, 10**6),
            "x": st.floats(-1e3, 1e3).filter(bool),
            "d": st.floats(-1e3, 1e3).filter(bool),
            "nu": st.floats(-5.0, 5.0)}[name])
        self.refused(regime_config(tag, out_dir, **{name: value}),
                     f"does not read {name}")


class TestUnreadFields:
    @pytest.mark.parametrize("tag, extra", [
        ("figure_jump", {"model": {"T": 99, "pieces": "junk"}, "x": 7.0,
                         "nu": 3.0}),
        ("ow_value", {"n_paths": 500}),
        ("ow_value", {"nu": 2.0}),
        ("naive_brownian", {"x": 1.0}),
        ("naive_brownian", {"d": 0.5})])
    def test_refused(self, tmp_path, tag, extra):
        with pytest.raises(ValueError, match="does not read"):
            run(regime_config(tag, tmp_path, **extra))
        assert not (tmp_path / f"{tag}_summary.json").exists()

    def test_figure_runs_with_every_field_unset(self, tmp_path):
        summary = run(regime_config("figure_jump", tmp_path, n_steps=500))
        assert summary["pass"] is True
        assert (tmp_path / "figure_jump.csv").exists()


class TestVerificationBattery:
    """selftest and tests/test_acceptance.py run one registry of checks."""

    def test_selftest_writes_the_registry(self, tmp_path):
        selftest(tmp_path, 40, 100)
        summary = json.loads((tmp_path / "selftest_summary.json").read_text())
        checks = {c["name"]: c for c in summary["checks"]}
        assert list(checks) == [fn.__name__ for fn in CHECKS]
        # benchmarks/workloads.py reads this standard error
        assert checks["stochastic_value_match"]["detail"]["std_error"] > 0.0

    def test_every_check_has_one_acceptance_test(self):
        # criterion 10 runs the artifacts check through two selftests
        names = ["selftest" if fn is reproducible_artifacts else fn.__name__
                 for fn in CHECKS]
        source = Path(__file__).with_name("test_acceptance.py").read_text()
        called = []
        for node in ast.parse(source).body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("test_criterion_")):
                used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                called += [name for name in names if name in used]
                assert len(used & set(names)) == 1, node.name
        assert sorted(called) == sorted(names)


class TestFigures:
    def test_jump_figure_deviation_levels(self, tmp_path):
        path = reproduce_figure("jump", tmp_path, n_steps=500)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        header = path.read_text().splitlines()[0].split(",")
        d = rows[:, header.index("D_star")]
        t = rows[:, header.index("t")]
        # two constant deviation levels separated by the interior block
        before = d[(t > 0.0) & (t < 4.0 - 1e-9)]
        after = d[(t > 4.0 + 1e-9) & (t < 5.0 - 1e-9)]
        assert np.ptp(before) <= 1e-8 * abs(before[0])
        assert np.ptp(after) <= 1e-8 * abs(after[0])
        assert abs(after[0]) > abs(before[0])

    def test_negres_figure_flat_deviation(self, tmp_path):
        path = reproduce_figure("negres", tmp_path, n_steps=500)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        d = rows[:-1, 2]  # D_star column, pre-terminal
        assert np.ptp(d) <= 1e-8 * abs(d[0])

    def test_byte_identical_reruns(self, tmp_path):
        a = reproduce_figure("lambertw", tmp_path / "a", seed=3, n_steps=400)
        b = reproduce_figure("lambertw", tmp_path / "b", seed=3, n_steps=400)
        assert a.read_bytes() == b.read_bytes()
        c = reproduce_figure("lambertw", tmp_path / "c", seed=4, n_steps=400)
        assert c.read_bytes() != a.read_bytes()

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_figure("spiral", tmp_path)


class TestMain:
    def test_figure_subcommand(self, tmp_path, capsys):
        rc = main(["figure", "jump", "--out", str(tmp_path), "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("figure_jump.csv")
        assert (tmp_path / "figure_jump.csv").exists()

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "tag": "ow_value",
            "model": {"T": 10.0, "gamma0": 1.0, "pieces": [
                {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0}]},
            "n_steps": 100, "x": 1.0, "out_dir": str(tmp_path)}))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["pass"] is True
