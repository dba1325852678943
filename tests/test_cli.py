"""Command line layer: configs, artifacts, figures, reproducibility."""

import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from execlab.cli import (_MONTE_CARLO, CHECKS, EXPERIMENTS, ExperimentConfig,
                         _monte_carlo, default_out_dir, figure_plan, main,
                         quadratic_representation, reproduce_figure,
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

    @pytest.mark.parametrize("name", ["lambertw", "jump", "negres"])
    def test_figure_bytes_match_a_per_scalar_writer(self, tmp_path, name):
        # the reference formats each numpy scalar on its own
        def reference_csv(path, header, columns):
            with open(path, "w", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                for i in range(len(columns[0])):
                    fh.write(",".join("%.17g" % c[i] for c in columns) + "\n")

        path = reproduce_figure(name, tmp_path)
        plan = figure_plan(name)
        reference_csv(tmp_path / "ref.csv",
                      ["t", "X_star", "D_star", "gamma", "beta", "exp_q"],
                      [plan.x_star.grid.times, plan.x_star.values,
                       plan.d_star.values, plan.market.gamma, plan.beta,
                       plan.exp_q])
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

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

    def test_a_figure_config_may_omit_the_model(self, tmp_path):
        # a figure reads no model: leaving it out is leaving it at {}
        written = []
        for i, extra in enumerate(({}, {"model": {}})):
            out = tmp_path / str(i)
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps({"tag": "figure_jump",
                                            "n_steps": 1000,
                                            "out_dir": str(out)} | extra))
            summary = run(ExperimentConfig.from_file(cfg_path))
            assert summary["pass"] is True
            written.append(((out / "figure_jump.csv").read_bytes(),
                            summary["inputs"]))
        assert written[0] == written[1]

    def test_a_runner_reading_the_model_refuses_to_omit_it(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tag": "ow_value", "n_steps": 10,
                                        "x": 1.0, "out_dir": str(tmp_path)}))
        with pytest.raises(ValueError,
                           match=r"missing \['T', 'gamma0', 'pieces'\]"):
            run(ExperimentConfig.from_file(cfg_path))

    @pytest.mark.parametrize("raw, match", [
        ({"tag": "ow_value", "model": {}, "nsteps": 5},
         r"unknown keys \['nsteps'\], missing keys \['n_steps'\]"),
        ({"model": {}, "n_steps": 5}, r"missing keys \['tag'\]"),
        ([{"tag": "ow_value", "model": {}, "n_steps": 5}], "not a list"),
    ], ids=["unknown_key", "missing_key", "list"])
    def test_from_file_refuses_other_shapes(self, tmp_path, raw, match):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_file(cfg_path)

    @pytest.mark.parametrize("change, match", [
        ({"n_steps": "5"}, "n_steps must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"x": "1"}, "x must be a real number"),
        ({"model": {"T": 1.0, "pieces": []}}, r"missing \['gamma0'\]"),
        ({"model": {}}, r"missing \['T', 'gamma0', 'pieces'\]"),
        ({"model": [1.0]}, "model must be an object"),
        ({"tag": ["ow_value"]}, "tag must be a string"),
        ({"out_dir": 5}, "out_dir must be a string"),
        ({"out_dir": None}, "out_dir must be a string"),
        # json writes and reads the NaN and Infinity tokens
        ({"tag": "lambertw_value", "x": math.nan, "d": math.inf},
         "x must be finite"),
        ({"tag": "lambertw_value", "d": math.inf}, "d must be finite"),
        ({"tag": "naive_gbm", "nu": math.nan}, "nu must be finite"),
        ({"tag": "naive_brownian", "nu": -math.inf}, "nu must be finite"),
        # and integers beyond the float range, which float() cannot convert
        ({"tag": "lambertw_value", "x": 10**400}, "x must be finite"),
        ({"tag": "lambertw_value", "d": -10**400}, "d must be finite"),
        ({"tag": "naive_gbm", "nu": 10**400}, "nu must be finite"),
    ], ids=["string_steps", "bool_seed", "string_x", "no_gamma0",
            "unset_model", "list_model", "list_tag", "number_out_dir",
            "null_out_dir", "nan_x", "infinite_d", "nan_nu",
            "infinite_nu", "huge_x", "huge_d", "huge_nu"])
    def test_wrongly_typed_fields_raise_value_error(self, tmp_path, change,
                                                     match):
        raw = {"tag": "ow_value", "n_steps": 10, "x": 1.0,
               "out_dir": str(tmp_path),
               "model": {"T": 1.0, "gamma0": 1.0, "pieces": [
                   {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0}]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw | change))
        with pytest.raises(ValueError, match=match):
            run(ExperimentConfig.from_file(cfg_path))

    def test_start_time_fields_rejected(self, tmp_path):
        # the runners always start at time 0: a config has no start time,
        # and a file that sets one is refused as an unknown key, even at 0
        cfg_path = tmp_path / "cfg.json"
        for extra, keys in (({"t": 0.0}, "'t'"), ({"t0": None}, "'t0'"),
                            ({"t": 3.0, "t0": 2.0}, "'t', 't0'")):
            cfg_path.write_text(json.dumps(
                {"tag": "ow_value", "model": {}, "n_steps": 10} | extra))
            with pytest.raises(ValueError, match=rf"unknown keys \[{keys}\]"):
                ExperimentConfig.from_file(cfg_path)
            with pytest.raises(TypeError):
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

    def test_selftest_writes_what_each_check_gives_alone(self, tmp_path):
        # selftest prices its Monte Carlo checks on one pass; the acceptance
        # tests run each check alone.  Three chunks of 81 paths here.
        selftest(tmp_path / "battery", 200, 100)
        summary = json.loads(
            (tmp_path / "battery" / "selftest_summary.json").read_text())
        for fn, written in zip(CHECKS, summary["checks"], strict=True):
            if fn in _MONTE_CARLO:
                alone, = _monte_carlo(200, 100, fn)
            elif fn is reproducible_artifacts:
                alone = fn(tmp_path / "alone")
            else:
                alone = fn()
            assert written == json.loads(json.dumps(alone)), fn.__name__

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


    def test_quadratic_representation_memory(self):
        # its 10^5-step pathwise part solves y before drawing the path and
        # builds the integrand in one array: the peak stays under 22 arrays
        # of 10^5 doubles (23.5 with the solve after the draw and the
        # integrand built from temporaries)
        _monte_carlo(100, 200, quadratic_representation)  # the memos
        tracemalloc.start()
        try:
            _monte_carlo(100, 200, quadratic_representation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 * 8 * 100_001


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

    def test_negative_seed_is_refused_by_name(self, tmp_path):
        # both once failed inside the seed hash with numpy's bare message
        with pytest.raises(ValueError, match="^seed must be a non-negative"):
            main(["figure", "jump", "--out", str(tmp_path), "--seed", "-1"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "tag": "ow_value", "seed": -3,
            "model": {"T": 10.0, "gamma0": 1.0, "pieces": [
                {"t_from": 0.0, "rho": 0.5, "mu": 0.0, "sigma": 0.0}]},
            "n_steps": 100, "x": 1.0, "out_dir": str(tmp_path)}))
        with pytest.raises(ValueError, match="^seed must be a non-negative"):
            main(["run", "--config", str(cfg_path)])

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
