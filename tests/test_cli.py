import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import csv_text, finite_matrices, random_params
from vdpfit import cli
from vdpfit.cli import main
from vdpfit.data import CsvFormatError, load_csv, save_components, save_csv, svd_components
from vdpfit.estimator import FitResult, ParamBounds, PenaltyConfig, fit
from vdpfit.model import State, VdpParams, simulate
from vdpfit.search import SearchConfig, StepScales


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("VDPFIT_OUT", raising=False)
    return tmp_path


@pytest.fixture
def recording_csv(workdir):
    """P=6 locations x T=50 samples, rows=space."""
    rng = np.random.default_rng(5)
    t = np.arange(50) * 0.1
    spatial = rng.normal(size=(6, 2))
    temporal = np.vstack([np.sin(2 * t), np.cos(3 * t)])
    values = spatial @ temporal + rng.normal(size=(6, 50)) * 0.01
    path = workdir / "recording.csv"
    save_csv(values, path)
    return path


@pytest.fixture
def series_csv(workdir):
    """Noise-free m=1 oscillator activity, rows=time."""
    params = VdpParams(alpha=np.array([[1.5, 0.8]]), coupling=np.zeros((1, 1)))
    traj = simulate(params, State(x1=np.array([0.6]), x2=np.array([0.0])), 60, 0.1)
    path = workdir / "series.csv"
    save_csv(traj.x1, path)
    return path


@pytest.fixture
def fit_config(workdir):
    cfg = {
        "dt": 0.1,
        "penalty": {
            "lam_schedule": [10.0, 100.0],
            "outer_max_iter": 8,
            "inner_max_iter": 40,
            "inner_max_iter_start": 20,
        },
        "search": {"max_rounds": 2, "proposals_per_round": 5, "patience": 5},
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def write_fit_json(path, m=2, seed=5, n=30):
    rng = np.random.default_rng(seed)
    params = random_params(rng, m)
    traj = simulate(
        params,
        State(x1=rng.normal(size=m) * 0.3, x2=rng.normal(size=m) * 0.3),
        n,
        0.1,
    )
    result = FitResult(
        params=params,
        states=traj,
        objective_history=[(0, 10.0, 0.5)],
        per_component_stats=[],
        converged=True,
        reason="synthetic",
        config_echo={"dt": 0.1},
    )
    path.write_text(json.dumps(result.to_json_dict()))
    return path


class TestSvd:
    def test_writes_components_directory(self, workdir, recording_csv, capsys):
        out = workdir / "comps"
        assert main(["svd", str(recording_csv), "-m", "2", "-o", str(out)]) == 0
        for name in ("temporal.csv", "spatial.csv", "sigma.csv", "meta.json"):
            assert (out / name).exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["m"] == 2
        assert meta["normalized"] is True
        assert "wrote 2 components" in capsys.readouterr().out

    def test_raw_skips_normalization(self, workdir, recording_csv):
        out = workdir / "raw"
        assert main(["svd", str(recording_csv), "-m", "2", "--raw", "-o", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["normalized"] is False
        assert meta["norm_scale"] == 1.0

    def test_too_many_components_is_config_error(self, workdir, recording_csv, capsys):
        assert main(["svd", str(recording_csv), "-m", "10", "-o", str(workdir / "x")]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, workdir, capsys):
        assert main(["svd", str(workdir / "nope.csv"), "-m", "1"]) == 1

    def test_malformed_csv_is_data_error(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        assert main(["svd", str(bad), "-m", "1", "-o", str(workdir / "x")]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_non_finite_value_is_data_error_with_its_location(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text("1,2,3\n4,inf,6\n")
        out = workdir / "x"
        assert main(["svd", str(bad), "-m", "1", "-o", str(out)]) == 1
        assert "non-finite value inf at row 2, column 2" in capsys.readouterr().err
        assert not out.exists()

    def test_out_env_var_supplies_default(self, workdir, recording_csv, monkeypatch):
        target = workdir / "from_env"
        monkeypatch.setenv("VDPFIT_OUT", str(target))
        assert main(["svd", str(recording_csv), "-m", "1"]) == 0
        assert (target / "temporal.csv").exists()

    # each token is longer than csv's default field limit (131072 characters)
    @pytest.mark.parametrize("text, line", [
        ("1" * 200_000 + ",2\n3,4\n5,6\n", 1),  # row 1: read by the header scan
        ('1,2\n"' + "0" * 199_999 + '1",3\n5,6\n', 2),  # quoted: the exact parser
        ("1,2\n" + "0" * 199_999 + "1,3\n5,6\n", 2),  # numeric: np.loadtxt would take it
        ("1,2\n3,4\n5," + "x" * 200_000 + "\n", 3),  # non-numeric: the exact parser
    ], ids=["first-row", "quoted", "unquoted", "non-numeric"])
    def test_over_long_token_is_data_error_naming_its_line(self, workdir, capsys, text, line):
        bad = workdir / "long.csv"
        bad.write_text(text)
        out = workdir / "x"
        assert main(["svd", str(bad), "-m", "1", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: line {line}: field larger than field limit" in err
        assert not out.exists()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(x=finite_matrices(), layout=st.sampled_from(["rows=space", "rows=time"]),
       raw=st.booleans(), doc=st.data())
def test_svd_on_generated_csv_exits_0_or_1(tmp_path_factory, x, layout, raw, doc):
    rows = [[format(v, ".17g") for v in row] for row in x]
    if doc.draw(st.booleans()):  # a ragged row
        i = doc.draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if len(rows[i]) > 1 and doc.draw(st.booleans()) else rows[i] + ["0"]
    text, _ = doc.draw(csv_text(rows, variants=True))
    root = tmp_path_factory.mktemp("svd")
    path, out = root / "x.csv", root / "out"
    path.write_bytes(text.encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["svd", str(path), "-m", "1", "--layout", layout, "-o", str(out)]
                    + ["--raw"] * raw)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert not out.exists()
        try:
            load_csv(path, layout)
        except CsvFormatError as exc:  # a malformed file: its located error
            assert re.search(r"\b(row|line) \d+", str(exc))
            assert err.getvalue() == f"error: {exc}\n"
        else:  # a well-formed file whose whole matrix cannot be decomposed
            assert re.fullmatch(r"error: (values too large to decompose: .*"
                                r"|mean of component standard deviations is \S+; "
                                r"cannot normalize)\n", err.getvalue())


# (dotted key the error must name, config fragment merged over {"dt": 0.1})
MALFORMED_CONFIGS = [
    ("penalty.bounds.alpha1", {"penalty": {"bounds": {"alpha1": 5}}}),
    ("penalty.bounds.alpha1", {"penalty": {"bounds": {"alpha1": ["a", 1]}}}),
    ("penalty.bounds.coupling", {"penalty": {"bounds": {"coupling": [1]}}}),
    ("penalty.bounds", {"penalty": {"bounds": 5}}),
    ("penalty.lam", {"penalty": {"lam": "x"}}),
    ("penalty.outer_step", {"penalty": {"outer_step": 0.1}}),  # deleted with the BB step
    ("penalty.lam_schedule", {"penalty": {"lam_schedule": 5}}),
    ("penalty.lam_schedule", {"penalty": {"lam_schedule": None}}),
    ("penalty.lam_schedule", {"penalty": {"lam_schedule": []}}),
    ("penalty.lam_schedule", {"penalty": {"lam_schedule": [100, 10]}}),
    ("penalty.lam_schedule", {"penalty": {"lam_schedule": [10, "x"]}}),
    ("penalty.inner_max_iter", {"penalty": {"inner_max_iter": 2.5}}),
    ("penalty.outer_max_iter", {"penalty": {"outer_max_iter": True}}),
    ("penalty", {"penalty": []}),
    ("search.step_scales.alpha", {"search": {"step_scales": {"alpha": "x"}}}),
    ("search.step_scales", {"search": {"step_scales": 5}}),
    ("search.max_rounds", {"search": {"max_rounds": 1.5}}),
    ("search.gamma", {"search": {"gamma": None}}),
    ("search.plateau_tol", {"search": {"plateau_tol": -1.0}}),
    ("search.x2_bounds", {"search": {"x2_bounds": 5}}),
    ("dt", {"dt": "x"}),
    ("dt", {"dt": None}),
    ("init_alpha", {"init_alpha": "x"}),
    ("dt", {"dt": 10 ** 400}),
    ("search.x2_bounds", {"search": {"x2_bounds": [5, -5]}}),
    ("search.x2_bounds", {"search": {"x2_bounds": [1]}}),
    ("search.x2_bounds", {"search": {"x2_bounds": [1, 2, 3]}}),
]


# init_* values sized for 2 components; series_csv has 1
WRONG_COMPONENT_COUNT = [
    ("init_alpha", [[1.0, 1.0], [1.0, 1.0]]),
    ("init_coupling", [[0.0, 0.1], [0.1, 0.0]]),
    ("init_x2", [0.0, 0.0]),
    ("init_x2", 0.0),
]


class TestFit:
    @pytest.mark.parametrize("key, fragment", MALFORMED_CONFIGS,
                             ids=[json.dumps(f) for _, f in MALFORMED_CONFIGS])
    def test_malformed_config_exits_2_naming_the_key(self, workdir, series_csv, capsys,
                                                      key, fragment):
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({"dt": 0.1, **fragment}))
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "-o", str(workdir / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert re.search(rf"{re.escape(key)}(?![\w.])", err), err

    def test_every_config_field_reaches_the_echo(self, workdir, series_csv):
        penalty = {
            "lam_schedule": [10.0, 100.0],
            "inner_tol": 1e-7,
            "inner_tol_start": 1e-3,
            "inner_max_iter": 40,
            "inner_max_iter_start": 20,
            "outer_max_iter": 8,
            "outer_ftol": 1e-7,
            "outer_gtol": 1,
            "armijo_c": 1e-3,
            "bounds": {"alpha1": [0.0, 4.0], "alpha2": [-4.0, 4.0], "coupling": [-1.0, 1.0]},
        }
        search = {
            "gamma": 0.5,
            "step_scales": {"alpha": 0.3, "coupling": 0.05, "x2": 0.4},
            "max_rounds": 2,
            "proposals_per_round": 5,
            "vp_every": 2,
            "patience": 4,
            "x2_bounds": [-4.0, 4.0],
            "plateau_tol": 1e-5,
        }
        # every field but the --seed one, each set to a value other than its default
        for cls, doc in ((PenaltyConfig, penalty), (SearchConfig, search),
                         (ParamBounds, penalty["bounds"]), (StepScales, search["step_scales"])):
            names = {f.name for f in fields(cls)} - {"seed"}
            assert set(doc) == names
            default = json.loads(json.dumps(asdict(cls())))
            assert all(doc[k] != default[k] for k in names)
        cfg = workdir / "every.json"
        cfg.write_text(json.dumps({"dt": 0.1, "substeps": 2, "penalty": penalty,
                                   "search": search}))
        out = workdir / "every"
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "4",
                     "-o", str(out)])
        assert code == 0
        echo = json.loads((out / "fit.json").read_text())["config_echo"]
        assert {k: echo[k] for k in penalty} == penalty
        assert {k: echo["search"][k] for k in search} == search
        assert (echo["dt"], echo["substeps"], echo["seed"], echo["search"]["seed"]) == (
            0.1, 2, 4, 4)
        assert type(echo["outer_gtol"]) is int

    def test_writes_fit_and_trace(self, workdir, series_csv, fit_config, capsys):
        out = workdir / "fit"
        code = main(
            ["fit", str(series_csv), "--config", str(fit_config), "--seed", "3",
             "-o", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert np.asarray(doc["alpha"]).shape == (1, 2)
        assert doc["config_echo"]["dt"] == 0.1
        assert doc["config_echo"]["seed"] == 3
        assert doc["config_echo"]["substeps"] == 1
        lines = (out / "trace.ndjson").read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"round", "proposal", "fitness", "accepted"}
        assert "fit:" in capsys.readouterr().out

    def test_vp_only_skips_proposals(self, workdir, series_csv, fit_config):
        out = workdir / "vponly"
        code = main(
            ["fit", str(series_csv), "--config", str(fit_config), "--seed", "3",
             "--vp-only", "-o", str(out)]
        )
        assert code == 0
        for line in (out / "trace.ndjson").read_text().splitlines():
            assert json.loads(line)["proposal"] == -1

    def test_byte_identical_reruns(self, workdir, series_csv, fit_config):
        out_a, out_b = workdir / "a", workdir / "b"
        for out in (out_a, out_b):
            args = ["fit", str(series_csv), "--config", str(fit_config),
                    "--seed", "11", "-o", str(out)]
            assert main(args) == 0
        assert (out_a / "fit.json").read_bytes() == (out_b / "fit.json").read_bytes()
        assert (out_a / "trace.ndjson").read_bytes() == (out_b / "trace.ndjson").read_bytes()

    def test_missing_dt_names_the_key(self, workdir, series_csv, capsys):
        cfg = workdir / "nodt.json"
        cfg.write_text(json.dumps({"substeps": 2}))
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "-o", str(workdir / "x")])
        assert code == 2
        assert "'dt'" in capsys.readouterr().err

    def test_substeps_reach_the_fit(self, workdir, series_csv, fit_config):
        base = json.loads(fit_config.read_text())
        fits = {}
        for name, extra in (("absent", {}), ("one", {"substeps": 1}), ("three", {"substeps": 3})):
            cfg = workdir / f"{name}.json"
            cfg.write_text(json.dumps({**base, **extra}))
            out = workdir / name
            args = ["fit", str(series_csv), "--config", str(cfg), "--seed", "3", "-o", str(out)]
            assert main(args) == 0
            fits[name] = (out / "fit.json").read_bytes()
        assert fits["one"] == fits["absent"]
        one, three = json.loads(fits["one"]), json.loads(fits["three"])
        assert three["config_echo"]["substeps"] == 3
        del one["config_echo"], three["config_echo"]
        assert three != one

    @pytest.mark.parametrize("substeps", [0, 2.5, "3"])
    def test_bad_substeps_is_config_error(self, workdir, series_csv, capsys, substeps):
        cfg = workdir / "bad_substeps.json"
        cfg.write_text(json.dumps({"dt": 0.1, "substeps": substeps}))
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "-o", str(workdir / "x")])
        assert code == 2
        assert "substeps" in capsys.readouterr().err

    def test_search_without_surviving_candidate_is_data_error(self, workdir, capsys):
        # dt=5 with a1=5 blows every candidate up, so no search result survives
        series = workdir / "sine.csv"
        save_csv(np.sin(np.arange(60) * 0.1 + 0.5)[:, None], series)
        cfg = workdir / "unstable.json"
        cfg.write_text(json.dumps({
            "dt": 5.0,
            "init_alpha": [5, 5],
            "penalty": {"lam_schedule": [10.0], "outer_max_iter": 2, "inner_max_iter": 10},
            "search": {"max_rounds": 1, "proposals_per_round": 3},
        }))
        code = main(["fit", str(series), "--config", str(cfg), "--seed", "1",
                     "-o", str(workdir / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_key_reports_dotted_path(self, workdir, series_csv, capsys):
        cfg = workdir / "bogus.json"
        cfg.write_text(json.dumps({"dt": 0.1, "search": {"bogus": 1}}))
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "-o", str(workdir / "x")])
        assert code == 2
        assert "'search.bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("inner_tol_start", 1e-3),
                                            ("inner_max_iter_start", 5)])
    def test_start_key_with_one_stage_schedule_is_config_error(self, workdir, series_csv,
                                                              capsys, key, value):
        cfg = workdir / "one_stage.json"
        cfg.write_text(json.dumps({"dt": 0.1, "penalty": {"lam_schedule": [100.0], key: value}}))
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "-o", str(workdir / "x")])
        assert code == 2
        assert f"penalty.{key}" in capsys.readouterr().err

    def test_readme_config_example_fits(self, workdir):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"The config is JSON.*?```json\n(.*?)```", readme, re.S).group(1)
        cfg = workdir / "readme.json"
        cfg.write_text(example)
        # two components, as the example's init_x2 has two entries
        params = VdpParams(alpha=np.array([[1.5, 1.0], [1.2, 0.8]]),
                           coupling=np.array([[0.0, 0.2], [-0.2, 0.0]]))
        traj = simulate(params, State(x1=np.array([0.6, -0.4]), x2=np.zeros(2)), 40, 0.1)
        series = workdir / "two.csv"
        save_csv(traj.x1, series)
        assert main(["fit", str(series), "--config", str(cfg), "--seed", "1", "--vp-only",
                     "-o", str(workdir / "readme")]) == 0

    def test_invalid_json_is_config_error(self, workdir, series_csv, capsys):
        cfg = workdir / "broken.json"
        cfg.write_text("{not json")
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "-o", str(workdir / "x")])
        assert code == 2

    def test_json_integer_past_the_parser_limit_is_config_error(self, workdir, series_csv,
                                                                 capsys):
        cfg = workdir / "long.json"
        cfg.write_text('{"dt": 1%s}' % ("0" * 5000))
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "-o", str(workdir / "x")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_rank_deficient_fit_exits_0(self, workdir, capsys):
        # three samples of two components cannot identify eight parameters; the
        # LM damping then shrinks below the roundoff of J'J, and the damped
        # Cholesky fails
        series = workdir / "short.csv"
        series.write_text("1.0,0.5\n0.9,0.4\n0.8,0.3\n")
        cfg = workdir / "dt.json"
        cfg.write_text('{"dt": 0.1}')
        out = workdir / "short"
        assert main(["fit", str(series), "--config", str(cfg), "--seed", "0", "--vp-only",
                     "-o", str(out)]) == 0
        assert "fit: converged=True" in capsys.readouterr().out
        assert json.loads((out / "fit.json").read_text())["converged"]["flag"] is True

    @pytest.mark.parametrize("vp_only", [True, False], ids=["vp-only", "search"])
    def test_one_sample_series_is_data_error_before_any_output(self, workdir, capsys,
                                                                vp_only):
        series = workdir / "one.csv"
        series.write_text("1.0,0.5\n")
        cfg = workdir / "dt.json"
        cfg.write_text('{"dt": 0.1}')
        out = workdir / "o1"
        argv = ["fit", str(series), "--config", str(cfg), "--seed", "0", "-o", str(out)]
        assert main(argv + ["--vp-only"] * vp_only) == 1
        err = capsys.readouterr().err
        assert "at least 2 samples, got 1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -1, 1, 1.5])
    def test_armijo_c_outside_0_1_is_config_error_before_any_output(self, workdir, series_csv,
                                                                    capsys, value):
        # at 1 or above no trial step can pass; at 0 or below a rising one can
        cfg = workdir / "armijo.json"
        cfg.write_text(json.dumps({"dt": 0.1, "penalty": {"armijo_c": value}}))
        out = workdir / "armijo"
        assert main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "--vp-only", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "penalty.armijo_c must be in (0, 1)" in err and "Traceback" not in err
        assert not out.exists()

    def test_fit_json_is_the_same_under_one_and_two_blas_threads(self, workdir):
        params = VdpParams(alpha=np.array([[1.5, 1.0], [1.2, 0.8], [1.8, 0.6]]),
                           coupling=np.array([[0.0, 0.2, -0.1], [-0.2, 0.0, 0.1],
                                              [0.1, -0.1, 0.0]]))
        traj = simulate(params, State(x1=np.array([0.6, -0.4, 0.2]), x2=np.zeros(3)), 60, 0.1)
        series = workdir / "three.csv"
        save_csv(traj.x1 + np.random.default_rng(8).normal(0, 0.02, traj.x1.shape), series)
        cfg = workdir / "three.json"
        cfg.write_text(json.dumps({"dt": 0.1, "penalty": {"outer_max_iter": 8}}))
        src = str(Path(cli.__file__).resolve().parents[1])
        docs = []
        for threads in ("1", "2"):
            out = workdir / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-c", "import sys; from vdpfit.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "fit", str(series), "--config", str(cfg),
                 "--seed", "1", "--vp-only", "-o", str(out)],
                env=env, check=True, capture_output=True, timeout=120)
            docs.append((out / "fit.json").read_bytes())
        assert docs[0] == docs[1]

    def test_missing_required_flag_is_usage_error(self, series_csv):
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(series_csv)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", WRONG_COMPONENT_COUNT)
    def test_init_for_another_component_count_names_the_key(self, workdir, series_csv,
                                                             capsys, key, value):
        cfg = workdir / "init.json"
        cfg.write_text(json.dumps({"dt": 0.1, key: value}))
        out = workdir / "x"
        code = main(["fit", str(series_csv), "--config", str(cfg), "--seed", "1",
                     "-o", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "trace.ndjson").exists()


class TestForecast:
    @pytest.fixture
    def wave_csv(self, workdir):
        t = np.arange(130) * 0.1
        values = np.column_stack([np.sin(t) + 0.2 * np.sin(3.3 * t), np.cos(0.9 * t)])
        path = workdir / "wave.csv"
        save_csv(values, path)
        return path

    def test_var_only_report(self, workdir, wave_csv, capsys):
        out = workdir / "rep"
        code = main(
            ["forecast", str(wave_csv), "--methods", "var", "--train-len", "50",
             "--test-len", "15", "--segments", "2", "--horizon", "5",
             "--var-order", "3", "-o", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert "var3" in doc["methods"]
        assert doc["methods"]["var3"]["n_windows"] == 2
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "method,segment,component,window,h,corr,rmse"
        assert len(lines) == 1 + 2 * 2 * 5  # segments x components x horizon
        assert "var3:" in capsys.readouterr().out

    def test_vdp_method_end_to_end(self, workdir, series_csv, fit_config):
        out = workdir / "repvdp"
        code = main(
            ["forecast", str(series_csv), "--methods", "vdp", "--train-len", "40",
             "--test-len", "10", "--segments", "1", "--horizon", "5",
             "--config", str(fit_config), "--seed", "2", "--vp-only",
             "-o", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["methods"]["vdp"]["n_windows"] == 1

    def test_rerun_is_byte_identical(self, workdir, series_csv, fit_config):
        outs = [workdir / "run1", workdir / "run2"]
        for out in outs:
            code = main(
                ["forecast", str(series_csv), "--methods", "var,vdp", "--train-len", "20",
                 "--test-len", "10", "--segments", "2", "--horizon", "5",
                 "--config", str(fit_config), "--seed", "4", "--vp-only", "-o", str(out)]
            )
            assert code == 0
        for name in ("report.json", "report.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_vp_only_segments_fit_in_lockstep_as_one_at_a_time(self, workdir, wave_csv,
                                                                fit_config, monkeypatch):
        cfg = workdir / "init.json"
        cfg.write_text(json.dumps({**json.loads(fit_config.read_text()),
                                   "init_x2": [0.3, -0.2]}))
        argv = ["forecast", str(wave_csv), "--methods", "vdp", "--train-len", "30",
                "--test-len", "10", "--segments", "3", "--horizon", "5", "--vp-only",
                "--config", str(cfg), "--seed", "3", "-o"]
        batches = []
        real = cli.fit_lockstep

        def recording(z, *args, **kwargs):
            batches.append(z.shape)
            return real(z, *args, **kwargs)

        def one_at_a_time(z, cfg, inits, x_init, **kwargs):
            return [fit(zk, cfg, init, x0, **kwargs) for zk, init, x0 in zip(z, inits, x_init)]

        monkeypatch.setattr(cli, "fit_lockstep", recording)
        assert main(argv + [str(workdir / "lockstep")]) == 0
        monkeypatch.setattr(cli, "fit_lockstep", one_at_a_time)
        assert main(argv + [str(workdir / "lone")]) == 0
        assert batches == [(3, 30, 2)]
        for name in ("report.json", "report.csv"):
            assert ((workdir / "lockstep" / name).read_bytes()
                    == (workdir / "lone" / name).read_bytes())

    def test_vp_only_first_segment_failure_is_fit_error(self, workdir, wave_csv, fit_config,
                                                        capsys):
        # every segment's objective overflows at its first evaluation; segment
        # 0's error is raised, as one at a time, with no batch left to step
        huge = workdir / "huge.csv"
        save_csv(load_csv(wave_csv) * 1e110, huge)
        out = workdir / "huge"
        code = main(["forecast", str(huge), "--methods", "vdp", "--train-len", "30",
                     "--test-len", "10", "--segments", "3", "--horizon", "5", "--vp-only",
                     "--config", str(fit_config), "--seed", "3", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: non-finite objective at initial evaluation" in err
        assert "Traceback" not in err

    def test_every_segment_fit_reads_the_init_keys(self, workdir, series_csv, fit_config,
                                                   monkeypatch):
        calls = []
        real = cli.search_and_refine

        def recording(z, s_cfg, p_cfg, **kwargs):
            calls.append((s_cfg.seed, kwargs["x2_init"], kwargs["init"]))
            return real(z, s_cfg, p_cfg, **kwargs)

        monkeypatch.setattr(cli, "search_and_refine", recording)
        cfg = workdir / "init.json"
        cfg.write_text(json.dumps({**json.loads(fit_config.read_text()),
                                   "init_x2": [0.3], "init_alpha": [1.4, 0.9]}))
        code = main(
            ["forecast", str(series_csv), "--methods", "vdp", "--train-len", "20",
             "--test-len", "10", "--segments", "2", "--horizon", "5",
             "--config", str(cfg), "--seed", "7", "-o", str(workdir / "rep")]
        )
        assert code == 0
        assert [seed for seed, _, _ in calls] == [7, 8]
        for _, x2_init, init in calls:
            assert x2_init.tolist() == [0.3]
            assert init.alpha.tolist() == [[1.4, 0.9]]

    @pytest.mark.parametrize("key, value", WRONG_COMPONENT_COUNT)
    def test_init_for_another_component_count_names_the_key(self, workdir, series_csv,
                                                             fit_config, capsys, key, value):
        cfg = workdir / "init.json"
        cfg.write_text(json.dumps({**json.loads(fit_config.read_text()), key: value}))
        code = main(
            ["forecast", str(series_csv), "--methods", "vdp", "--train-len", "40",
             "--test-len", "10", "--segments", "1", "--horizon", "5",
             "--config", str(cfg), "--seed", "2", "-o", str(workdir / "rep")]
        )
        assert code == 2
        assert key in capsys.readouterr().err

    def test_unknown_method_lists_valid_ones(self, workdir, wave_csv, capsys):
        code = main(
            ["forecast", str(wave_csv), "--methods", "arima", "--train-len", "50",
             "--test-len", "15", "--segments", "2", "-o", str(workdir / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "arima" in err and "var" in err and "vdp" in err

    @pytest.mark.parametrize("methods", [",", ""])
    def test_empty_method_list_is_config_error(self, workdir, wave_csv, capsys, methods):
        out = workdir / "x"
        code = main(
            ["forecast", str(wave_csv), "--methods", methods, "--train-len", "50",
             "--test-len", "15", "--segments", "2", "-o", str(out)]
        )
        assert code == 2
        assert "no methods" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["var,var", "vdp,var,vdp", "var, var"])
    def test_duplicate_method_is_config_error(self, workdir, wave_csv, fit_config, capsys,
                                              methods):
        out = workdir / "x"
        code = main(
            ["forecast", str(wave_csv), "--methods", methods, "--train-len", "50",
             "--test-len", "15", "--segments", "2", "--config", str(fit_config),
             "--seed", "1", "-o", str(out)]
        )
        assert code == 2
        dup = methods.split(",")[-1].strip()
        assert f"method {dup!r} appears twice in --methods" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("protocol", ["short", "long"])
    def test_horizon_above_test_len_is_config_error(self, workdir, wave_csv, capsys,
                                                    protocol):
        out = workdir / "x"
        code = main(
            ["forecast", str(wave_csv), "--methods", "var", "--train-len", "40",
             "--test-len", "20", "--segments", "2", "--horizon", "30",
             "--protocol", protocol, "-o", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--horizon 30" in err and "--test-len 20" in err
        assert not out.exists()

    def test_long_protocol_fits_no_vdp_segment(self, workdir, wave_csv, fit_config,
                                               monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a vdp segment was fitted on the long protocol")

        monkeypatch.setattr(cli, "search_and_refine", no_fit)
        outs = {}
        for methods in ("var", "var,vdp"):
            outs[methods] = workdir / methods
            code = main(
                ["forecast", str(wave_csv), "--methods", methods, "--train-len", "50",
                 "--test-len", "15", "--segments", "2", "--horizon", "5",
                 "--protocol", "long", "--config", str(fit_config), "--seed", "3",
                 "--vp-only", "-o", str(outs[methods])]
            )
            assert code == 0
        var, both = (outs[m] for m in ("var", "var,vdp"))
        assert (both / "report.csv").read_bytes() == (var / "report.csv").read_bytes()
        want = json.loads((var / "report.json").read_text())
        want["metadata"]["omitted_methods"] = ["vdp"]
        want["metadata"]["cli"]["methods"] = ["var", "vdp"]
        assert json.loads((both / "report.json").read_text()) == want

    @pytest.mark.parametrize("config", [None, {"dt": "x"}])
    def test_long_protocol_still_checks_the_vdp_config(self, workdir, wave_csv, capsys,
                                                       config):
        argv = ["forecast", str(wave_csv), "--methods", "var,vdp", "--train-len", "50",
                "--test-len", "15", "--segments", "2", "--protocol", "long", "--seed", "3",
                "-o", str(workdir / "x")]
        if config is not None:
            path = workdir / "bad.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        assert ("--config" if config is None else "dt") in capsys.readouterr().err

    def test_vdp_without_config_is_config_error(self, workdir, wave_csv, capsys):
        code = main(
            ["forecast", str(wave_csv), "--methods", "vdp", "--train-len", "50",
             "--test-len", "15", "--segments", "2", "-o", str(workdir / "x")]
        )
        assert code == 2
        assert "--config" in capsys.readouterr().err

    def test_insufficient_data_is_data_error(self, workdir, wave_csv):
        code = main(
            ["forecast", str(wave_csv), "--methods", "var", "--train-len", "100",
             "--test-len", "50", "--segments", "3", "-o", str(workdir / "x")]
        )
        assert code == 1

    @pytest.mark.parametrize("protocol, same", [("short", True), ("long", False)])
    def test_var_refit(self, workdir, wave_csv, protocol, same):
        # a short-protocol window starts where training ends, so its refit
        # sees the training range again; long-protocol windows see more
        reports = []
        for extra in ([], ["--var-refit"]):
            out = workdir / f"rep{len(extra)}"
            code = main(
                ["forecast", str(wave_csv), "--methods", "var", "--train-len", "50",
                 "--test-len", "15", "--segments", "2", "--horizon", "5",
                 "--var-order", "3", "--protocol", protocol, "-o", str(out)] + extra
            )
            assert code == 0
            reports.append((out / "report.json").read_bytes())
        assert (reports[0] == reports[1]) is same


class TestConnectivity:
    @pytest.fixture
    def comps_dir(self, workdir, recording_csv):
        out = workdir / "comps"
        assert main(["svd", str(recording_csv), "-m", "2", "-o", str(out)]) == 0
        return out

    def test_writes_edges(self, workdir, comps_dir, capsys):
        fit_a = write_fit_json(workdir / "fa.json", m=2, seed=5)
        fit_b = write_fit_json(workdir / "fb.json", m=2, seed=6)
        out = workdir / "conn"
        code = main(
            ["connectivity", str(comps_dir), str(fit_a), str(fit_b),
             "--top-k", "4", "-o", str(out)]
        )
        assert code == 0
        lines = (out / "edges.csv").read_text().splitlines()
        assert lines[0] == "src,dst,weight,polarity"
        assert 2 <= len(lines) - 1 <= 8
        assert "excitatory" in capsys.readouterr().out

    def test_component_mismatch_is_config_error(self, workdir, comps_dir, capsys):
        fit = write_fit_json(workdir / "f3.json", m=3, seed=7)
        code = main(
            ["connectivity", str(comps_dir), str(fit), "-o", str(workdir / "x")]
        )
        assert code == 2
        assert "m=2" in capsys.readouterr().err

    def test_non_fit_json_is_config_error(self, workdir, comps_dir, capsys):
        bogus = workdir / "bogus.json"
        bogus.write_text(json.dumps({"hello": 1}))
        code = main(
            ["connectivity", str(comps_dir), str(bogus), "-o", str(workdir / "x")]
        )
        assert code == 2
        assert "not a fit result" in capsys.readouterr().err

    @pytest.mark.parametrize("cols", [1, 3])
    def test_states_must_match_alpha_components(self, workdir, comps_dir, capsys, cols):
        fit = write_fit_json(workdir / "fa.json", m=2, seed=5)
        doc = json.loads(fit.read_text())
        for key in ("x1", "x2"):
            doc["states"][key] = [row[:1] * cols for row in doc["states"][key]]
        fit.write_text(json.dumps(doc))
        for argv in (["connectivity", str(comps_dir), str(fit)],
                     ["export-sim", str(fit), "--n-series", "1", "--length", "10",
                      "--seed", "1"]):
            assert main(argv + ["-o", str(workdir / "x")]) == 2, argv[0]
            err = capsys.readouterr().err
            assert "not a fit result" in err and "states" in err
        assert not (workdir / "x").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# (meta.json document, what the error must name)
_BAD_META = (
    _JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: (v, "meta.json"))
    | _JSON.filter(lambda v: type(v) not in (int, float) or not 0 < v <= sys.float_info.max)
    .map(lambda v: ({"m": 2, "norm_scale": v}, "norm_scale"))
)


@pytest.fixture(scope="module")
def meta_case(tmp_path_factory):
    """A components directory, a matching fit.json and a fit config."""
    root = tmp_path_factory.mktemp("meta")
    values = np.random.default_rng(3).normal(size=(6, 40))
    save_components(svd_components(values, 2), root / "comps")
    fit_json = write_fit_json(root / "fa.json", m=2)
    config = root / "config.json"
    config.write_text(json.dumps({"dt": 0.1}))
    return root, fit_json, config


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=_BAD_META)
@example(case=([], "meta.json"))
@example(case=(1, "meta.json"))
@example(case=({"norm_scale": {}}, "norm_scale"))
@example(case=({"norm_scale": None}, "norm_scale"))
def test_malformed_components_meta_is_data_error(meta_case, case):
    root, fit_json, config = meta_case
    doc, named = case
    comps = root / "comps"
    (comps / "meta.json").write_text(json.dumps(doc))
    for argv in (["connectivity", str(comps), str(fit_json)],
                 ["fit", str(comps), "--config", str(config), "--seed", "1"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["-o", str(root / "out")])
        assert code == 1, argv[0]
        assert "Traceback" not in err.getvalue()
        assert "meta.json" in err.getvalue() and named in err.getvalue()
    assert not (root / "out").exists()


def _schema_leaves(cls, path):
    """(dotted path, type hint) of every field of config dataclass `cls` that a
    fit config takes, nested dataclasses expanded."""
    for name, tp in get_type_hints(cls).items():
        if name == "seed":  # search.seed comes from --seed
            continue
        if is_dataclass(tp):
            yield from _schema_leaves(tp, path + (name,))
        else:
            yield path + (name,), tp


_LEAVES = [(("dt",), float), (("substeps",), int),
           *_schema_leaves(PenaltyConfig, ("penalty",)), *_schema_leaves(SearchConfig, ("search",))]
_PAIRS = [(path, tp) for path, tp in _LEAVES
          if path[-1] in ("alpha1", "alpha2", "coupling", "x2_bounds")]
_NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")


@st.composite
def _mutated_fit_config(draw):
    """A small valid fit config with one mutation drawn from its schema: a wrong
    type, an unknown key, a non-finite number, a reversed bound, a wrong-length
    init_* or an out-of-range value. Returns (JSON text, the dotted key an
    exit 2 must name)."""
    doc = {"dt": 0.1, "penalty": {"outer_max_iter": 2, "inner_max_iter": 10},
           "search": {"proposals_per_round": 3}}
    kind = draw(st.sampled_from(["type", "unknown", "non-finite", "reversed", "init", "range"]))
    if kind == "init":  # the series has one component
        key, value = draw(st.sampled_from([
            ("init_alpha", [[1.0, 1.0], [1.0, 1.0]]), ("init_alpha", [1.0, 1.0, 1.0]),
            ("init_coupling", [[0.0, 0.1], [0.1, 0.0]]), ("init_x2", [0.0, 0.0]),
            ("init_x2", "x"), ("init_alpha", [1.0, None])]))
        return json.dumps({**doc, key: value}), key
    if kind == "unknown":
        path = draw(st.sampled_from([(), ("penalty",), ("search",), ("penalty", "bounds"),
                                     ("search", "step_scales")]))
        path += (draw(st.sampled_from(["lam", "outer_step", "bogus", "Dt", "seed_"])),)
        value = draw(st.sampled_from([1, 0.5, "x", None, [1, 2]]))
    else:
        path, tp = draw(st.sampled_from(_PAIRS if kind == "reversed" else _LEAVES))
        tuple_field = getattr(tp, "__origin__", None) is tuple
        if kind == "reversed":
            value = [1.0, -1.0]
        elif kind == "non-finite":
            value = [0.0, "@"] if tuple_field else "@"
        elif kind == "type":
            value = draw(st.sampled_from(
                [5, "x", None, {}, [1.0, "a"], [True, 2.0]] if tuple_field else
                ["1", None, True, [1], {}] + ([1.5, 2.0] if tp is int else [])))
        else:  # out of range; integers stay small, as some size work up front
            value = draw(st.sampled_from(
                [[], [0.0], [100.0, 10.0], [-1.0, 2.0]] if tuple_field else
                [0, -1, 1, 2, 10 ** 400] if tp is int else
                [0.0, -1.0, 1.0, 1.5, 1e300, 1e-300]))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    text = json.dumps(doc).replace('"@"', draw(st.sampled_from(_NON_FINITE)))
    return text, ".".join(path)


@pytest.fixture(scope="module")
def contract_case(tmp_path_factory):
    """A 1-component series of 30 samples, for fit and a 2-segment forecast."""
    root = tmp_path_factory.mktemp("contract")
    params = VdpParams(alpha=np.array([[1.5, 0.8]]), coupling=np.zeros((1, 1)))
    traj = simulate(params, State(x1=np.array([0.6]), x2=np.array([0.0])), 30, 0.1)
    save_csv(traj.x1, root / "series.csv")
    return root


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_mutated_fit_config())
@example(case=('{"dt": 0.1, "penalty": {"armijo_c": 1.5}}', "penalty.armijo_c"))
@example(case=('{"dt": 0.1, "penalty": {"bounds": {"alpha1": [5, 0]}}}',
               "penalty.bounds.alpha1"))
@example(case=('{"dt": 0.1, "init_x2": [0.0, 0.0]}', "init_x2"))
def test_mutated_fit_config_exits_0_1_or_2(contract_case, case):
    text, key = case
    root = contract_case
    (root / "config.json").write_text(text)
    series = str(root / "series.csv")
    for argv in (["fit", series],
                 ["forecast", series, "--methods", "vdp", "--train-len", "10", "--test-len",
                  "5", "--segments", "2", "--horizon", "3"]):
        out = root / "out"
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--config", str(root / "config.json"), "--seed", "1",
                                "--vp-only", "-o", str(out)])
        assert code in (0, 1, 2), argv[0]
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert re.search(rf"{re.escape(key)}(?![\w.])", err.getvalue()), (argv[0], err.getvalue())
            assert not out.exists(), argv[0]


_FIT_FIELDS = ["alpha", "W", "states", "states.x1", "states.x2", "stats", "objective_history",
               "converged", "converged.flag", "converged.reason", "config_echo",
               "config_echo.dt", "config_echo.substeps"]
_DROP = "<drop>"


# one fit.json field dropped, or replaced by any JSON value or by a numeric
# array of any shape, NaN and infinities included: (dotted key, value)
_FIT_MUTATIONS = st.tuples(st.sampled_from(_FIT_FIELDS), st.just(_DROP) | _JSON | st.lists(
    st.lists(st.floats() | st.integers(-3, 3), min_size=1, max_size=3), max_size=4))


@pytest.fixture(scope="module")
def fit_json_case(tmp_path_factory):
    """A 2-component components directory and a matching fit.json."""
    root = tmp_path_factory.mktemp("fit_json")
    save_components(svd_components(np.random.default_rng(3).normal(size=(6, 40)), 2),
                    root / "comps")
    return root, write_fit_json(root / "fa.json", m=2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_FIT_MUTATIONS)
@example(case=("W", [[True, False], [False, True]]))
@example(case=("states.x1", _DROP))
@example(case=("states.x2", [[0.1, float("nan")]] * 30))
@example(case=("config_echo.dt", 0))
@example(case=("config_echo.dt", 10 ** 400))  # past the float range
@example(case=("converged", 5))
@example(case=("stats", 5))
def test_mutated_fit_json_exits_0_1_or_2(fit_json_case, case):
    root, fit_json = fit_json_case
    key, value = case
    doc = json.loads(fit_json.read_text())
    *parents, leaf = key.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if value == _DROP:
        node.pop(leaf, None)  # config_echo.substeps may be absent already
    else:
        node[leaf] = value
    mutated = root / "mutated.json"
    mutated.write_text(json.dumps(doc))
    for argv in (["connectivity", str(root / "comps"), str(mutated)],
                 ["export-sim", str(mutated), "--n-series", "2", "--length", "10", "--seed", "1"]):
        out = root / "out"
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["-o", str(out)])
        assert code in (0, 1, 2), argv[0]
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err.getvalue()), (
                argv[0], err.getvalue())
            assert not out.exists(), argv[0]


@pytest.mark.parametrize("text", ["{", "", "{\"norm_scale\": 1,}"])
def test_components_meta_that_is_not_json_is_data_error(meta_case, capsys, text):
    root, fit_json, _ = meta_case
    (root / "comps" / "meta.json").write_text(text)
    assert main(["connectivity", str(root / "comps"), str(fit_json),
                 "-o", str(root / "out")]) == 1
    assert "meta.json: not valid JSON" in capsys.readouterr().err


class TestExportSim:
    @pytest.mark.parametrize("path, value", [
        (("states",), [1, 2]),
        (("objective_history",), [5]),
        (("config_echo",), 5),
        (("converged",), "yes"),
        (("config_echo", "substeps"), "2"),
        (("config_echo", "substeps"), 2.5),
        (("config_echo", "dt"), "0.1"),
        (("config_echo", "dt"), True),
        # written as Infinity; the reader sees the same inf as for 1e400
        (("config_echo", "dt"), float("inf")),
        (("alpha",), [[1.5, "0.8"], [1.2, 0.9]]),
        (("W",), [["0", "0.1"], ["-0.1", "0"]]),
        (("states",), {"x1": [["0.1", "0.2"], ["0.3", "0.4"]], "x2": [[0, 1], [1, 0]]}),
        (("W",), [[True, False], [False, True]]),
    ], ids=["states", "history-entry", "echo", "converged", "substeps-str", "substeps-float",
            "dt-str", "dt-bool", "dt-inf", "alpha-str", "W-str", "states-str", "W-bool"])
    def test_malformed_fit_json_is_config_error(self, workdir, capsys, path, value):
        fit = write_fit_json(workdir / "fa.json", m=2, seed=5)
        doc = json.loads(fit.read_text())
        target = doc
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = value
        fit.write_text(json.dumps(doc))
        code = main(
            ["export-sim", str(fit), "--n-series", "1", "--length", "10",
             "--seed", "1", "-o", str(workdir / "x")]
        )
        assert code == 2
        assert "not a fit result" in capsys.readouterr().err

    def test_corpus_layout_and_determinism(self, workdir):
        fit_a = write_fit_json(workdir / "fa.json", m=2, seed=5)
        fit_b = write_fit_json(workdir / "fb.json", m=2, seed=6)
        outs = []
        for name in ("c1", "c2"):
            out = workdir / name
            code = main(
                ["export-sim", str(fit_a), str(fit_b), "--n-series", "3",
                 "--length", "15", "--seed", "9", "-o", str(out)]
            )
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (
            (a / "vdp_sim" / "series_0000.csv").read_bytes()
            == (b / "vdp_sim" / "series_0000.csv").read_bytes()
        )
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["simulated"]["count"] == 3
        assert len(list((a / "noisy_real").iterdir())) == 3

    def test_fit_without_dt_is_config_error(self, workdir, capsys):
        fit = write_fit_json(workdir / "fa.json", m=2, seed=5)
        doc = json.loads(fit.read_text())
        del doc["config_echo"]["dt"]
        fit.write_text(json.dumps(doc))
        code = main(
            ["export-sim", str(fit), "--n-series", "1", "--length", "10",
             "--seed", "1", "-o", str(workdir / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "not a fit result" in err and "'dt'" in err

    def test_real_series_override(self, workdir, series_csv):
        fit = write_fit_json(workdir / "fa.json", m=1, seed=5)
        out = workdir / "c"
        code = main(
            ["export-sim", str(fit), "--n-series", "2", "--length", "15",
             "--seed", "4", "--real", str(series_csv), "-o", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["source_series"] for s in manifest["noisy_real"]["series"]] == [0, 0]

    def test_states_near_the_float_limit_export_finite_noisy_series(self, workdir, capsys):
        # squaring 1e300 overflows, so a plain std of these tracks is inf; under the
        # suite's filterwarnings = error its overflow warning would also escape main
        fit = write_fit_json(workdir / "fa.json", m=2, seed=5)
        doc = json.loads(fit.read_text())
        doc["states"]["x1"] = (np.array(doc["states"]["x1"]) * 1e300).tolist()
        fit.write_text(json.dumps(doc))
        out = workdir / "c"
        code = main(["export-sim", str(fit), "--n-series", "3", "--length", "5", "--seed", "1",
                     "-o", str(out)])
        assert code == 0
        assert "Warning" not in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["simulated"]["skipped"] == 3 and manifest["noisy_real"]["count"] == 3
        for path in (out / "noisy_real").iterdir():
            assert np.isfinite(load_csv(path, layout="rows=time")).all()  # load_csv checks too

    @pytest.mark.parametrize("flags", [
        ["--n-series", "1", "--length", str(10 ** 12)],
        ["--n-series", str(10 ** 8), "--length", "5"],
        ["--n-series", str(10 ** 30), "--length", "5"],
    ], ids=["length-1e12", "n-series-1e8", "n-series-1e30"])
    def test_count_too_large_to_hold_is_data_error(self, workdir, flags):
        # in range, so the program tries to allocate; the child's address space is
        # capped, so the attempt fails at once instead of taking real memory
        fit = write_fit_json(workdir / "fa.json", m=1)
        out = workdir / "c"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        run = subprocess.run(
            [sys.executable, "-c", "import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20)); "
             "from vdpfit.cli import main; sys.exit(main(sys.argv[1:]))",
             "export-sim", str(fit), "--seed", "1", *flags, "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
        assert not out.exists()


# (argv with every required flag in range, flag, out-of-range value)
BASE_ARGV = {
    "svd": ["svd", "in.csv", "-m", "1"],
    "forecast": ["forecast", "in.csv", "--train-len", "50", "--test-len", "15",
                 "--segments", "2"],
    "connectivity": ["connectivity", "comps", "fit.json"],
    "export-sim": ["export-sim", "fit.json", "--n-series", "1", "--length", "10",
                   "--seed", "1"],
}
OUT_OF_RANGE = [
    ("svd", "-m", "0"),
    ("forecast", "--horizon", "0"),
    ("forecast", "--var-order", "0"),
    ("forecast", "--train-len", "0"),
    ("forecast", "--test-len", "0"),
    ("forecast", "--segments", "0"),
    ("forecast", "--segments", "two"),
    ("connectivity", "--top-k", "0"),
    ("export-sim", "--n-series", "-1"),
    ("export-sim", "--length", "1"),
    ("export-sim", "--noise-sigma", "nan"),
    ("export-sim", "--noise-sigma", "inf"),
    ("export-sim", "--noise-sigma", "-0.5"),
]


@pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE,
                         ids=[" ".join(c) for c in OUT_OF_RANGE])
def test_out_of_range_flag_is_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "forecast", "export-sim"])
def test_negative_seed_is_usage_error_before_any_output(workdir, series_csv, fit_config,
                                                         capsys, command):
    fit = write_fit_json(workdir / "fa.json", m=1)
    argv = {
        "fit": ["fit", str(series_csv), "--config", str(fit_config)],
        "forecast": ["forecast", str(series_csv), "--methods", "vdp", "--train-len", "20",
                     "--test-len", "10", "--segments", "1", "--config", str(fit_config)],
        "export-sim": ["export-sim", str(fit), "--n-series", "1", "--length", "10"],
    }[command]
    out = workdir / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "-o", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


# every numeric flag: (argv with the other required flags in range, flag, type, minimum)
NUMERIC_FLAGS = [
    (BASE_ARGV["svd"], "-m", int, 1),
    *[(BASE_ARGV["forecast"], flag, int, 1) for flag in
      ("--train-len", "--test-len", "--segments", "--horizon", "--var-order")],
    (BASE_ARGV["forecast"], "--seed", int, 0),
    (BASE_ARGV["connectivity"], "--top-k", int, 1),
    (BASE_ARGV["export-sim"], "--n-series", int, 0),
    (BASE_ARGV["export-sim"], "--length", int, 2),
    (BASE_ARGV["export-sim"], "--seed", int, 0),
    (BASE_ARGV["export-sim"], "--noise-sigma", float, 0.0),
    (["fit", "in.csv", "--config", "fit.json", "--seed", "1"], "--seed", int, 0),
]


@st.composite
def _out_of_range_flag(draw):
    """(argv, flag, text): text below the flag's minimum, not a number, not
    finite, past the float range, or a float for an integer flag."""
    argv, flag, kind, lo = draw(st.sampled_from(NUMERIC_FLAGS))
    below = (st.integers(max_value=lo - 1) if kind is int
             else st.floats(max_value=np.nextafter(lo, -np.inf)))
    bad = [below.map(str),
           st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "infinity", "1e400", "-1e400",
                            "", " ", "two", "1,5", "0x10", "1_0e", "--"])]
    if kind is int:
        bad.append(st.floats(allow_nan=False, allow_infinity=False).map(repr))
    return argv, flag, draw(st.one_of(bad))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_out_of_range_flag())
@example(case=(BASE_ARGV["export-sim"], "--length", "2.0"))
@example(case=(BASE_ARGV["export-sim"], "--noise-sigma", "1e400"))
def test_out_of_range_numeric_flag_exits_2_naming_it(tmp_path_factory, case):
    argv, flag, text = case
    out = tmp_path_factory.getbasetemp() / "flag-out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv + ["-o", str(out), flag, text])
    assert exc.value.code == 2
    assert flag in err.getvalue() and "Traceback" not in err.getvalue()
    assert not out.exists()


def test_package_binds_only_its_version_and_submodules():
    # each name has one home, its module; `vdpfit` re-exports none of them
    import vdpfit
    public = {name for name, value in vars(vdpfit).items()
              if not name.startswith("_") and not isinstance(value, type(vdpfit))}
    assert public == set()
    assert isinstance(vdpfit.__version__, str)


def test_flags_at_their_lower_bound_are_accepted(workdir):
    fit = write_fit_json(workdir / "fa.json", m=2, seed=5)
    out = workdir / "c"
    code = main(["export-sim", str(fit), "--n-series", "0", "--length", "2",
                 "--noise-sigma", "0", "--seed", "1", "-o", str(out)])
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["noise_sigma"] == 0.0


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
