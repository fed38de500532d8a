import json
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from conftest import random_params
from vdpfit import cli
from vdpfit.cli import main
from vdpfit.data import save_csv
from vdpfit.estimator import FitResult, ParamBounds, PenaltyConfig
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

    def test_out_env_var_supplies_default(self, workdir, recording_csv, monkeypatch):
        target = workdir / "from_env"
        monkeypatch.setenv("VDPFIT_OUT", str(target))
        assert main(["svd", str(recording_csv), "-m", "1"]) == 0
        assert (target / "temporal.csv").exists()


# (dotted key the error must name, config fragment merged over {"dt": 0.1})
MALFORMED_CONFIGS = [
    ("penalty.bounds.alpha1", {"penalty": {"bounds": {"alpha1": 5}}}),
    ("penalty.bounds.alpha1", {"penalty": {"bounds": {"alpha1": ["a", 1]}}}),
    ("penalty.bounds.coupling", {"penalty": {"bounds": {"coupling": [1]}}}),
    ("penalty.bounds", {"penalty": {"bounds": 5}}),
    ("penalty.lam", {"penalty": {"lam": "x"}}),
    ("penalty.lam_schedule", {"penalty": {"lam_schedule": 5}}),
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
            "lam": 500,
            "lam_schedule": [10.0, 100.0],
            "inner_tol": 1e-7,
            "inner_tol_start": 1e-3,
            "inner_max_iter": 40,
            "inner_max_iter_start": 20,
            "outer_step": 0.05,
            "outer_max_iter": 8,
            "outer_ftol": 1e-7,
            "outer_gtol": 1e-5,
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
        assert type(echo["lam"]) is int

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
        err = capsys.readouterr().err
        assert "search." in err and "bogus" in err

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
