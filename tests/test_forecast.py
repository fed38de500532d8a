import json
import math
from dataclasses import asdict, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vdpfit import metrics
from vdpfit.data import split_segments
from vdpfit.estimator import FitResult
from vdpfit.forecast import (
    HorizonStats,
    VarMethod,
    VdpMethod,
    evaluate,
    export_simulations,
    var_fit,
    var_predict,
    vdp_predict,
    write_corpus,
)
from conftest import random_params
from vdpfit.model import (
    DimensionError,
    SimulationDiverged,
    State,
    Trajectory,
    VdpParams,
    simulate,
)


def make_fit(params, s0, n, dt):
    traj = simulate(params, s0, n, dt)
    return FitResult(
        params=params,
        states=traj,
        objective_history=[(0, 10.0, 0.0)],
        per_component_stats=[],
        converged=True,
        reason="synthetic",
        config_echo={"dt": dt},
    )


def damped_oscillator_var2(t=90):
    """Noise-free series that satisfies an exact VAR(2) with full-rank design."""
    r = 0.99
    a1 = np.array([[2 * r * math.cos(0.7), 0.15], [0.0, 2 * r * math.cos(1.3)]])
    a2 = np.array([[-(r**2), 0.0], [0.05, -(r**2)]])
    c = np.array([0.5, -0.25])
    y = np.empty((2, t))
    y[:, 0] = [1.0, -0.5]
    y[:, 1] = [0.3, 0.8]
    for i in range(2, t):
        y[:, i] = c + a1 @ y[:, i - 1] + a2 @ y[:, i - 2]
    return y, np.stack([a1, a2]), c


class TestMetrics:
    def test_pearson_hand_value(self):
        assert metrics.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert metrics.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_degenerate(self):
        assert math.isnan(metrics.pearson([1.0, 1.0, 1.0], [1, 2, 3]))
        assert math.isnan(metrics.pearson([1.0], [2.0]))

    def test_r_squared_hand_value(self):
        obs = np.array([0.0, 1.0, 2.0])
        assert metrics.r_squared(obs, obs) == pytest.approx(1.0)
        assert metrics.r_squared(obs, obs.mean() * np.ones(3)) == pytest.approx(0.0)

    def test_component_scores_hand_value(self):
        observed = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 2.0], [2.0, 1.0, 3.0]])
        simulated = np.array([[0.0, 3.0, 2.0], [2.0, 2.0, 2.0], [4.0, 1.0, 2.0]])
        c, r2 = metrics.component_scores(observed, simulated)
        # column 1 is flat on the observed side, column 2 on the simulated side
        np.testing.assert_allclose(c, [1.0, math.nan, math.nan])
        np.testing.assert_allclose(r2, [-1.5, math.nan, 0.0])

    def test_component_scores_match_the_scalar_metrics_bitwise(self):
        rng = np.random.default_rng(3)
        observed, simulated = rng.normal(size=(2, 40, 3))
        c, r2 = metrics.component_scores(observed, simulated)
        for i in range(3):
            assert c[i] == metrics.pearson(observed[:, i], simulated[:, i])
            assert r2[i] == metrics.r_squared(observed[:, i], simulated[:, i])
        with pytest.raises(ValueError):
            metrics.component_scores(observed, simulated[:, :2])

    def test_median_se_hand_value(self):
        med, se = metrics.median_and_se(np.array([1.0, 2.0, 9.0]))
        assert med == pytest.approx(2.0)
        assert se == pytest.approx(np.std([1.0, 2.0, 9.0]) / math.sqrt(3))

    def test_median_ignores_non_finite(self):
        med, _ = metrics.median_and_se(np.array([math.nan, 4.0, math.inf, 6.0]))
        assert med == pytest.approx(5.0)
        assert math.isnan(metrics.median_and_se(np.array([math.nan]))[0])

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=2,
            max_size=15,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_median_permutation_invariant(self, vals):
        # sorting is one permutation; equality with it for every input
        # implies order independence. The SE term sums in array order, so
        # it is only invariant up to rounding.
        med_a, se_a = metrics.median_and_se(np.array(vals))
        med_b, se_b = metrics.median_and_se(np.array(sorted(vals)))
        assert med_a == med_b
        assert se_a == pytest.approx(se_b, rel=1e-12, abs=1e-300)

    @given(x=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=st.floats(-1e100, 1e100, allow_subnormal=False)),
           axis=st.sampled_from([0, 1]))
    @settings(max_examples=100, deadline=None)
    def test_std_is_np_std_bit_for_bit(self, x, axis):
        assert metrics.std(x, axis).tobytes() == np.std(x, axis=axis).tobytes()

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 3e100])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_std_is_np_std_bit_for_bit_on_long_slices(self, rng, scale, axis):
        # 500 samples a slice, past the 128-element blocks of numpy's pairwise sums
        x = rng.normal(size=(500, 500)) * scale + scale
        assert metrics.std(x, axis).tobytes() == np.std(x, axis=axis).tobytes()

    @pytest.mark.parametrize("axis", [0, 1])
    def test_std_stays_finite_past_the_square_root_of_the_float_range(self, rng, axis):
        x = rng.normal(size=(40, 3))
        big = metrics.std(x * 1e300, axis)  # np.std would overflow (and warn) here
        npt.assert_allclose(big, np.std(x, axis=axis) * 1e300, rtol=1e-14)


class TestVarFit:
    def test_exact_recovery_noise_free(self):
        y, coefs, intercept = damped_oscillator_var2()
        model = var_fit(y, k=2)
        npt.assert_allclose(model.coefs, coefs, atol=1e-8)
        npt.assert_allclose(model.intercept, intercept, atol=1e-8)
        assert model.order == 2 and model.m == 2

    def test_one_step_predictions_match_data(self):
        y, _, _ = damped_oscillator_var2()
        model = var_fit(y[:, :60], k=2)
        pred = var_predict(model, y[:, 58:60], 10)
        npt.assert_allclose(pred, y[:, 60:70], atol=1e-6)

    def test_constant_series(self):
        model = var_fit(np.full((2, 30), 3.7), k=2)
        npt.assert_allclose(model.coefs, 0.0, atol=1e-12)
        npt.assert_allclose(model.intercept, [3.7, 3.7], atol=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="samples"):
            var_fit(np.ones((2, 5)), k=2)


class TestVarPredict:
    def test_ar1_hand_rollout(self):
        from vdpfit.forecast import VarModel

        model = VarModel(coefs=np.array([[[0.5]]]), intercept=np.array([0.0]))
        pred = var_predict(model, np.array([[1.0]]), 3)
        npt.assert_allclose(pred, [[0.5, 0.25, 0.125]])

    def test_intercept_only(self):
        from vdpfit.forecast import VarModel

        model = VarModel(coefs=np.zeros((2, 2, 2)), intercept=np.array([1.0, -2.0]))
        pred = var_predict(model, np.zeros((2, 2)), 4)
        npt.assert_allclose(pred, np.tile([[1.0], [-2.0]], 4))

    def test_rollout_composes(self):
        y, coefs, intercept = damped_oscillator_var2()
        model = var_fit(y, k=2)
        hist = y[:, 40:42]
        whole = var_predict(model, hist, 7)
        first = var_predict(model, hist, 3)
        rest = var_predict(model, np.hstack([hist, first])[:, -2:], 4)
        npt.assert_allclose(np.hstack([first, rest]), whole, rtol=1e-12)

    def test_zero_steps_and_bad_history(self):
        from vdpfit.forecast import VarModel

        model = VarModel(coefs=np.zeros((2, 3, 3)), intercept=np.zeros(3))
        assert var_predict(model, np.zeros((3, 2)), 0).shape == (3, 0)
        with pytest.raises(DimensionError):
            var_predict(model, np.zeros((2, 3)), 1)


class TestVdpPredict:
    def test_zero_steps_shape(self, rng):
        params = random_params(rng, 2)
        fit = make_fit(params, State(x1=rng.normal(size=2) * 0.3,
                                     x2=rng.normal(size=2) * 0.3), 30, 0.05)
        assert vdp_predict(fit, 0).shape == (2, 0)

    def test_continues_the_trajectory_exactly(self, rng):
        params = random_params(rng, 2)
        s0 = State(x1=np.array([0.4, -0.2]), x2=np.array([0.1, 0.3]))
        full = simulate(params, s0, 40, 0.05)
        fit = make_fit(params, s0, 31, 0.05)
        pred = vdp_predict(fit, 9)
        npt.assert_array_equal(pred, full.x1[31:40].T)

    def test_integrates_with_the_fits_substeps(self, rng):
        params = random_params(rng, 2)
        s0 = State(x1=np.array([0.4, -0.2]), x2=np.array([0.1, 0.3]))
        fit = make_fit(params, s0, 31, 0.2)
        fit.config_echo["substeps"] = 3
        last = fit.states.state(30)
        want = simulate(params, last, 10, 0.2, substeps=3).x1[1:].T
        npt.assert_array_equal(vdp_predict(fit, 9), want)
        assert not np.array_equal(want, simulate(params, last, 10, 0.2).x1[1:].T)

    def test_same_state_same_forecast(self, rng):
        params = random_params(rng, 2)
        s0 = State(x1=np.array([0.4, -0.2]), x2=np.array([0.1, 0.3]))
        a = make_fit(params, s0, 25, 0.05)
        b = make_fit(params, s0, 25, 0.05)
        npt.assert_array_equal(vdp_predict(a, 6), vdp_predict(b, 6))


class OracleMethod:
    """Returns the true window; the upper bound every metric should hit."""

    name = "oracle"
    supports_long = True

    def prepare(self, data, split):
        self._data = data

    def forecast(self, segment, start, steps):
        return self._data[:, start : start + steps]


class ZeroMethod:
    name = "zero"
    supports_long = True

    def prepare(self, data, split):
        self._m = data.shape[0]

    def forecast(self, segment, start, steps):
        return np.zeros((self._m, steps))


class BadShapeMethod:
    name = "badshape"
    supports_long = True

    def prepare(self, data, split):
        self._m = data.shape[0]

    def forecast(self, segment, start, steps):
        return np.zeros((self._m, steps - 1))


class RaisingMethod:
    name = "raising"
    supports_long = True

    def prepare(self, data, split):
        pass

    def forecast(self, segment, start, steps):
        raise DimensionError("raising method refuses every window")


class OddDivergingVar(VarMethod):
    """VAR forecasts whose odd-numbered starts report a diverged rollout."""

    def __init__(self):
        super().__init__(order=4)
        self.name = "odd"

    def forecast(self, segment, start, steps):
        if start % 2:
            raise SimulationDiverged(step=1, limit=1.0)
        return super().forecast(segment, start, steps)


def aggregate_oracle(records, m, horizon, skipped) -> HorizonStats:
    """Per-step aggregates rebuilt record by record, the reference for `evaluate`."""
    corr_median, corr_se, corr_components, rmse_median, rmse_se = [], [], [], [], []
    for h in range(horizon):
        med, se = metrics.median_and_se(np.array([rec.rmse[h] for rec in records]))
        rmse_median.append(med)
        rmse_se.append(se)
        comp_corrs = []
        for c in range(m):
            true_h = np.array([rec.true[h] for rec in records if rec.component == c])
            pred_h = np.array([rec.pred[h] for rec in records if rec.component == c])
            comp_corrs.append(metrics.pearson(true_h, pred_h) if true_h.size >= 2 else math.nan)
        comp_corrs = np.array(comp_corrs)
        med, se = metrics.median_and_se(comp_corrs)
        corr_median.append(med)
        corr_se.append(se)
        corr_components.append(int(np.sum(np.isfinite(comp_corrs))))
    return HorizonStats(
        corr_median=corr_median,
        corr_se=corr_se,
        corr_components=corr_components,
        rmse_median=rmse_median,
        rmse_se=rmse_se,
        n_windows=len({(rec.segment, rec.window) for rec in records}),
        skipped_windows=skipped,
        window_corr_undefined=int(sum(np.sum(~np.isfinite(rec.corr[1:])) for rec in records)),
    )


@pytest.fixture()
def wave_data(rng):
    t = np.arange(600) * 0.1
    data = np.vstack(
        [
            np.sin(t) + 0.3 * np.sin(3.1 * t + 1.0),
            np.cos(0.7 * t) - 0.2 * np.sin(2.3 * t),
        ]
    )
    return data + rng.normal(size=data.shape) * 0.01


class TestEvaluate:
    def test_oracle_is_perfect(self, wave_data):
        split = split_segments(600, 100, 20, 5)
        report = evaluate([OracleMethod()], split, wave_data, horizon=9)
        stats = report.methods["oracle"]
        assert stats.n_windows == 5
        assert stats.skipped_windows == 0
        for h in range(9):
            assert stats.corr_median[h] == pytest.approx(1.0)
            assert stats.rmse_median[h] == pytest.approx(0.0, abs=1e-15)

    def test_zero_predictor_metrics(self, wave_data):
        data = wave_data - wave_data.mean(axis=1, keepdims=True)
        split = split_segments(600, 100, 20, 5)
        report = evaluate([ZeroMethod()], split, data, horizon=9)
        stats = report.methods["zero"]
        recs = [r for r in report.records if r.method == "zero"]
        assert len(recs) == 5 * 2
        for rec in recs:
            for h in range(9):
                want = math.sqrt(np.mean(rec.true[: h + 1] ** 2))
                assert rec.rmse[h] == pytest.approx(want)
            assert np.all(~np.isfinite(rec.corr))
        # a constant prediction has no defined correlation anywhere
        assert stats.window_corr_undefined == len(recs) * 8
        assert stats.corr_components == [0] * 9
        assert all(math.isnan(v) for v in stats.corr_median)

    def test_long_protocol_window_count(self, wave_data):
        split = split_segments(600, 100, 20, 5)
        report = evaluate([OracleMethod()], split, wave_data, horizon=9,
                          protocol="long")
        assert report.methods["oracle"].n_windows == 12 * 5

    def test_vdp_omitted_on_long(self, rng, wave_data):
        split = split_segments(600, 100, 20, 5)
        params = random_params(rng, 2)
        fits = [
            make_fit(params, State(x1=np.array([0.4, -0.2]), x2=np.array([0.1, 0.3])),
                     100, 0.1)
            for _ in range(5)
        ]
        report = evaluate([VarMethod(order=6), VdpMethod(fits)], split, wave_data,
                          horizon=9, protocol="long")
        assert report.metadata["omitted_methods"] == ["vdp"]
        assert "vdp" not in report.methods
        assert "var6" in report.methods

    def test_window_past_data_is_skipped(self, wave_data):
        split = split_segments(120, 50, 10, 2)
        report = evaluate([OracleMethod()], split, wave_data[:, :115], horizon=9)
        stats = report.methods["oracle"]
        assert stats.n_windows == 1
        assert stats.skipped_windows == 1

    def test_a_method_error_propagates(self, wave_data):
        split = split_segments(600, 100, 20, 5)
        with pytest.raises(DimensionError, match="raising method"):
            evaluate([RaisingMethod()], split, wave_data, horizon=9)

    def test_diverged_oscillator_window_is_skipped(self, rng, wave_data):
        split = split_segments(600, 100, 20, 5)
        s0 = State(x1=np.array([0.3, 0.3]), x2=np.array([0.1, 0.1]))
        fits = [make_fit(random_params(rng, 2), s0, 100, 0.1) for _ in range(5)]
        fits[2] = replace(fits[2], params=VdpParams(alpha=np.full((2, 2), 1e6),
                                                    coupling=np.zeros((2, 2))))
        report = evaluate([VdpMethod(fits)], split, wave_data, horizon=9)
        stats = report.methods["vdp"]
        assert (stats.n_windows, stats.skipped_windows) == (4, 1)
        assert sorted({rec.segment for rec in report.records}) == [0, 1, 3, 4]

    def test_aggregates_equal_the_record_by_record_oracle(self, wave_data):
        # the data ends inside the last test range, so windows run past it too
        split = split_segments(600, 100, 20, 5)
        report = evaluate([VarMethod(order=6), OddDivergingVar()], split, wave_data[:, :592],
                          horizon=9, protocol="long")
        # 8 windows of the last segment pass the data's end; "odd" also loses
        # the 30 odd starts, 4 of them among those 8
        for name, skipped in (("var6", 8), ("odd", 30 + 4)):
            recs = [rec for rec in report.records if rec.method == name]
            want = aggregate_oracle(recs, 2, 9, skipped)
            assert json.dumps(asdict(report.methods[name])) == json.dumps(asdict(want))

    def test_bad_prediction_shape_raises(self, wave_data):
        split = split_segments(600, 100, 20, 5)
        with pytest.raises(DimensionError, match="badshape"):
            evaluate([BadShapeMethod()], split, wave_data, horizon=9)

    def test_method_order_does_not_change_stats(self, wave_data):
        split = split_segments(600, 100, 20, 5)
        a = evaluate([OracleMethod(), ZeroMethod()], split, wave_data, horizon=5)
        b = evaluate([ZeroMethod(), OracleMethod()], split, wave_data, horizon=5)
        for name in ("oracle", "zero"):
            assert a.methods[name].to_dict() == b.methods[name].to_dict()

    def test_bad_protocol_and_horizon(self, wave_data):
        split = split_segments(600, 100, 20, 5)
        with pytest.raises(ValueError, match="protocol"):
            evaluate([OracleMethod()], split, wave_data, protocol="weird")
        with pytest.raises(ValueError, match="horizon"):
            evaluate([OracleMethod()], split, wave_data, horizon=0)


class TestVarMethodWindows:
    def test_needs_history_before_window(self, wave_data):
        split = split_segments(600, 100, 20, 5)
        vm = VarMethod(order=6)
        vm.prepare(wave_data, split)
        with pytest.raises(ValueError, match="history"):
            vm.forecast(0, 3, 5)

    def test_refit_matches_plain_on_first_window(self, wave_data):
        split = split_segments(600, 100, 20, 5)
        plain = VarMethod(order=4)
        refit = VarMethod(order=4, refit_per_window=True)
        plain.prepare(wave_data, split)
        refit.prepare(wave_data, split)
        for seg in range(5):
            start = split.segments[seg].test[0]
            npt.assert_allclose(
                plain.forecast(seg, start, 9), refit.forecast(seg, start, 9)
            )


class TestVdpMethodGuards:
    def _fits(self, rng, n, m=2):
        params = random_params(rng, m)
        s0 = State(x1=0.3 * np.ones(m), x2=0.1 * np.ones(m))
        return [make_fit(params, s0, 100, 0.1) for _ in range(n)]

    def test_wrong_fit_count(self, rng, wave_data):
        split = split_segments(600, 100, 20, 5)
        with pytest.raises(DimensionError, match="fits"):
            VdpMethod(self._fits(rng, 3)).prepare(wave_data, split)

    def test_only_first_test_index(self, rng, wave_data):
        split = split_segments(600, 100, 20, 5)
        vm = VdpMethod(self._fits(rng, 5))
        vm.prepare(wave_data, split)
        with pytest.raises(ValueError, match="first test index"):
            vm.forecast(0, split.segments[0].test[0] + 1, 9)


class TestReportSerialization:
    def test_csv_schema(self, tmp_path, wave_data):
        split = split_segments(600, 100, 20, 5)
        report = evaluate([OracleMethod(), ZeroMethod()], split, wave_data, horizon=4)
        path = tmp_path / "report.csv"
        report.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,segment,component,window,h,corr,rmse"
        assert len(lines) == 1 + len(report.records) * 4
        first = lines[1].split(",")
        assert first[0] == "oracle"
        assert first[4] == "1"
        assert first[5] == ""  # single-point correlation is undefined

    def test_json_round_trip(self, tmp_path, wave_data):
        split = split_segments(600, 100, 20, 5)
        report = evaluate([ZeroMethod()], split,
                          wave_data - wave_data.mean(axis=1, keepdims=True),
                          horizon=4)
        path = tmp_path / "report.json"
        report.save_json(path)
        doc = json.loads(path.read_text())
        assert doc["horizon"] == 4
        assert doc["protocol"] == "short"
        assert doc["methods"]["zero"]["corr_median"] == [None] * 4
        assert doc["methods"]["zero"]["n_windows"] == 5
        assert doc["metadata"]["n_segments"] == 5


class TestExport:
    def _fit(self, rng, m=2, n=40, dt=0.05):
        params = random_params(rng, m)
        s0 = State(x1=rng.normal(size=m) * 0.3, x2=rng.normal(size=m) * 0.3)
        return make_fit(params, s0, n, dt)

    def test_empty_request(self, rng):
        res = export_simulations([self._fit(rng)], 0, 50)
        assert res.simulated.series == []
        assert res.noisy_real.series == []
        assert res.manifest()["simulated"]["count"] == 0

    def test_zero_noise_reproduces_forward_simulation(self, rng):
        fit = self._fit(rng)
        res = export_simulations([fit], 2, 30, noise_sigma=0.0, seed=7)
        want = simulate(fit.params, fit.states.state(0), 30, fit.states.dt).x1
        for series in res.simulated.series:
            npt.assert_array_equal(series, want)
        for series, base in zip(res.noisy_real.series, [fit.states.x1] * 2):
            npt.assert_array_equal(series, base)

    def test_simulates_with_the_fits_substeps(self, rng):
        fit = self._fit(rng, dt=0.2)
        fit.config_echo["substeps"] = 3
        res = export_simulations([fit], 1, 30, noise_sigma=0.0)
        want = simulate(fit.params, fit.states.state(0), 30, 0.2, substeps=3).x1
        npt.assert_array_equal(res.simulated.series[0], want)

    @pytest.mark.parametrize("substeps", [1, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_zero_noise_batch_equals_a_lone_simulate(self, rng, m, substeps):
        fit = self._fit(rng, m=m)
        fit.config_echo["substeps"] = substeps
        res = export_simulations([fit], 7, 30, noise_sigma=0.0, seed=5)
        want = simulate(fit.params, fit.states.state(0), 30, fit.states.dt, substeps).x1
        assert len(res.simulated.series) == 7
        for series in res.simulated.series:
            npt.assert_array_equal(series, want)

    def test_explosive_and_benign_fits(self):
        benign = make_fit(VdpParams(alpha=np.array([[1.0, 1.0]]), coupling=np.zeros((1, 1))),
                          State(x1=[0.5], x2=[0.1]), 10, 0.1)
        explosive = replace(benign, params=VdpParams(alpha=np.array([[1e6, 0.0]]),
                                                     coupling=np.zeros((1, 1))))
        runs = [export_simulations([explosive, benign], 5, 20, noise_sigma=0.1, seed=2)
                for _ in range(2)]
        manifest = runs[0].manifest()["simulated"]
        assert (manifest["count"], manifest["skipped"]) == (2, 3)
        assert manifest["series"] == [
            {"index": 1, "source_fit": 1, "attempts": 1},
            {"index": 3, "source_fit": 1, "attempts": 1},
        ]
        assert runs[1].manifest() == runs[0].manifest()
        for a, b in zip(runs[0].simulated.series + runs[0].noisy_real.series,
                        runs[1].simulated.series + runs[1].noisy_real.series):
            npt.assert_array_equal(a, b)

    def test_retry_rounds_match_the_documented_draw_order(self):
        # x1' = -2 x1 (1 - x1^2) blows up from |x1| > 1 and settles from below,
        # so about half of the draws around x1 = 1 diverge in each round
        marginal = FitResult(
            params=VdpParams(alpha=np.array([[-2.0, 0.0]]), coupling=np.zeros((1, 1))),
            states=Trajectory(x1=[[1.0], [0.6]], x2=[[0.0], [0.4]], dt=0.1),
            objective_history=[], per_component_stats=[], converged=False,
            reason="synthetic", config_echo={"dt": 0.1},
        )
        benign = make_fit(random_params(np.random.default_rng(4), 2),
                          State(x1=[0.3, -0.2], x2=[0.1, 0.0]), 20, 0.1)
        fits, sigma = [marginal, benign], 0.5
        res = export_simulations(fits, 12, 60, noise_sigma=sigma, seed=11)

        # reference: each round draws (x1, x2) for every pending series in
        # index order, then integrates them one at a time
        rng = np.random.default_rng(11)
        pending, made = list(range(12)), {}
        for attempt in range(1, 11):
            draws = []
            for idx in pending:
                f = fits[idx % 2]
                sd1, sd2 = f.states.x1.std(axis=0), f.states.x2.std(axis=0)
                draws.append((idx, f, State(
                    x1=f.states.x1[0] + rng.normal(size=f.params.m) * sigma * sd1,
                    x2=f.states.x2[0] + rng.normal(size=f.params.m) * sigma * sd2,
                )))
            pending = []
            for idx, f, s0 in draws:
                try:
                    made[idx] = (simulate(f.params, s0, 60, f.states.dt).x1, attempt)
                except SimulationDiverged:
                    pending.append(idx)
        assert res.simulated.skipped == len(pending)
        assert [s["index"] for s in res.simulated.sources] == sorted(made)
        assert [s["attempts"] for s in res.simulated.sources] == [
            made[i][1] for i in sorted(made)
        ]
        assert sum(s["attempts"] > 1 for s in res.simulated.sources) >= 3
        for series, idx in zip(res.simulated.series, sorted(made)):
            npt.assert_array_equal(series, made[idx][0])

    def test_round_robin_and_determinism(self, rng):
        fits = [self._fit(rng) for _ in range(2)]
        a = export_simulations(fits, 5, 25, noise_sigma=0.1, seed=3)
        b = export_simulations(fits, 5, 25, noise_sigma=0.1, seed=3)
        assert [s["source_fit"] for s in a.simulated.sources] == [0, 1, 0, 1, 0]
        for sa, sb in zip(a.simulated.series, b.simulated.series):
            npt.assert_array_equal(sa, sb)
        c = export_simulations(fits, 5, 25, noise_sigma=0.1, seed=4)
        assert not np.array_equal(a.simulated.series[0], c.simulated.series[0])

    def test_divergent_fit_is_skipped(self, rng):
        benign = simulate(
            VdpParams(alpha=np.array([[1.0, 1.0]]), coupling=np.zeros((1, 1))),
            State(x1=np.array([0.5]), x2=np.array([0.1])),
            10,
            0.1,
        )
        explosive = FitResult(
            params=VdpParams(alpha=np.array([[1e6, 0.0]]), coupling=np.zeros((1, 1))),
            states=benign,
            objective_history=[],
            per_component_stats=[],
            converged=False,
            reason="synthetic",
        )
        res = export_simulations([explosive], 1, 20, noise_sigma=0.0, seed=0)
        assert res.simulated.series == []
        assert res.simulated.skipped == 1
        assert res.manifest()["simulated"]["skipped"] == 1

    def test_validation(self, rng):
        fit = self._fit(rng)
        with pytest.raises(ValueError):
            export_simulations([], 1, 10)
        with pytest.raises(ValueError):
            export_simulations([fit], -1, 10)
        with pytest.raises(ValueError):
            export_simulations([fit], 1, 1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.5])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, rng, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            export_simulations([self._fit(rng)], 1, 10, noise_sigma=sigma)

    def test_write_corpus_layout(self, tmp_path, rng):
        fits = [self._fit(rng)]
        res = export_simulations(fits, 3, 20, noise_sigma=0.05, seed=11)
        write_corpus(res, tmp_path / "corpus")
        root = tmp_path / "corpus"
        assert sorted(p.name for p in (root / "vdp_sim").iterdir()) == [
            "series_0000.csv",
            "series_0001.csv",
            "series_0002.csv",
        ]
        assert (root / "noisy_real" / "series_0000.csv").exists()
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["simulated"]["count"] == 3
        write_corpus(res, tmp_path / "corpus2")
        a = (root / "vdp_sim" / "series_0000.csv").read_bytes()
        b = (tmp_path / "corpus2" / "vdp_sim" / "series_0000.csv").read_bytes()
        assert a == b
