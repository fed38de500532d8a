"""Forecasting benchmarks: fitted-oscillator rollouts against a VAR baseline.

Two protocols over contiguous (train, test) segments:

  short: one H-step window per segment starting at the first test index;
  long:  stride-1 sliding H-step windows across the whole test range, with the
         VAR history taken as the k points immediately preceding each window
         (the fitted oscillator only supports the short protocol, since its
         state estimate ends at the last training point).

Per-horizon-step aggregates pool (segments x components x windows): RMSE is
the cumulative root-mean-square error through step h per window, medianed over
the whole pool; the correlation at step h is computed per component across the
pooled (segment, window) forecasts and medianed over components, with sigma/
sqrt(n) standard errors. Per-window cumulative correlations (undefined at
h=1) are also recorded for the tidy CSV export.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .data import SegmentSplit, SvdComponents, save_csv
from .estimator import FitResult
from .model import DimensionError, SimulationDiverged, rollout, simulate

# Ridge on the VAR normal equations when the lagged design is rank deficient.
RIDGE_EPS = 1e-8
# Draw rounds per exported series before it is skipped as divergent.
MAX_EXPORT_ATTEMPTS = 10


@dataclass(frozen=True)
class VarModel:
    """VAR(k) with intercept: y_t = intercept + sum_l coefs[l-1] @ y_{t-l}."""

    coefs: np.ndarray  # (k, m, m)
    intercept: np.ndarray  # (m,)
    ridge_fallback: bool = False

    def __post_init__(self):
        coefs = np.asarray(self.coefs, dtype=float)
        intercept = np.asarray(self.intercept, dtype=float)
        if coefs.ndim != 3 or coefs.shape[1] != coefs.shape[2]:
            raise DimensionError(f"coefs must be (k, m, m), got {coefs.shape}")
        if intercept.shape != (coefs.shape[1],):
            raise DimensionError("intercept length must match coefficient blocks")
        if not (np.all(np.isfinite(coefs)) and np.all(np.isfinite(intercept))):
            raise ValueError("VAR coefficients must be finite")
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "intercept", intercept)

    @property
    def order(self) -> int:
        return self.coefs.shape[0]

    @property
    def m(self) -> int:
        return self.coefs.shape[1]


def var_fit(train: np.ndarray, k: int = 6) -> VarModel:
    """Least-squares VAR(k) with intercept, jointly over all components.

    Predictors and targets are column-centered so the intercept drops out of
    the solve; a rank-deficient design falls back to ridge normal equations
    with RIDGE_EPS and flags the result. On a constant series this yields
    zero lag coefficients and intercept equal to the constant.
    """
    train = np.atleast_2d(np.asarray(train, dtype=float))
    m, t = train.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if t <= k * m + 1:
        raise ValueError(f"need more than {k * m + 1} samples to fit VAR({k}) on {m} components")
    y = train[:, k:].T  # (t-k, m)
    x = np.hstack([train[:, k - l : t - l].T for l in range(1, k + 1)])  # (t-k, k*m)
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    b, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=None)
    ridge = rank < k * m
    if ridge:
        gram = xc.T @ xc + RIDGE_EPS * np.eye(k * m)
        b = np.linalg.solve(gram, xc.T @ yc)
    coefs = np.stack([b[(l - 1) * m : l * m].T for l in range(1, k + 1)])
    intercept = y_mean - x_mean @ b
    return VarModel(coefs=coefs, intercept=intercept, ridge_fallback=ridge)


def var_predict(model: VarModel, history: np.ndarray, steps: int) -> np.ndarray:
    """Recursive multi-step rollout; `history` is (m, k), oldest column first."""
    history = np.atleast_2d(np.asarray(history, dtype=float))
    k, m = model.order, model.m
    if history.shape != (m, k):
        raise DimensionError(f"history must be ({m}, {k}), got {history.shape}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    buf = list(history.T)  # time-ordered states, newest last
    out = np.empty((m, steps))
    for s in range(steps):
        y = model.intercept.copy()
        for l in range(1, k + 1):
            y = y + model.coefs[l - 1] @ buf[-l]
        buf.append(y)
        out[:, s] = y
    return out


def vdp_predict(fit: FitResult, steps: int) -> np.ndarray:
    """Integrate the fitted oscillator from the final estimated (x1, x2) state,
    with the fit's own time step and substep count."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    m = fit.params.m
    if steps == 0:
        return np.empty((m, 0))
    last = fit.states.state(fit.states.n_steps - 1)
    traj = simulate(fit.params, last, steps + 1, fit.states.dt, fit.substeps)
    return traj.x1[1:].T


class ForecastMethod:
    """Protocol-facing forecaster: fit per segment, then serve H-step windows."""

    name: str = "method"
    supports_long: bool = True

    def prepare(self, data: np.ndarray, split: SegmentSplit) -> None:
        raise NotImplementedError

    def forecast(self, segment: int, start: int, steps: int) -> np.ndarray:
        """Predict data[:, start : start + steps] for the given segment."""
        raise NotImplementedError


class VarMethod(ForecastMethod):
    """VAR(k) baseline: fit on each training range, slide the k-point history.

    With refit_per_window=True the coefficients are refit on everything from
    the segment's train start up to each window instead of being reused.
    """

    def __init__(self, order: int = 6, refit_per_window: bool = False):
        self.name = f"var{order}"
        self.order = order
        self.refit_per_window = refit_per_window
        self._models: list[VarModel] = []
        self._data: Optional[np.ndarray] = None
        self._split: Optional[SegmentSplit] = None

    def prepare(self, data: np.ndarray, split: SegmentSplit) -> None:
        self._data = data
        self._split = split
        self._models = [
            var_fit(data[:, seg.train[0] : seg.train[1]], self.order)
            for seg in split.segments
        ]

    def forecast(self, segment: int, start: int, steps: int) -> np.ndarray:
        if start < self.order:
            raise ValueError(f"window at {start} lacks {self.order} history points")
        model = self._models[segment]
        if self.refit_per_window:
            seg = self._split.segments[segment]
            model = var_fit(self._data[:, seg.train[0] : start], self.order)
        history = self._data[:, start - self.order : start]
        return var_predict(model, history, steps)


class VdpMethod(ForecastMethod):
    """Fitted-oscillator forecasts, one FitResult per segment (short protocol only)."""

    supports_long = False

    def __init__(self, fits: Sequence[FitResult], name: str = "vdp"):
        self.name = name
        self.fits = list(fits)
        self._split: Optional[SegmentSplit] = None

    def prepare(self, data: np.ndarray, split: SegmentSplit) -> None:
        if len(self.fits) != split.n_segments:
            raise DimensionError(
                f"{len(self.fits)} fits for {split.n_segments} segments"
            )
        m = data.shape[0]
        for f in self.fits:
            if f.params.m != m:
                raise DimensionError("fit component count does not match data")
        self._split = split

    def forecast(self, segment: int, start: int, steps: int) -> np.ndarray:
        seg = self._split.segments[segment]
        if start != seg.test[0]:
            raise ValueError(
                "oscillator forecasts start at the first test index "
                f"({seg.test[0]}), requested {start}"
            )
        return vdp_predict(self.fits[segment], steps)


@dataclass
class WindowForecast:
    """One (segment, component, window) forecast with cumulative metrics."""

    method: str
    segment: int
    component: int
    window: int
    start: int
    true: np.ndarray  # (H,)
    pred: np.ndarray  # (H,)
    corr: np.ndarray  # (H,) cumulative Pearson through h (NaN where undefined)
    rmse: np.ndarray  # (H,) cumulative RMS error through h


@dataclass
class HorizonStats:
    """Per-method aggregates indexed by horizon step (lists of length H)."""

    corr_median: list[float]
    corr_se: list[float]
    corr_components: list[int]  # components with a defined pooled correlation
    rmse_median: list[float]
    rmse_se: list[float]
    n_windows: int
    skipped_windows: int
    window_corr_undefined: int

    def to_dict(self) -> dict:
        def clean(vals):
            return [None if not math.isfinite(v) else v for v in vals]

        return {
            "corr_median": clean(self.corr_median),
            "corr_se": clean(self.corr_se),
            "corr_components": self.corr_components,
            "rmse_median": clean(self.rmse_median),
            "rmse_se": clean(self.rmse_se),
            "n_windows": self.n_windows,
            "skipped_windows": self.skipped_windows,
            "window_corr_undefined": self.window_corr_undefined,
        }


@dataclass
class ForecastReport:
    horizon: int
    protocol: str
    stride: int
    methods: dict[str, HorizonStats]
    records: list[WindowForecast]
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "protocol": self.protocol,
            "stride": self.stride,
            "methods": {name: st.to_dict() for name, st in self.methods.items()},
            "metadata": self.metadata,
        }

    def save_json(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    def save_csv(self, path: str | Path):
        """Tidy rows (method, segment, component, window, h, corr, rmse)."""
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "segment", "component", "window", "h", "corr", "rmse"])
            for rec in self.records:
                for h in range(self.horizon):
                    corr = rec.corr[h]
                    writer.writerow(
                        [
                            rec.method,
                            rec.segment,
                            rec.component,
                            rec.window,
                            h + 1,
                            "" if not math.isfinite(corr) else format(corr, ".17g"),
                            format(rec.rmse[h], ".17g"),
                        ]
                    )


def _window_metrics(true: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h_max = true.size
    corr = np.full(h_max, math.nan)
    rmse = np.empty(h_max)
    err2 = (true - pred) ** 2
    cum = np.cumsum(err2)
    for h in range(1, h_max + 1):
        rmse[h - 1] = math.sqrt(cum[h - 1] / h)
        if h >= 2:
            corr[h - 1] = metrics.pearson(true[:h], pred[:h])
    return corr, rmse


def evaluate(
    methods: Sequence[ForecastMethod],
    split: SegmentSplit,
    comps: SvdComponents | np.ndarray,
    horizon: int = 9,
    protocol: str = "short",
) -> ForecastReport:
    """Run every method over the protocol's windows and aggregate per step.

    Windows that would run past the available data are skipped and counted;
    methods that cannot serve the long protocol are recorded as omitted.
    """
    if protocol not in ("short", "long"):
        raise ValueError(f"protocol must be 'short' or 'long', got {protocol!r}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    data = comps.temporal if isinstance(comps, SvdComponents) else np.atleast_2d(
        np.asarray(comps, dtype=float)
    )
    m, t = data.shape
    records: list[WindowForecast] = []
    stats: dict[str, HorizonStats] = {}
    omitted: list[str] = []

    for method in methods:
        if protocol == "long" and not method.supports_long:
            omitted.append(method.name)
            continue
        method.prepare(data, split)
        skipped = 0
        method_records: list[WindowForecast] = []
        for s_idx, seg in enumerate(split.segments):
            t0, t1 = seg.test
            if protocol == "short":
                starts = [t0]
            else:
                starts = list(range(t0, t1 - horizon + 1))
            for w_idx, start in enumerate(starts):
                if start + horizon > t1 or start + horizon > t:
                    skipped += 1
                    continue
                try:
                    pred = method.forecast(s_idx, start, horizon)
                except (SimulationDiverged, ValueError):
                    skipped += 1
                    continue
                pred = np.asarray(pred, dtype=float)
                if pred.shape != (m, horizon):
                    raise DimensionError(
                        f"{method.name} returned {pred.shape}, expected {(m, horizon)}"
                    )
                true = data[:, start : start + horizon]
                for c in range(m):
                    corr, rmse = _window_metrics(true[c], pred[c])
                    method_records.append(
                        WindowForecast(
                            method=method.name,
                            segment=s_idx,
                            component=c,
                            window=w_idx,
                            start=start,
                            true=true[c].copy(),
                            pred=pred[c].copy(),
                            corr=corr,
                            rmse=rmse,
                        )
                    )
        records.extend(method_records)
        stats[method.name] = _aggregate(method_records, m, horizon, skipped)

    return ForecastReport(
        horizon=horizon,
        protocol=protocol,
        stride=1,
        methods=stats,
        records=records,
        metadata={
            "n_segments": split.n_segments,
            "omitted_methods": omitted,
            "provenance": dict(split.provenance),
        },
    )


def _aggregate(
    records: list[WindowForecast], m: int, horizon: int, skipped: int
) -> HorizonStats:
    corr_median = []
    corr_se = []
    corr_components = []
    rmse_median = []
    rmse_se = []
    for h in range(horizon):
        pooled_rmse = np.array([rec.rmse[h] for rec in records])
        med, se = metrics.median_and_se(pooled_rmse)
        rmse_median.append(med)
        rmse_se.append(se)
        comp_corrs = []
        for c in range(m):
            true_h = np.array([rec.true[h] for rec in records if rec.component == c])
            pred_h = np.array([rec.pred[h] for rec in records if rec.component == c])
            if true_h.size >= 2:
                comp_corrs.append(metrics.pearson(true_h, pred_h))
            else:
                comp_corrs.append(math.nan)
        comp_corrs = np.array(comp_corrs)
        med, se = metrics.median_and_se(comp_corrs)
        corr_median.append(med)
        corr_se.append(se)
        corr_components.append(int(np.sum(np.isfinite(comp_corrs))))
    n_windows = len({(rec.segment, rec.window) for rec in records})
    undefined = int(sum(np.sum(~np.isfinite(rec.corr[1:])) for rec in records))
    return HorizonStats(
        corr_median=corr_median,
        corr_se=corr_se,
        corr_components=corr_components,
        rmse_median=rmse_median,
        rmse_se=rmse_se,
        n_windows=n_windows,
        skipped_windows=skipped,
        window_corr_undefined=undefined,
    )


@dataclass
class Corpus:
    """A list of generated (length, m) series plus bookkeeping for the manifest."""

    series: list[np.ndarray]
    sources: list[dict]
    skipped: int = 0


@dataclass
class ExportResult:
    simulated: Corpus
    noisy_real: Corpus
    seed: int
    noise_sigma: float
    length: int

    def manifest(self) -> dict:
        return {
            "seed": self.seed,
            "noise_sigma": self.noise_sigma,
            "length": self.length,
            "simulated": {
                "count": len(self.simulated.series),
                "skipped": self.simulated.skipped,
                "series": self.simulated.sources,
            },
            "noisy_real": {
                "count": len(self.noisy_real.series),
                "skipped": self.noisy_real.skipped,
                "series": self.noisy_real.sources,
            },
        }


def export_simulations(
    fits: Sequence[FitResult],
    n_series: int,
    length: int,
    noise_sigma: float = 0.1,
    seed: int = 0,
    real_series: Optional[Sequence[np.ndarray]] = None,
) -> ExportResult:
    """Generate a simulated corpus and a parallel noisy-real corpus.

    Series idx draws fit idx % len(fits), perturbs its initial state with
    Gaussian noise scaled by noise_sigma times the per-component track std,
    and integrates `length` samples with that fit's time step and substep
    count. The series are made in draw rounds, at most MAX_EXPORT_ATTEMPTS:
    each round draws the start-state noise of every pending series in index
    order (x1 then x2 per series), makes one batched `rollout` per fit over
    its pending series, and sends the ones that diverged to the next round.
    A series that diverges in every round is skipped. `attempts` in the
    manifest is the round in which a series succeeded. When nothing diverges
    the draws are those of one series at a time; retry draws come after all
    of a round's first draws. The noisy-real corpus adds the same relative
    noise to the provided real series (falling back to the fits' own activity
    tracks when none are given). Fully deterministic under `seed`; the corpus
    keeps index order.
    """
    if not fits:
        raise ValueError("need at least one fit")
    if n_series < 0 or length < 2:
        raise ValueError("n_series must be >= 0 and length >= 2")
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    sds = [(f.states.x1.std(axis=0), f.states.x2.std(axis=0)) for f in fits]
    made: dict[int, tuple[np.ndarray, int]] = {}  # index -> (x1 series, round)
    pending = list(range(n_series))
    for attempt in range(1, MAX_EXPORT_ATTEMPTS + 1):
        starts: dict[int, list] = {}  # source fit -> [(index, x1 start, x2 start)]
        for idx in pending:
            src = idx % len(fits)
            f, (sd1, sd2) = fits[src], sds[src]
            x1 = f.states.x1[0] + rng.normal(size=f.params.m) * noise_sigma * sd1
            x2 = f.states.x2[0] + rng.normal(size=f.params.m) * noise_sigma * sd2
            starts.setdefault(src, []).append((idx, x1, x2))
        for src, batch in starts.items():
            f = fits[src]
            indices, x1, x2 = zip(*batch)
            out1, _, diverged = rollout(
                f.params, np.array(x1), np.array(x2), length, f.states.dt, f.substeps
            )
            for idx, step, series in zip(indices, diverged, out1.swapaxes(0, 1)):
                if not step:
                    made[idx] = (series.copy(), attempt)
        pending = [idx for idx in pending if idx not in made]
    sim = Corpus(series=[], sources=[], skipped=len(pending))
    for idx, (series, attempts) in sorted(made.items()):
        sim.series.append(series)
        sim.sources.append({"index": idx, "source_fit": idx % len(fits), "attempts": attempts})
    if real_series is None:
        real_series = [f.states.x1 for f in fits]
    real_series = [np.atleast_2d(np.asarray(r, dtype=float)) for r in real_series]
    noisy = Corpus(series=[], sources=[])
    for idx in range(n_series):
        src = idx % len(real_series)
        base = real_series[src]
        sd = base.std(axis=0)
        noisy.series.append(base + rng.normal(size=base.shape) * noise_sigma * sd)
        noisy.sources.append({"index": idx, "source_series": src})
    return ExportResult(
        simulated=sim,
        noisy_real=noisy,
        seed=seed,
        noise_sigma=noise_sigma,
        length=length,
    )


def write_corpus(result: ExportResult, out_dir: str | Path):
    """Persist both corpora as CSV series plus a manifest.json."""
    out = Path(out_dir)
    (out / "vdp_sim").mkdir(parents=True, exist_ok=True)
    (out / "noisy_real").mkdir(parents=True, exist_ok=True)
    for i, series in enumerate(result.simulated.series):
        save_csv(series, out / "vdp_sim" / f"series_{i:04d}.csv")
    for i, series in enumerate(result.noisy_real.series):
        save_csv(series, out / "noisy_real" / f"series_{i:04d}.csv")
    (out / "manifest.json").write_text(json.dumps(result.manifest(), indent=2) + "\n")
