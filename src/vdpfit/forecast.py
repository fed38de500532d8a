"""Forecasting benchmarks: fitted-oscillator rollouts against a VAR baseline.

Two protocols over contiguous (train, test) segments:

  short: one H-step window per segment starting at the first test index;
  long:  stride-1 sliding H-step windows across the whole test range, with the
         VAR history taken as the k points immediately preceding each window
         (the fitted oscillator only supports the short protocol, since its
         state estimate ends at the last training point).

A window is skipped, and counted, only when it runs past its segment's test
range or the data, or when its forecast diverges (`SimulationDiverged`).

Each method's kept windows form two (windows, m, H) arrays, `true` and `pred`,
in segment-then-window order, and every metric comes from them. RMSE is the
cumulative root-mean-square error through step h per window and component,
medianed over the whole (windows x components) pool; the correlation at step
h is computed per component across the pooled windows and medianed over
components, with sigma/sqrt(n) standard errors. Per-window cumulative
correlations (undefined at h=1) are also recorded for the tidy CSV export.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .data import SegmentSplit, save_csv
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
    with RIDGE_EPS. On a constant series this yields zero lag coefficients
    and intercept equal to the constant.
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
    if rank < k * m:
        gram = xc.T @ xc + RIDGE_EPS * np.eye(k * m)
        b = np.linalg.solve(gram, xc.T @ yc)
    coefs = np.stack([b[(l - 1) * m : l * m].T for l in range(1, k + 1)])
    intercept = y_mean - x_mean @ b
    return VarModel(coefs=coefs, intercept=intercept)


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


class VarMethod:
    """VAR(k) baseline: fit on each training range, slide the k-point history.

    With refit_per_window=True the coefficients are refit on everything from
    the segment's train start up to each window instead of being reused.
    """

    supports_long = True

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


class VdpMethod:
    """Fitted-oscillator forecasts, one FitResult per segment (short protocol only)."""

    name = "vdp"
    supports_long = False

    def __init__(self, fits: Sequence[FitResult]):
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
    """One (segment, component, window) forecast with cumulative metrics; the
    arrays are row views of its method's (windows, m, H) arrays."""

    method: str
    segment: int
    component: int
    window: int
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
        """The fields, with non-finite floats as None (JSON null)."""
        def clean(v):
            return None if isinstance(v, float) and not math.isfinite(v) else v

        return {k: [clean(x) for x in v] if isinstance(v, list) else v
                for k, v in asdict(self).items()}


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
                for h, (corr, rmse) in enumerate(zip(rec.corr, rec.rmse), 1):
                    writer.writerow([
                        rec.method, rec.segment, rec.component, rec.window, h,
                        "" if not math.isfinite(corr) else format(corr, ".17g"),
                        format(rmse, ".17g"),
                    ])


def evaluate(
    methods: Sequence,
    split: SegmentSplit,
    data: np.ndarray,
    horizon: int = 9,
    protocol: str = "short",
) -> ForecastReport:
    """Run every method over the protocol's windows of the (m, T) `data` and
    aggregate per step. A method has a `name`, `prepare(data, split)`,
    `forecast(segment, start, steps)` giving the (m, steps) prediction of
    data[:, start : start + steps], and `supports_long`; one that cannot serve
    the long protocol is recorded as omitted there.

    A window is skipped, and counted, when it runs past its segment's test
    range or the data, or when its forecast diverges; any other error from a
    method propagates.
    """
    if protocol not in ("short", "long"):
        raise ValueError(f"protocol must be 'short' or 'long', got {protocol!r}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    data = np.atleast_2d(np.asarray(data, dtype=float))
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
        kept: list[tuple[int, int]] = []  # (segment, window)
        trues, preds = [], []
        for s_idx, seg in enumerate(split.segments):
            t0, t1 = seg.test
            starts = [t0] if protocol == "short" else range(t0, t1 - horizon + 1)
            for w_idx, start in enumerate(starts):
                if start + horizon > min(t1, t):
                    skipped += 1
                    continue
                try:
                    pred = np.asarray(method.forecast(s_idx, start, horizon), dtype=float)
                except SimulationDiverged:
                    skipped += 1
                    continue
                if pred.shape != (m, horizon):
                    raise DimensionError(
                        f"{method.name} returned {pred.shape}, expected {(m, horizon)}"
                    )
                kept.append((s_idx, w_idx))
                trues.append(data[:, start : start + horizon])
                preds.append(pred)
        true = np.array(trues, dtype=float).reshape(-1, m, horizon)
        pred = np.array(preds, dtype=float).reshape(-1, m, horizon)
        rmse = np.sqrt(np.cumsum((true - pred) ** 2, axis=2) / np.arange(1, horizon + 1))
        corr = np.full(true.shape, math.nan)
        for w, c in np.ndindex(true.shape[:2]):
            for h in range(2, horizon + 1):
                corr[w, c, h - 1] = metrics.pearson(true[w, c, :h], pred[w, c, :h])
        records.extend(
            WindowForecast(method.name, s_idx, c, w_idx,
                           true[i, c], pred[i, c], corr[i, c], rmse[i, c])
            for i, (s_idx, w_idx) in enumerate(kept)
            for c in range(m)
        )
        stats[method.name] = _horizon_stats(true, pred, corr, rmse, skipped)

    metadata = {"n_segments": split.n_segments, "omitted_methods": omitted,
                "provenance": dict(split.provenance)}
    return ForecastReport(horizon=horizon, protocol=protocol, stride=1, methods=stats,
                          records=records, metadata=metadata)


def _horizon_stats(true: np.ndarray, pred: np.ndarray, corr: np.ndarray, rmse: np.ndarray,
                   skipped: int) -> HorizonStats:
    """Pool one method's (windows, m, H) arrays per horizon step."""
    n, m, horizon = true.shape
    rmse_stats, corr_stats, corr_components = [], [], []
    for h in range(horizon):
        rmse_stats.append(metrics.median_and_se(rmse[:, :, h]))
        comp_corrs = np.array([
            metrics.pearson(true[:, c, h], pred[:, c, h]) if n >= 2 else math.nan
            for c in range(m)
        ])
        corr_stats.append(metrics.median_and_se(comp_corrs))
        corr_components.append(int(np.sum(np.isfinite(comp_corrs))))
    corr_median, corr_se = map(list, zip(*corr_stats))
    rmse_median, rmse_se = map(list, zip(*rmse_stats))
    undefined = int(np.sum(~np.isfinite(corr[:, :, 1:])))
    return HorizonStats(corr_median, corr_se, corr_components, rmse_median, rmse_se,
                        n, skipped, undefined)


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
        def entry(corpus: Corpus) -> dict:
            return {"count": len(corpus.series), "skipped": corpus.skipped,
                    "series": corpus.sources}

        return {
            "seed": self.seed,
            "noise_sigma": self.noise_sigma,
            "length": self.length,
            "simulated": entry(self.simulated),
            "noisy_real": entry(self.noisy_real),
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
    sds = [(metrics.std(f.states.x1, axis=0), metrics.std(f.states.x2, axis=0)) for f in fits]
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
    real_sds = [metrics.std(r, axis=0) for r in real_series]
    noisy = Corpus(series=[], sources=[])
    for idx in range(n_series):
        src = idx % len(real_series)
        base = real_series[src]
        noisy.series.append(base + rng.normal(size=base.shape) * noise_sigma * real_sds[src])
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
    for sub, corpus in (("vdp_sim", result.simulated), ("noisy_real", result.noisy_real)):
        (out / sub).mkdir(parents=True, exist_ok=True)
        for i, series in enumerate(corpus.series):
            save_csv(series, out / sub / f"series_{i:04d}.csv")
    (out / "manifest.json").write_text(json.dumps(result.manifest(), indent=2) + "\n")
