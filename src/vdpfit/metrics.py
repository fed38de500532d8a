"""Correlation and goodness-of-fit helpers shared by the fitting and forecasting code."""
from __future__ import annotations

import math

import numpy as np

from .model import DimensionError


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two 1-d arrays.

    Returns NaN when either input has zero variance or fewer than two
    samples, so callers can decide how degenerate tracks are handled.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        return math.nan
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0 or not math.isfinite(denom):
        return math.nan
    return float(da @ db) / denom


def r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot of `predicted` against `observed`.

    NaN when the observed track has zero variance (SS_tot = 0).
    """
    observed = np.asarray(observed, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if observed.size != predicted.size:
        raise ValueError(f"length mismatch: {observed.size} vs {predicted.size}")
    resid = observed - predicted
    ss_res = float(resid @ resid)
    centered = observed - observed.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0 or not math.isfinite(ss_tot):
        return math.nan
    return 1.0 - ss_res / ss_tot


def component_scores(
    observed: np.ndarray, simulated: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (pearson, r_squared) arrays of (n, m) tracks; NaN marks undefined entries."""
    observed = np.atleast_2d(observed)
    simulated = np.atleast_2d(simulated)
    if observed.shape != simulated.shape:
        raise DimensionError(f"observed {observed.shape} vs simulated {simulated.shape} tracks")
    cols = range(observed.shape[1])
    c = np.array([pearson(observed[:, i], simulated[:, i]) for i in cols], dtype=float)
    r2 = np.array([r_squared(observed[:, i], simulated[:, i]) for i in cols], dtype=float)
    return c, r2


def std(values: np.ndarray, axis: int) -> np.ndarray:
    """`np.std` along `axis`, without overflow for any finite input.

    Each slice is divided by a power of two near its peak magnitude before
    squaring and scaled back after; power-of-two scaling is exact, so inputs
    clear of the subnormal range give `np.std`'s bits.
    """
    _, exp = np.frexp(np.max(np.abs(values), axis=axis, keepdims=True))
    return np.ldexp(np.ldexp(values, -exp).std(axis=axis), exp.squeeze(axis))


def median_and_se(values: np.ndarray) -> tuple[float, float]:
    """Median of the finite entries plus the sigma/sqrt(n) standard error of the median.

    Returns (nan, nan) when no finite entries remain.
    """
    values = np.asarray(values, dtype=float).ravel()
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return math.nan, math.nan
    med = float(np.median(finite))
    se = float(np.std(finite) / math.sqrt(finite.size))
    return med, se
