"""Correlation and goodness-of-fit helpers shared by the fitting and forecasting code."""
from __future__ import annotations

import functools
import math

import numpy as np

from .model import DimensionError


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two 1-d arrays, by `component_scores`.

    Returns NaN when either input has zero variance or fewer than two
    samples, so callers can decide how degenerate tracks are handled.
    Inputs of unequal lengths raise DimensionError (a ValueError).
    """
    return float(component_scores(np.ravel(a)[:, None], np.ravel(b)[:, None])[0][0])


def scale_exponent(*arrays: np.ndarray, axis: int) -> np.ndarray:
    """The binary exponent of the peak magnitude along `axis` over `arrays`
    (broadcast together, axis kept): `np.ldexp(a, -exp)` brings every entry to
    |x| <= 1, so squares and their sums cannot overflow. Power-of-two scaling
    is exact, so entries clear of the subnormal range keep their bits up to
    that factor. Non-finite peaks give 0, which leaves their slices as they are.
    """
    peaks = [np.max(np.abs(a), axis=axis, keepdims=True) for a in arrays]
    return np.frexp(functools.reduce(np.maximum, peaks))[1]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis. Each is one BLAS ddot, as a 1-d `a @ b`
    is, so on contiguous rows each rounds exactly as that 1-d product."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def component_scores(
    observed: np.ndarray, simulated: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-component (pearson, r_squared) of simulated tracks against observed
    ones, each (..., N, m) with leading axes that broadcast (a stack of
    simulations against one (N, m) observation, say): two (..., m) arrays.

    NaN marks undefined entries (a zero-variance track, fewer than two
    samples, a non-finite value), with no floating-point warning. Each track is
    scaled by a power of two before its sums (`scale_exponent`; observed and
    simulated share one scale in R^2), so finite tracks of any magnitude score
    without overflow. Every score has the bits of the 1-d formula on that
    column alone: time runs along a contiguous last axis, where a mean is
    numpy's pairwise sum of the row and a dot product one BLAS ddot.
    """
    observed = np.atleast_2d(np.asarray(observed, dtype=float))
    simulated = np.atleast_2d(np.asarray(simulated, dtype=float))
    if observed.shape[-2:] != simulated.shape[-2:]:
        raise DimensionError(f"observed {observed.shape} vs simulated {simulated.shape} tracks")
    # (2, ..., m, N): observed, then simulated, time last and contiguous
    *lead, n, m = np.broadcast_shapes(observed.shape, simulated.shape)
    x = np.empty((2, *lead, m, n))
    xt = np.swapaxes(x, -1, -2)
    xt[0], xt[1] = observed, simulated
    if x.shape[-1] < 2:
        undefined = np.full(x.shape[1:-1], math.nan)
        return undefined, undefined.copy()
    with np.errstate(all="ignore"):
        exp = scale_exponent(x, axis=-1)
        d = np.ldexp(x, -exp)
        d -= d.mean(axis=-1, keepdims=True)
        ss = _dots(d, d)
        # a zero sum of squares means all-zero deviations, so 0/0; a non-finite
        # value makes its row of d NaN
        c = _dots(d[0], d[1]) / np.sqrt(ss[0] * ss[1])
        shared = exp.max(axis=0)
        resid = np.subtract(*np.ldexp(x, -shared))
        ss_tot = np.ldexp(ss[0], 2 * (exp[0] - shared)[..., 0])
        r2 = np.where(ss_tot == 0.0, math.nan, 1.0 - _dots(resid, resid) / ss_tot)
    return c, r2


def std(values: np.ndarray, axis: int) -> np.ndarray:
    """`np.std` along `axis`, without overflow for any finite input.

    Each slice is divided by a power of two near its peak magnitude before
    squaring and scaled back after (`scale_exponent`), so inputs clear of the
    subnormal range give `np.std`'s bits.
    """
    exp = scale_exponent(values, axis=axis)
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
    se = float(std(finite, axis=0) / math.sqrt(finite.size))
    return med, se
