"""Data ingestion, SVD preprocessing, segment layout, and connectivity maps.

Raw recordings arrive as P x T matrices (spatial locations by time). The
modeled time series are truncated-SVD temporal components of the row-centered
matrix, carrying sigma_i * v_i so that component amplitudes reflect their
energy; a single scalar (the mean of the component standard deviations)
normalizes all temporal rows at once. Fitted coupling matrices project back to
pixel space through outer products of the spatial components scaled by
sqrt(sigma_i * sigma_j).

Recordings are parsed by np.loadtxt after the header; any file it rejects is
parsed again token by token, so malformed input keeps its located
CsvFormatError. The top m singular triplets come from the m largest
eigenpairs of the smaller-side Gram matrix, with the full SVD as the fallback
when m is more than half of min(P, T), sigma_m / sigma_1 <= 1e-4 (the Gram
matrix squares the condition number) or the Gram matrix overflows.
"""
from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np
import scipy.linalg

from . import metrics
from .model import DimensionError


class CsvFormatError(ValueError):
    """Malformed CSV input; the message carries the offending location."""


@dataclass(frozen=True)
class SvdComponents:
    """Truncated SVD of the row-centered data.

    temporal rows are sigma_i * v_i (scaled right singular vectors), spatial
    rows are the left singular vectors; norm_scale records the scalar divisor
    applied by normalize_components (1.0 when unnormalized).
    """

    temporal: np.ndarray
    spatial: np.ndarray
    singular_values: np.ndarray
    norm_scale: float = 1.0

    def __post_init__(self):
        temporal = np.atleast_2d(np.asarray(self.temporal, dtype=float))
        spatial = np.atleast_2d(np.asarray(self.spatial, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.singular_values, dtype=float))
        m = temporal.shape[0]
        if spatial.shape[0] != m or sigma.shape != (m,):
            raise DimensionError("temporal/spatial/singular_values row counts differ")
        if np.any(sigma < 0) or np.any(np.diff(sigma) > 1e-12):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        object.__setattr__(self, "temporal", temporal)
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "singular_values", sigma)

    @property
    def m(self) -> int:
        return self.temporal.shape[0]

    @property
    def n_samples(self) -> int:
        return self.temporal.shape[1]


@dataclass(frozen=True)
class Segment:
    train: tuple[int, int]  # half-open [start, stop)
    test: tuple[int, int]


@dataclass(frozen=True)
class SegmentSplit:
    segments: tuple[Segment, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        prev_end = -1
        for seg in self.segments:
            t0, t1 = seg.train
            s0, s1 = seg.test
            if not (t0 < t1 <= s0 < s1):
                raise ValueError(f"segment ranges out of order: {seg}")
            if t0 <= prev_end:
                raise ValueError("segments overlap or are unordered")
            prev_end = s1 - 1

    @property
    def n_segments(self) -> int:
        return len(self.segments)


def _parse_float(token: str, row: int, col: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise CsvFormatError(
            f"non-numeric value {token!r} at row {row}, column {col}"
        ) from None


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _is_header(tokens: list[str]) -> bool:
    return not any(map(_is_number, tokens))


def load_csv(path: str | Path, layout: str = "rows=space") -> np.ndarray:
    """Read a comma-separated matrix as a finite (P, T) array; `layout` says
    what the file's rows mean.

    layout="rows=space" keeps the file as-is; layout="rows=time" transposes so
    rows of the result are again spatial locations. A first row none of whose
    tokens parses as a number is a header and is skipped; a first row with both
    kinds of token is data, so its first non-numeric token is an error. Blank
    lines are skipped and tokens are stripped of surrounding whitespace. A
    ragged row raises CsvFormatError naming its file line and data row; a
    non-numeric or non-finite value (nan, inf, 1e400) raises CsvFormatError
    naming its row and column (1-based, counting data rows, in the file's own
    orientation). A token longer than csv.field_size_limit() characters raises
    CsvFormatError naming its file line.
    """
    if layout not in ("rows=space", "rows=time"):
        raise ValueError(f"layout must be 'rows=space' or 'rows=time', got {layout!r}")
    path = Path(path)
    values = _loadtxt(path)
    if values is None:
        values = _parse_exact(path)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        raise CsvFormatError(f"non-finite value {values[r, c]} at row {r + 1}, column {c + 1}")
    return values.T if layout == "rows=time" else values


def _records(fh) -> Iterator[tuple[int, list[str]]]:
    """(file line, stripped tokens) of each CSV record. csv's own errors (a
    field past csv.field_size_limit()) become a CsvFormatError naming the line."""
    reader = csv.reader(fh)
    try:
        for record in reader:
            yield reader.line_num, [tok.strip() for tok in record]
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None


def _loadtxt(path: Path) -> Optional[np.ndarray]:
    """The data rows parsed by np.loadtxt, or None when it rejects the file
    (quotes, `1_000`, a ragged row, whitespace-only lines, no data rows...)
    or holds a token longer than csv.field_size_limit(), which np.loadtxt
    would accept."""
    limit = csv.field_size_limit()
    with path.open("rb") as fh:  # bytes >= characters, so this never misses one
        if any(len(line) > limit and max(map(len, line.rstrip(b"\r\n").split(b","))) > limit
               for line in fh):
            return None
    skip, width = 0, None
    with path.open(newline="") as fh:
        for line_no, tokens in _records(fh):
            if not any(tokens):
                skip = line_no
                continue
            if _is_header(tokens):
                skip, width = line_no, len(tokens)
            break
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            values = np.loadtxt(path, delimiter=",", comments=None, quotechar=None,
                                ndmin=2, skiprows=skip)
    except (ValueError, UserWarning):
        return None
    return values if width in (None, values.shape[1]) else None


def _parse_exact(path: Path) -> np.ndarray:
    """Parse token by token, raising CsvFormatError at the first fault."""
    rows: list[list[float]] = []
    width = None
    with path.open(newline="") as fh:
        for line_no, tokens in _records(fh):
            if not any(tokens):
                continue
            row = len(rows) + 1
            if width is None:
                width = len(tokens)
                if _is_header(tokens):
                    continue
            elif len(tokens) != width:
                raise CsvFormatError(
                    f"line {line_no} (row {row}): expected {width} fields, got {len(tokens)}"
                )
            rows.append([_parse_float(tok, row, c + 1) for c, tok in enumerate(tokens)])
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def save_csv(values: np.ndarray, path: str | Path):
    """Write a matrix with 17-significant-digit floats (round-trip exact)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    rows, cols = values.shape
    row_format = ",".join(["%.17g"] * cols) + "\n"
    Path(path).write_text((row_format * rows) % tuple(values.ravel().tolist()), newline="")


# The Gram route squares the condition number: sigma_m's relative error is
# about eps * (sigma_1 / sigma_m)^2, so below this ratio take the full SVD.
_GRAM_MIN_RATIO = 1e-4


def _top_singular_triplets(centered: np.ndarray, m: int):
    """(u (m, P), sigma (m,), vt (m, T)) of the m largest singular values."""
    p, t = centered.shape
    k = min(p, t)
    if 2 * m <= k:
        tall = centered if p >= t else centered.T  # (max(P, T), k)
        # entries past ~1e154 overflow the Gram matrix; the full SVD takes those
        with np.errstate(over="ignore", invalid="ignore"):
            gram = tall.T @ tall
        if np.isfinite(gram).all():
            w, v = scipy.linalg.eigh(gram, subset_by_index=[k - m, k - 1])
            sigma = np.sqrt(np.maximum(w[::-1], 0.0))
            if sigma[-1] > _GRAM_MIN_RATIO * sigma[0]:
                v = v[:, ::-1].T  # (m, k)
                u = (v @ tall.T) / sigma[:, None]
                return (u, sigma, v) if p >= t else (v, sigma, u)
    u, sigma, vt = np.linalg.svd(centered, full_matrices=False)
    return u[:, :m].T, sigma[:m], vt[:m]


def svd_components(values: np.ndarray, m: int) -> SvdComponents:
    """Rank-m truncated SVD of the row-centered (P, T) matrix.

    Temporal rows carry sigma_i * v_i; each spatial component is flipped (with
    its temporal partner) so its largest-magnitude entry is positive. Values
    whose centering or largest singular value overflows raise ValueError.
    """
    p, t = values.shape
    if not 1 <= m <= min(p, t):
        raise ValueError(f"m must be in [1, {min(p, t)}] for a {p}x{t} matrix, got {m}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = values - values.mean(axis=1, keepdims=True)
    overflowed = ~np.isfinite(centered).all(axis=1)
    if overflowed.any():
        raise ValueError(f"values too large to decompose: centering location "
                         f"{np.argmax(overflowed) + 1} overflows")
    u, sigma, vt = _top_singular_triplets(centered, m)
    if not math.isfinite(sigma[0]):
        raise ValueError("values too large to decompose: the largest singular value overflows")
    largest = u[np.arange(m), np.argmax(np.abs(u), axis=1)]
    sign = np.where(largest < 0, -1.0, 1.0)[:, None]
    return SvdComponents(temporal=sigma[:, None] * (sign * vt), spatial=sign * u,
                         singular_values=sigma)


def normalize_components(comps: SvdComponents) -> SvdComponents:
    """Divide every temporal row by the mean of the per-component stds.

    The scalar accumulates into norm_scale so the original scale can be
    restored; renormalizing an already normalized result is a no-op up to
    floating point.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        scale = float(metrics.std(comps.temporal, axis=1).mean())
    if scale == 0.0 or not math.isfinite(scale):
        raise ValueError(f"mean of component standard deviations is {scale}; cannot normalize")
    return SvdComponents(
        temporal=comps.temporal / scale,
        spatial=comps.spatial,
        singular_values=comps.singular_values,
        norm_scale=comps.norm_scale * scale,
    )


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    weight: float
    polarity: str  # "excitatory" | "inhibitory"


# Entries of F formed at once: every P <= 4096 is a single block, one matmul.
_BLOCK_ENTRIES = 4096 * 4096


def _top_entries(mag, tgt, src, k):
    """The first k of (mag, tgt, src) ordered by (-mag, tgt, src)."""
    if mag.size > k:
        keep = mag >= np.partition(mag, mag.size - k)[mag.size - k]
        mag, tgt, src = mag[keep], tgt[keep], src[keep]
    order = np.lexsort((src, tgt, -mag))[:k]
    return mag[order], tgt[order], src[order]


def connectivity_projection(
    spatial: np.ndarray,
    singular_values: np.ndarray,
    w_models: Sequence[np.ndarray],
    top_k: int,
) -> list[Edge]:
    """Project summed coupling matrices to pixel-to-pixel edges.

    The pixel weight matrix is F = S' (sum W) S with S = diag(sqrt(sigma)) @
    spatial, so F[p, q] is the net strength of the directed connection q -> p.
    Returns the top_k strictly positive entries as excitatory edges (weight
    descending) followed by the top_k strictly negative entries as inhibitory
    edges (weight ascending). Equal weights order by (target, source)
    ascending, and a cut through such a tie keeps the first of them in that
    order. F is formed in row blocks of at most _BLOCK_ENTRIES entries (whole
    for P <= 4096); each block's candidates merge with the best top_k so far.
    """
    spatial = np.atleast_2d(np.asarray(spatial, dtype=float))
    sigma = np.atleast_1d(np.asarray(singular_values, dtype=float))
    m, p = spatial.shape
    if sigma.shape != (m,):
        raise DimensionError("singular_values must have one entry per spatial row")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if not w_models:
        raise ValueError("need at least one coupling matrix")
    w_sum = np.zeros((m, m))
    for w in w_models:
        w = np.asarray(w, dtype=float)
        if w.shape != (m, m):
            raise DimensionError(f"coupling matrix shape {w.shape}, expected {(m, m)}")
        w_sum = w_sum + w
    scaled = np.sqrt(sigma)[:, None] * spatial  # (m, P)
    left = scaled.T @ w_sum  # (P, m); rows = target pixels

    empty = (np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    best = {1.0: empty, -1.0: empty}  # sign -> (|weight|, target, source)
    rows = max(1, _BLOCK_ENTRIES // max(p, 1))
    for start in range(0, p, rows):
        block = left[start : start + rows] @ scaled  # (rows, P)
        for sign in best:
            mag, tgt, src = best[sign]
            signed = sign * block
            t, s = np.nonzero(signed > 0)
            best[sign] = _top_entries(
                np.concatenate([mag, signed[t, s]]),
                np.concatenate([tgt, t + start]),
                np.concatenate([src, s]),
                top_k,
            )
    return [
        Edge(source=s, target=t, weight=sign * w, polarity=polarity)
        for sign, polarity in ((1.0, "excitatory"), (-1.0, "inhibitory"))
        for w, t, s in zip(*(a.tolist() for a in best[sign]))
    ]


def save_edges(edges: Sequence[Edge], path: str | Path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight", "polarity"])
        for e in edges:
            writer.writerow([e.source, e.target, format(e.weight, ".17g"), e.polarity])


def split_segments(t: int, train_len: int, test_len: int, n_segments: int) -> SegmentSplit:
    """Contiguous non-overlapping (train, test) pairs laid end to end from t=0
    over t samples."""
    if train_len < 1 or test_len < 1 or n_segments < 1:
        raise ValueError("train_len, test_len, n_segments must all be >= 1")
    needed = n_segments * (train_len + test_len)
    if needed > t:
        raise ValueError(
            f"need {needed} samples for {n_segments} x ({train_len}+{test_len}) segments, have {t}"
        )
    segments = []
    for s in range(n_segments):
        off = s * (train_len + test_len)
        segments.append(
            Segment(train=(off, off + train_len), test=(off + train_len, off + train_len + test_len))
        )
    return SegmentSplit(
        segments=tuple(segments),
        provenance={"train_len": train_len, "test_len": test_len, "n_segments": n_segments},
    )


def save_components(comps: SvdComponents, out_dir: str | Path, extra_meta: Optional[dict] = None):
    """Persist as a directory of temporal.csv, spatial.csv, sigma.csv, meta.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(comps.temporal, out / "temporal.csv")
    save_csv(comps.spatial, out / "spatial.csv")
    save_csv(comps.singular_values[None, :], out / "sigma.csv")
    meta = {
        "m": comps.m,
        "n_samples": comps.n_samples,
        "n_locations": comps.spatial.shape[1],
        "norm_scale": comps.norm_scale,
    }
    if extra_meta:
        meta.update(extra_meta)
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_components(in_dir: str | Path) -> SvdComponents:
    """Read a `save_components` directory; meta.json must be a JSON object whose
    optional norm_scale (default 1.0) is a finite positive number."""
    src = Path(in_dir)
    temporal = load_csv(src / "temporal.csv")
    spatial = load_csv(src / "spatial.csv")
    sigma = load_csv(src / "sigma.csv").ravel()
    meta_path = src / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:  # also undecodable bytes
        raise ValueError(f"{meta_path}: not valid JSON ({exc})")
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: top level must be a JSON object")
    scale = meta.get("norm_scale", 1.0)
    if type(scale) not in (int, float) or not 0 < scale <= sys.float_info.max:
        raise ValueError(f"{meta_path}: norm_scale must be a finite positive number, "
                         f"got {scale!r}")
    return SvdComponents(
        temporal=temporal, spatial=spatial, singular_values=sigma, norm_scale=float(scale)
    )
