"""Stacked single-step constraints linking a whole trajectory to the Euler map.

A trajectory x^0..x^{N-1} is passed as one plain (N, 2m) stacked state whose
row k is x^k in the single-sample layout (`stack_states` builds it). Its
stacked constraint is

    G(x)[0]  = x^0 - anchor
    G(x)[k]  = x^k - g(x^{k-1})        k = 1..N-1

so G vanishes exactly on simulated trajectories whose first sample matches the
anchor: the batched map rounds every transition as `simulate` rounds it alone,
for any strides of the stacked state (see `model._euler_core`). The state
Jacobian dG/dx is block lower-bidiagonal with identity diagonal blocks, so
`residual_jacobian_x` returns only its (N-1, 2m, 2m) subdiagonal blocks. The
structure keeps Gauss-Newton normal systems block-tridiagonal: with b = 2m
they are banded with half-bandwidth 2b - 1 and are solved in O(N) by one
LAPACK banded Cholesky (`pbsv`, fetched once through
`scipy.linalg.get_lapack_funcs`).

G, dG/dx and dG/dparams evaluate all N-1 transitions in one call to the
batched dynamics of `model.py` (`euler_map`, `batch_state_jacobians`,
`batch_param_jacobians`), for any substep count. Every model kernel takes
stacked states, and each of the three is handed the one stacked-state view
[x1, x2] of the samples 0..N-2 of x (`_stacked`, no copy), so G's
transitions go through `model._euler_core`, the one Euler core behind
`rollout` and `simulate`. Each also takes S problems as an (S, N, 2m) stack
with S stacked parameter sets (and anchor states), one `VdpParams` (and one
`State`) with a leading axis of length S: its result's S slices are
bit-identical to the problems' own calls.
"""
from __future__ import annotations

import functools
from typing import Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from .model import (
    DimensionError,
    State,
    VdpParams,
    batch_param_jacobians,
    batch_state_jacobians,
    euler_map,
)

_pbsv = get_lapack_funcs("pbsv", dtype=np.float64)


def stack_states(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The (N, 2m) stacked state of (N, m) tracks: each row is one time sample,
    with component i at columns (2i, 2i+1) = (x1_i, x2_i), laid out by `State.to_flat`."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 2:
        raise DimensionError(f"x1/x2 must be equal (N, m) arrays, got {x1.shape} and {x2.shape}")
    return State(x1=x1, x2=x2).to_flat()


def _check_components(x: np.ndarray, params: VdpParams, anchor: Optional[State] = None) -> int:
    """m; raises unless x is (N, 2m), or (S, N, 2m) for S problems, and params
    (and the anchor) have x's leading shape and its m."""
    lead, m = x.shape[:-2], params.m
    if (x.ndim < 2 or x.shape[-1] != 2 * m or params.alpha.shape[:-2] != lead
            or (anchor is not None and anchor.x1.shape != lead + (m,))):
        anchored = "" if anchor is None else f" and anchor {anchor.x1.shape}"
        raise DimensionError(f"state {x.shape} does not match alpha {params.alpha.shape}{anchored}")
    return m


def residual(
    x: np.ndarray,
    params: VdpParams,
    anchor: State,
    dt: float,
    substeps: int = 1,
) -> np.ndarray:
    """G(x) - eta0 as a flat (2*m*N,) vector for the (N, 2m) stacked state x,
    with eta0 = [anchor, 0, ..., 0]; (S, 2*m*N) for S problems."""
    _check_components(x, params, anchor)
    out = np.empty(x.shape)
    np.subtract(x[..., 0, :], anchor.to_flat(), out[..., 0, :])
    s = _stacked(x)
    g = euler_map(params, s[..., :-1, :], dt, substeps)
    np.subtract(s[..., 1:, :], g, _stacked(out)[..., 1:, :])
    return out.reshape(x.shape[:-2] + (-1,))


def _stacked(x: np.ndarray) -> np.ndarray:
    """The (2, ..., N, m) stacked state [x1, x2] of (..., N, 2m) samples: a
    view wherever x's last axis is contiguous, as it is for a fresh array."""
    pairs = x.reshape(x.shape[:-1] + (-1, 2))
    return pairs.transpose(-1, *range(pairs.ndim - 1))


def residual_jacobian_x(x: np.ndarray, params: VdpParams, dt: float, substeps: int = 1
                        ) -> np.ndarray:
    """The (N-1, 2m, 2m) subdiagonal blocks of dG/dx at x; (S, N-1, 2m, 2m) for S problems.

    dG/dx is block lower-bidiagonal: every diagonal block is the identity, and
    block k, at block position (k+1, k), is -dg/dstate evaluated at x^k.
    """
    _check_components(x, params)
    return -batch_state_jacobians(params, _stacked(x)[..., :-1, :], dt, substeps)


def residual_jacobian_params(x: np.ndarray, params: VdpParams, dt: float, substeps: int = 1
                             ) -> np.ndarray:
    """dG/dparams at x, dense (2*m*N, 2m + m^2), or (S, 2*m*N, 2m + m^2) for S
    problems; the anchor block rows are zero.

    Columns follow VdpParams.to_vector: [a1 all, a2 all, W row-major].
    """
    m = _check_components(x, params)
    n, b = x.shape[-2:]
    out = np.zeros(x.shape + (b + m * m,))
    jp = batch_param_jacobians(params, _stacked(x)[..., :-1, :], dt, substeps)
    np.negative(jp, out=out[..., 1:, :, :])
    return out.reshape(x.shape[:-2] + (n * b, -1))


@functools.lru_cache(maxsize=None)
def _band_indices(b: int) -> tuple[np.ndarray, ...]:
    """Index arrays that scatter b x b blocks into LAPACK upper band storage.

    Entry (r, c) of block column k (rows (k-1)b .. (k+1)b-1, c < b) goes to
    band row b-1+r-c: the transposed sub block fills r < b, and the diagonal
    block's upper triangle (i, j), i <= j, fills band row 2b-1+i-j.
    """
    r, c = np.arange(b)[:, None], np.arange(b)
    i, j = np.triu_indices(b)
    out = (b - 1 + r - c, c, 2 * b - 1 + i - j, i, j)
    for a in out:
        a.setflags(write=False)
    return out


def solve_block_tridiagonal(
    diag: np.ndarray, sub: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a symmetric positive-definite block-tridiagonal system in O(N).

    diag: (N, b, b) diagonal blocks; sub: (N-1, b, b) blocks at (k+1, k); the
    (k, k+1) blocks are their transposes. rhs: (N, b), or (N, b, k) for k
    right-hand sides at once; the solution has rhs's shape. The upper
    triangles of the diagonal blocks and the whole transposed sub blocks are
    scattered straight into a (2b, N*b) LAPACK upper band (half-bandwidth
    u = 2b - 1), and one LAPACK pbsv call factors it by banded Cholesky and
    solves for every column. Non-finite input raises ValueError; a matrix
    that is not positive definite raises np.linalg.LinAlgError.
    """
    # the band holds only the upper triangles, so check whole blocks here
    diag = np.asarray_chkfinite(diag, dtype=float)
    sub = np.asarray_chkfinite(sub, dtype=float)
    rhs = np.asarray_chkfinite(rhs, dtype=float)
    n, b = rhs.shape[:2]
    sub_row, sub_col, diag_row, i, j = _band_indices(b)
    banded = np.zeros((2 * b, n, b))
    banded[sub_row, 1:, sub_col] = sub.transpose(2, 1, 0)
    banded[diag_row, :, j] = diag[:, i, j].T
    _, x, info = _pbsv(banded.reshape(2 * b, n * b), rhs.reshape(n * b, -1))
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite")
    return x.reshape(rhs.shape)
