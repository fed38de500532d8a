"""Stacked single-step constraints linking a whole trajectory to the Euler map.

For a trajectory x^0..x^{N-1} the stacked constraint is

    G(x)[0]  = x^0 - anchor
    G(x)[k]  = x^k - g(x^{k-1})        k = 1..N-1

so G vanishes exactly on simulated trajectories whose first sample matches the
anchor: the batched map rounds every transition as `simulate` rounds it alone,
for any strides of the stacked state (see `model._field_arrays`). The state
Jacobian dG/dx is block lower-bidiagonal with identity diagonal blocks, so
`residual_jacobian_x` returns only its (N-1, 2m, 2m) subdiagonal blocks. The
structure keeps Gauss-Newton normal systems block-tridiagonal: with b = 2m
they are banded with half-bandwidth 2b - 1 and are solved in O(N) by one
LAPACK banded Cholesky (`pbsv`, fetched once through
`scipy.linalg.get_lapack_funcs`).

G, dG/dx and dG/dparams evaluate all N-1 transitions in one call to the
batched dynamics core of `model.py` (`euler_map`, `batch_state_jacobians`,
`batch_param_jacobians`), for any substep count.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .model import (
    DimensionError,
    State,
    Trajectory,
    VdpParams,
    batch_param_jacobians,
    batch_state_jacobians,
    euler_map,
)

_pbsv = get_lapack_funcs("pbsv", dtype=np.float64)


@dataclass(frozen=True)
class StackedState:
    """All N samples of a trajectory as one flat vector of length 2*m*N.

    Time blocks are contiguous; within a block component i occupies
    (2i, 2i+1) = (x1_i, x2_i), matching the single-sample layout.
    """

    flat: np.ndarray
    m: int
    n_steps: int

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=float)
        if flat.shape != (2 * self.m * self.n_steps,):
            raise DimensionError(
                f"flat must have length {2 * self.m * self.n_steps}, got {flat.shape}"
            )
        if not np.all(np.isfinite(flat)):
            raise ValueError("stacked state must be finite")
        object.__setattr__(self, "flat", flat)

    @classmethod
    def from_arrays(cls, x1: np.ndarray, x2: np.ndarray) -> "StackedState":
        x1 = np.atleast_2d(np.asarray(x1, dtype=float))
        x2 = np.atleast_2d(np.asarray(x2, dtype=float))
        if x1.shape != x2.shape:
            raise DimensionError(f"x1/x2 shape mismatch: {x1.shape} vs {x2.shape}")
        n, m = x1.shape
        blocks = np.empty((n, 2 * m))
        blocks[:, 0::2] = x1
        blocks[:, 1::2] = x2
        return cls(flat=blocks.ravel(), m=m, n_steps=n)

    @classmethod
    def from_trajectory(cls, traj: Trajectory) -> "StackedState":
        return cls.from_arrays(traj.x1, traj.x2)

    def blocks(self) -> np.ndarray:
        """View as (N, 2m) time blocks."""
        return self.flat.reshape(self.n_steps, 2 * self.m)

    def x1(self) -> np.ndarray:
        return self.blocks()[:, 0::2]

    def x2(self) -> np.ndarray:
        return self.blocks()[:, 1::2]

    def state(self, k: int) -> State:
        block = self.blocks()[k]
        return State(x1=block[0::2].copy(), x2=block[1::2].copy())

    def to_trajectory(self, dt: float) -> Trajectory:
        return Trajectory(x1=self.x1().copy(), x2=self.x2().copy(), dt=dt)

    def replace_flat(self, flat: np.ndarray) -> "StackedState":
        return StackedState(flat=flat, m=self.m, n_steps=self.n_steps)


def residual(
    x: StackedState,
    params: VdpParams,
    anchor: State,
    dt: float,
    substeps: int = 1,
) -> np.ndarray:
    """G(x) - eta0 as a flat (2*m*N,) vector, with eta0 = [anchor, 0, ..., 0]."""
    if x.m != params.m or anchor.m != params.m:
        raise DimensionError("component count mismatch between state, params, anchor")
    x1 = x.x1()
    x2 = x.x2()
    g1, g2 = euler_map(params, x1[:-1], x2[:-1], dt, substeps)
    out = np.empty((x.n_steps, 2 * x.m))
    out[0, 0::2] = x1[0] - anchor.x1
    out[0, 1::2] = x2[0] - anchor.x2
    out[1:, 0::2] = x1[1:] - g1
    out[1:, 1::2] = x2[1:] - g2
    return out.ravel()


def residual_jacobian_x(
    x: StackedState, params: VdpParams, dt: float, substeps: int = 1
) -> np.ndarray:
    """The (N-1, 2m, 2m) subdiagonal blocks of dG/dx at x.

    dG/dx is block lower-bidiagonal: every diagonal block is the identity, and
    block k, at block position (k+1, k), is -dg/dstate evaluated at x^k.
    """
    if x.m != params.m:
        raise DimensionError("component count mismatch between state and params")
    x1 = x.x1()
    x2 = x.x2()
    return -batch_state_jacobians(params, x1[:-1], x2[:-1], dt, substeps)


def residual_jacobian_params(
    x: StackedState, params: VdpParams, dt: float, substeps: int = 1
) -> np.ndarray:
    """dG/dparams at x, dense (2*m*N, 2m + m^2); the anchor block rows are zero.

    Columns follow VdpParams.to_vector: [a1 all, a2 all, W row-major].
    """
    if x.m != params.m:
        raise DimensionError("component count mismatch between state and params")
    x1 = x.x1()
    x2 = x.x2()
    n, m = x1.shape
    p = 2 * m + m * m
    out = np.zeros((n, 2 * m, p))
    out[1:] = -batch_param_jacobians(params, x1[:-1], x2[:-1], dt, substeps)
    return out.reshape(n * 2 * m, p)


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
