"""Coupled van der Pol dynamics: vector field, Euler stepping, and step Jacobians.

Each component i carries an observed activity variable x1_i and a hidden
excitability variable x2_i:

    dx1_i/dt = a1_i * x1_i * (1 - x1_i^2) + a2_i * x2_i + sum_j W_ij * x1_j
    dx2_i/dt = -x1_i

Discrete trajectories use the explicit Euler map g(s) = s + dt * f(s), with an
optional substep count for stiff parameter regimes (dt/n applied n times).

One batched core over (K, m) state arrays holds the whole map: the vector
field, one Euler substep (`euler_map`), the one-substep state and parameter
Jacobians, and one loop chaining them through the substeps. `step`, the
batched `rollout` behind `simulate`, the batch Jacobians and the single-state
`jacobians` call it, as do the stacked constraints in `constraints.py`.
`VdpParams` and `State` take an optional leading problem axis: S parameter
sets stack to (S, m, 2) gains and an (S, m, m) coupling, and S states to
(S, m) tracks. The core broadcasts them against (S, m) or (S, K, m) states,
so one `rollout` can integrate K candidates with K different parameters.

Flat state vectors interleave the two variables per component: component i of
a single time sample occupies slots (2i, 2i+1) = (x1_i, x2_i).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

DIVERGENCE_LIMIT = 1e6


class DimensionError(ValueError):
    """Shape disagreement between parameters, states, or observations."""


class SimulationDiverged(RuntimeError):
    """Raised when a simulated state leaves the divergence guard box."""

    def __init__(self, step: int, limit: float):
        self.step = step
        super().__init__(f"state magnitude exceeded {limit:g} at step {step}")


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")


def _problems_at(item, idx):
    """The problems at `idx` of stacked `VdpParams` or `State`: slices of its
    arrays, which were checked already, so `__post_init__` is not run again."""
    out = object.__new__(type(item))
    for name, arr in vars(item).items():
        object.__setattr__(out, name, arr[idx])
    return out


@dataclass(frozen=True)
class VdpParams:
    """Oscillator parameters: per-component gains `alpha` (m x 2 rows of
    (a1_i, a2_i)) and the coupling matrix `coupling` (m x m, row i = inputs
    into component i). Leading problem axes stack several parameter sets of
    one size: alpha (..., m, 2) and coupling (..., m, m)."""

    alpha: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        coupling = np.atleast_2d(np.asarray(self.coupling, dtype=float))
        if alpha.shape[-1] != 2:
            raise DimensionError(f"alpha must be (..., m, 2), got {alpha.shape}")
        want = alpha.shape[:-1] + (alpha.shape[-2],)
        if coupling.shape != want:
            raise DimensionError(f"coupling must be {want} to match alpha, got {coupling.shape}")
        _check_finite(alpha, "alpha")
        _check_finite(coupling, "coupling")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "coupling", coupling)

    @property
    def m(self) -> int:
        return self.alpha.shape[-2]

    __getitem__ = _problems_at

    @classmethod
    def stack(cls, items: Sequence["VdpParams"]) -> "VdpParams":
        """Parameter sets of one size stacked along a new leading problem axis."""
        return cls(alpha=np.array([p.alpha for p in items]),
                   coupling=np.array([p.coupling for p in items]))

    def to_vector(self) -> np.ndarray:
        """Flatten as [a1_1..a1_m, a2_1..a2_m, W row-major], one row per problem."""
        lead = self.alpha.shape[:-2]
        return np.concatenate(
            [self.alpha[..., 0], self.alpha[..., 1], self.coupling.reshape(lead + (-1,))],
            axis=-1,
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray, m: int) -> "VdpParams":
        """The parameters of `to_vector` rows: vec is (P,), or (..., P) for a stack."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim == 0 or vec.shape[-1] != 2 * m + m * m:
            raise DimensionError(f"expected {2 * m + m * m} entries, got {vec.shape}")
        alpha = np.stack([vec[..., :m], vec[..., m : 2 * m]], axis=-1)
        coupling = vec[..., 2 * m :].reshape(vec.shape[:-1] + (m, m))
        return cls(alpha=alpha, coupling=coupling)


@dataclass(frozen=True)
class State:
    """One time sample: activity `x1` and hidden excitability `x2`, each (m,);
    leading problem axes stack several samples of one size, (..., m)."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        x1 = np.atleast_1d(np.asarray(self.x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(self.x2, dtype=float))
        if x1.shape != x2.shape:
            raise DimensionError(f"x1/x2 must have equal shapes, got {x1.shape} and {x2.shape}")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def m(self) -> int:
        return self.x1.shape[-1]

    __getitem__ = _problems_at

    def to_flat(self) -> np.ndarray:
        """Interleave as [x1_1, x2_1, x1_2, x2_2, ...], one row per problem."""
        out = np.empty(self.x1.shape[:-1] + (2 * self.m,))
        out[..., 0::2] = self.x1
        out[..., 1::2] = self.x2
        return out

    @classmethod
    def from_flat(cls, flat: np.ndarray) -> "State":
        flat = np.asarray(flat, dtype=float)
        if flat.ndim == 0 or flat.shape[-1] % 2:
            raise DimensionError(f"flat state must have even length, got {flat.shape}")
        return cls(x1=flat[..., 0::2].copy(), x2=flat[..., 1::2].copy())


@dataclass(frozen=True)
class Trajectory:
    """N consecutive samples on a uniform grid: `x1` and `x2` are (N, m), plus dt."""

    x1: np.ndarray
    x2: np.ndarray
    dt: float

    def __post_init__(self):
        x1 = np.atleast_2d(np.asarray(self.x1, dtype=float))
        x2 = np.atleast_2d(np.asarray(self.x2, dtype=float))
        if x1.shape != x2.shape:
            raise DimensionError(f"x1/x2 shape mismatch: {x1.shape} vs {x2.shape}")
        if x1.shape[0] < 2:
            raise ValueError("a trajectory needs at least 2 samples")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def n_steps(self) -> int:
        return self.x1.shape[0]

    @property
    def m(self) -> int:
        return self.x1.shape[1]

    def state(self, k: int) -> State:
        return State(x1=self.x1[k].copy(), x2=self.x2[k].copy())


def _check_components(params: VdpParams, s: State) -> None:
    if s.m != params.m:
        raise DimensionError(f"state has {s.m} components, params have {params.m}")


def _substep_size(dt: float, substeps: int) -> float:
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    return dt / substeps


def _field_arrays(
    alpha: np.ndarray, coupling: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field on raw arrays; x1/x2 may be (m,) or batched (..., m), and
    alpha/coupling either shared, (m, 2) and (m, m), or one per trajectory,
    (..., m, 2) and (..., m, m).

    The coupling sum W x1 is an elementwise product reduced over a fresh
    contiguous axis, not a BLAS matmul: its summation order then depends on m
    only, so each row of a batch rounds exactly as the same state alone, for
    any batch size, any input strides and shared or per-trajectory parameters.
    """
    coupled = (x1[..., None, :] * coupling).sum(axis=-1)
    dx1 = alpha[..., 0] * x1 * (1.0 - x1 * x1) + alpha[..., 1] * x2 + coupled
    return dx1, -x1


def _param_arrays(params: VdpParams, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, coupling) to broadcast against (..., m) states x1 that lead with
    params' problem axes: where x1 has a time axis after them, so do they."""
    if x1.ndim == params.alpha.ndim - 1:
        return params.alpha, params.coupling
    return params.alpha[..., None, :, :], params.coupling[..., None, :, :]


def _euler_arrays(
    alpha: np.ndarray,
    coupling: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    h: float,
    substeps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """`substeps` Euler substeps s + h * f(s) on raw arrays (see `_field_arrays`)."""
    for _ in range(substeps):
        dx1, dx2 = _field_arrays(alpha, coupling, x1, x2)
        x1, x2 = x1 + h * dx1, x2 + h * dx2
    return x1, x2


def euler_map(
    params: VdpParams, x1: np.ndarray, x2: np.ndarray, dt: float, substeps: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The sample map g on raw arrays: `substeps` Euler substeps s + h * f(s)
    with h = dt / substeps. x1/x2 may be (m,) or batched (K, m), or (S, m) or
    (S, K, m) for S stacked params."""
    h = _substep_size(dt, substeps)
    return _euler_arrays(*_param_arrays(params, x1), x1, x2, h, substeps)


def _substep_state_jacobian(alpha: np.ndarray, coupling: np.ndarray, x1: np.ndarray,
                            h: float) -> np.ndarray:
    """d/dstate of one substep s + h * f(s) at (..., K, m) states: (..., K, 2m, 2m)."""
    m = x1.shape[-1]
    lead = x1.shape[:-1]
    out = np.zeros(lead + (2 * m, 2 * m))
    # views of out: blocks[..., i, a, j, c] is entry (2i + a, 2j + c), and
    # own[..., 2m * a + c :: step] runs over the entries (2i + a, 2i + c)
    blocks = out.reshape(lead + (m, 2, m, 2))
    own = out.reshape(lead + (4 * m * m,))
    step = 4 * m + 2
    # dx1_i rows: coupling row, self term, excitability term
    blocks[..., :, 0, :, 0] = h * coupling
    own[..., 0::step] += 1.0 + h * alpha[..., 0] * (1.0 - 3.0 * x1 * x1)
    own[..., 1::step] = h * alpha[..., 1]
    # dx2_i rows
    own[..., 2 * m::step] = -h
    own[..., 2 * m + 1::step] = 1.0
    return out


def _substep_param_jacobian(x1: np.ndarray, x2: np.ndarray, h: float) -> np.ndarray:
    """d/dparams of one substep at (..., K, m) states: (..., K, 2m, 2m + m^2)."""
    m = x1.shape[-1]
    p = 2 * m + m * m
    out = np.zeros(x1.shape[:-1] + (2 * m, p))
    # a flat view: entry (2i, c) is own[..., 2i*p + c], so each strided slice below
    # holds one entry per row x1_i: (2i, i), (2i, m + i) and (2i, 2m + m*i + j)
    own = out.reshape(x1.shape[:-1] + (2 * m * p,))
    own[..., 0::2 * p + 1] = h * x1 * (1.0 - x1 * x1)
    own[..., m::2 * p + 1] = h * x2
    for j in range(m):  # row x1_i carries h * x1_j under W[i, j]
        own[..., 2 * m + j::2 * p + m] = (h * x1[..., j])[..., None]
    return out


def _chained_jacobians(
    params: VdpParams,
    x1: np.ndarray,
    x2: np.ndarray,
    dt: float,
    substeps: int,
    want_state: bool,
    want_params: bool,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """dg/dstate and dg/dparams at K states (x1/x2 are (K, m), or (S, K, m)
    for S stacked params), chained through the substeps: J <- J_sub J,
    P <- J_sub P + P_sub, with each substep's Jacobians taken at its own
    intermediate state. Only the
    requested ones are built (None otherwise); at substeps=1 the parameter
    Jacobian needs no state Jacobian."""
    h = _substep_size(dt, substeps)
    alpha, coupling = _param_arrays(params, x1)
    jx = _substep_state_jacobian(alpha, coupling, x1, h) if want_state else None
    jp = _substep_param_jacobian(x1, x2, h) if want_params else None
    for _ in range(substeps - 1):
        x1, x2 = _euler_arrays(alpha, coupling, x1, x2, h, 1)
        j_sub = _substep_state_jacobian(alpha, coupling, x1, h)
        if want_state:
            jx = j_sub @ jx
        if want_params:
            jp = j_sub @ jp + _substep_param_jacobian(x1, x2, h)
    return jx, jp


def step(params: VdpParams, s: State, dt: float, substeps: int = 1) -> State:
    """One explicit Euler sample: s + dt * f(s), optionally split into substeps."""
    _check_components(params, s)
    x1, x2 = euler_map(params, s.x1, s.x2, dt, substeps)
    return State(x1=x1, x2=x2)


def rollout(
    params: VdpParams,
    x1: np.ndarray,
    x2: np.ndarray,
    n_steps: int,
    dt: float = 1.0,
    substeps: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate `n_steps` samples from start states x1/x2 of shape (m,) or (K, m).

    `params` is one parameter set shared by every trajectory, or, for (K, m)
    starts, K stacked sets, one per trajectory.
    Returns (x1, x2, diverged): the samples as (n_steps, m) or (n_steps, K, m)
    arrays, starting with (and including) the start states, and, per
    trajectory, the first step whose state leaves the guard box
    |x| <= DIVERGENCE_LIMIT (a NaN counts as outside), or 0 if none does;
    `diverged` has the shape of one start state without its last axis. The
    start states are not tested. Every step is taken and written, so samples
    past a divergence hold inf/NaN; they raise no floating-point warning.
    Each trajectory of a batch is bit-identical to its own lone rollout.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    alpha, coupling = params.alpha, params.coupling
    lead, m = alpha.shape[:-2], params.m
    if (x1.shape != x2.shape or x1.ndim not in (1, 2) or x1.shape[-1] != m
            or lead not in ((), x1.shape[:-1])):
        raise DimensionError(
            f"start states must both be ({m},) or (K, {m}), with K the stack size of "
            f"stacked params; got {x1.shape} and {x2.shape} for alpha {alpha.shape}"
        )
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = _substep_size(dt, substeps)  # reject a bad substep count before any step
    out1 = np.empty((n_steps,) + x1.shape)
    out2 = np.empty((n_steps,) + x1.shape)
    out1[0], out2[0] = x1, x2
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps):
            out1[k], out2[k] = _euler_arrays(
                alpha, coupling, out1[k - 1], out2[k - 1], h, substeps
            )
        outside = ~(
            (np.abs(out1) <= DIVERGENCE_LIMIT) & (np.abs(out2) <= DIVERGENCE_LIMIT)
        ).all(axis=-1)
    outside[0] = False
    # argmax finds the first True step, and gives 0 where every step is False
    return out1, out2, outside.argmax(axis=0)


def simulate(
    params: VdpParams,
    s0: State,
    n_steps: int,
    dt: float = 1.0,
    substeps: int = 1,
) -> Trajectory:
    """Integrate `n_steps` samples starting from (and including) `s0`.

    Raises SimulationDiverged naming the first step whose state magnitude
    exceeds DIVERGENCE_LIMIT.
    """
    x1, x2, diverged = rollout(params, s0.x1, s0.x2, n_steps, dt, substeps)
    if diverged:
        raise SimulationDiverged(step=int(diverged), limit=DIVERGENCE_LIMIT)
    return Trajectory(x1=x1, x2=x2, dt=dt)


def jacobians(
    params: VdpParams, s: State, dt: float, substeps: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobians of g at state `s`: (d/dstate (2m x 2m), d/dalpha (2m x 2m),
    d/dW (2m x m^2)), in the interleaved state layout and the [a1 block,
    a2 block, W row-major] parameter column order."""
    _check_components(params, s)
    jx, jp = _chained_jacobians(params, s.x1[None], s.x2[None], dt, substeps, True, True)
    b = 2 * params.m
    return jx[0], jp[0, :, :b], jp[0, :, b:]


def batch_state_jacobians(
    params: VdpParams, x1: np.ndarray, x2: np.ndarray, dt: float, substeps: int = 1
) -> np.ndarray:
    """dg/dstate at K states at once; x1/x2 are (K, m), result is (K, 2m, 2m),
    or (S, K, 2m, 2m) for (S, K, m) states and S stacked params."""
    return _chained_jacobians(params, x1, x2, dt, substeps, True, False)[0]


def batch_param_jacobians(
    params: VdpParams, x1: np.ndarray, x2: np.ndarray, dt: float, substeps: int = 1
) -> np.ndarray:
    """dg/dparams at K states at once; result is (K, 2m, 2m + m^2), or
    (S, K, 2m, 2m + m^2) for (S, K, m) states and S stacked params."""
    return _chained_jacobians(params, x1, x2, dt, substeps, False, True)[1]
