"""Coupled van der Pol dynamics: vector field, Euler stepping, and step Jacobians.

Each component i carries an observed activity variable x1_i and a hidden
excitability variable x2_i:

    dx1_i/dt = a1_i * x1_i * (1 - x1_i^2) + a2_i * x2_i + sum_j W_ij * x1_j
    dx2_i/dt = -x1_i

Discrete trajectories use the explicit Euler map g(s) = s + dt * f(s), with an
optional substep count for stiff parameter regimes (dt/n applied n times).

One batched core, `_euler_core`, holds the sample map on stacked states
s = [x1, x2] of shape (2, ..., m): `euler_map` maps one such array, and
`rollout` integrates into one (n_steps, 2, ..., m) buffer of them. Beside it
sit the one-substep state and parameter Jacobians and one loop chaining them
through the substeps, on the same stacked states. `step`, the batched
`rollout` behind `simulate`, the batch Jacobians and the single-state
`jacobians` call them, as do the stacked constraints in `constraints.py`.
`VdpParams` and `State` take an optional leading problem axis: S parameter
sets stack to (S, m, 2) gains and an (S, m, m) coupling, and S states to
(S, m) tracks. The core broadcasts them against (S, m) or (S, K, m) states,
so one `rollout` can integrate K candidates with K different parameters.

Flat state vectors interleave the two variables per component: component i of
a single time sample occupies slots (2i, 2i+1) = (x1_i, x2_i).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
        _substep_size(self.dt, 1)
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
    """dt / substeps: the time grid's one check."""
    if not (isinstance(substeps, (int, np.integer)) and substeps >= 1):
        raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return dt / substeps


def _param_arrays(params: VdpParams, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, coupling) to broadcast against (..., m) states x1 that lead with
    params' problem axes: where x1 has a time axis after them, so do they."""
    if x1.ndim == params.alpha.ndim - 1:
        return params.alpha, params.coupling
    return params.alpha[..., None, :, :], params.coupling[..., None, :, :]


def _euler_core(alpha: np.ndarray, coupling: np.ndarray, shape: tuple[int, ...], h: float,
                substeps: int) -> Callable[[tuple, tuple], np.ndarray]:
    """The sample map g, `substeps` Euler substeps s + h * f(s), on stacked
    states s = [x1, x2] of shape (2,) + `shape`, `shape` being (m,) or batched
    (..., m). alpha (..., m, 2) and coupling (..., m, m) are as `_param_arrays`
    gives them, with one axis per state axis, of size 1 where trajectories
    share a parameter set. Returns g(src, dst), which maps the state of the
    `_views` triple src into the one of dst (src may be dst: every read of a
    substep comes before its one write) and returns it. The scratch arrays
    and their views are made here, once, so the steps of a rollout allocate
    nothing.

    One substep is 11 ufunc calls, in the association order of the unstacked
    map: dx1/dt = (a1 x1 (1 - x1^2) + a2 x2) + W x1, added left to right,
    then s + h * [dx1, -x1], one product and one sum, where x2 + h * (-x1)
    has the bits of x2 - h * x1. [a1, a2] is copied contiguous once, so one
    product gives [a1 x1, a2 x2] with no strided parameter view; h and 1.0
    are 0-d arrays, so no call converts a Python float, and `out` is passed
    positionally, which is cheaper than by keyword. The coupling sum W x1 is
    not a BLAS matmul but the products x1_j * w, with w[j, ..., i] = W_ij
    copied out once for every state and x1_j the (m, ..., 1) column view of
    x1 that `_views` makes, reduced over their leading axis j. That sum runs
    j = 0, 1, ..., m - 1 in sequence whatever the batch size, input strides
    or shared or per-trajectory parameters, so each row of a batch rounds
    exactly as the same state alone. For m <= 7 it is also the order of
    numpy's reduction over a last axis, which the core used before; for
    m >= 8 numpy sums a last axis pairwise, so there the last bits differ
    from that older core's.
    """
    lead = tuple(range(len(shape) - 1))
    ca = alpha.transpose((len(shape),) + lead + (len(shape) - 1,)).copy()
    w = np.empty(shape[-1:] + shape)  # w[j, ..., i] = W_ij, for every state
    w[...] = coupling.transpose((len(shape),) + lead + (len(shape) - 1,))
    d = np.empty((2,) + shape)  # [dx1, -x1], then times h
    d1, d2, t, terms = d[0], d[1], np.empty(shape), np.empty(w.shape)
    one, h = np.array(1.0), np.array(h)
    mul, add, sub, neg, add_up = np.multiply, np.add, np.subtract, np.negative, np.add.reduce

    def g(src, dst):
        for _ in range(substeps):
            s, x1, x1_j = src
            mul(ca, s, d)
            mul(x1, x1, t)
            sub(one, t, t)
            mul(d1, t, d1)
            add(d1, d2, d1)
            add_up(mul(x1_j, w, terms), 0, None, t)
            add(d1, t, d1)
            neg(x1, d2)
            mul(d, h, d)
            add(s, d, dst[0])
            src = dst
        return dst[0]

    return g


def _views(states: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each stacked state s = [x1, x2] along the first axis of `states`, the
    views that `_euler_core`'s map reads and writes: s, x1 and x1's (m, ..., 1)
    column view x1_j."""
    x1 = states[:, 0]
    x1_j = x1.transpose(0, x1.ndim - 1, *range(1, x1.ndim - 1))[..., None]
    return list(zip(states, x1, x1_j))


def euler_map(params: VdpParams, s: np.ndarray, dt: float, substeps: int = 1) -> np.ndarray:
    """The sample map g on a stacked state s = [x1, x2], `substeps` Euler
    substeps s + h * f(s) with h = dt / substeps. s is (2, m) or batched
    (2, K, m), or (2, S, m) or (2, S, K, m) for S stacked params, with any
    strides; the result is a new array of s's shape."""
    h = _substep_size(dt, substeps)
    g = _euler_core(*_param_arrays(params, s[0]), s.shape[1:], h, substeps)
    (out,) = _views(np.array(s[None], order="C"))  # contiguous operands beat s's strides
    return g(out, out)


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


def _substep_param_jacobian(s: np.ndarray, h: float) -> np.ndarray:
    """d/dparams of one substep at stacked (2, ..., K, m) states: (..., K, 2m, 2m + m^2)."""
    x1, x2 = s
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
    s: np.ndarray,
    dt: float,
    substeps: int,
    want_state: bool,
    want_params: bool,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """dg/dstate and dg/dparams at K stacked states s = [x1, x2] ((2, K, m), or
    (2, S, K, m) for S stacked params, with any strides), chained through the
    substeps: J <- J_sub J, P <- J_sub P + P_sub, with each substep's
    Jacobians taken at its own intermediate state, which `euler_map` maps.
    Only the requested ones are built (None otherwise); at substeps=1 the
    parameter Jacobian needs no state Jacobian."""
    h = _substep_size(dt, substeps)
    alpha, coupling = _param_arrays(params, s[0])
    jx = _substep_state_jacobian(alpha, coupling, s[0], h) if want_state else None
    jp = _substep_param_jacobian(s, h) if want_params else None
    for _ in range(substeps - 1):
        s = euler_map(params, s, h)
        j_sub = _substep_state_jacobian(alpha, coupling, s[0], h)
        if want_state:
            jx = j_sub @ jx
        if want_params:
            jp = j_sub @ jp + _substep_param_jacobian(s, h)
    return jx, jp


def step(params: VdpParams, s: State, dt: float, substeps: int = 1) -> State:
    """One explicit Euler sample: s + dt * f(s), optionally split into substeps."""
    _check_components(params, s)
    x1, x2 = euler_map(params, np.stack((s.x1, s.x2)), dt, substeps)
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
    x1 and x2 are the two halves of one (n_steps, 2, ...) buffer of stacked
    states, so they are strided views, not contiguous arrays.
    Each trajectory of a batch is bit-identical to its own lone rollout.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    alpha = params.alpha
    lead, m = alpha.shape[:-2], params.m
    if (x1.shape != x2.shape or x1.ndim not in (1, 2) or x1.shape[-1] != m
            or lead not in ((), x1.shape[:-1])):
        raise DimensionError(
            f"start states must both be ({m},) or (K, {m}), with K the stack size of "
            f"stacked params; got {x1.shape} and {x2.shape} for alpha {alpha.shape}"
        )
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = _substep_size(dt, substeps)  # reject a bad time grid before any step
    out = np.empty((n_steps, 2) + x1.shape)
    out[0, 0], out[0, 1] = x1, x2
    views = _views(out)
    with np.errstate(over="ignore", invalid="ignore"):
        g = _euler_core(*_param_arrays(params, x1), x1.shape, h, substeps)
        for src, dst in zip(views, views[1:]):
            g(src, dst)
        inside = np.abs(out) <= DIVERGENCE_LIMIT
        outside = ~(inside[:, 0] & inside[:, 1]).all(axis=-1)
    outside[0] = False
    # argmax finds the first True step, and gives 0 where every step is False
    return out[:, 0], out[:, 1], outside.argmax(axis=0)


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
    jx, jp = _chained_jacobians(params, np.stack((s.x1, s.x2))[:, None], dt, substeps, True, True)
    b = 2 * params.m
    return jx[0], jp[0, :, :b], jp[0, :, b:]


def batch_state_jacobians(
    params: VdpParams, s: np.ndarray, dt: float, substeps: int = 1
) -> np.ndarray:
    """dg/dstate at K stacked states s = [x1, x2] at once: s is (2, K, m), the
    result (K, 2m, 2m), or (S, K, 2m, 2m) for (2, S, K, m) states and S
    stacked params."""
    return _chained_jacobians(params, s, dt, substeps, True, False)[0]


def batch_param_jacobians(
    params: VdpParams, s: np.ndarray, dt: float, substeps: int = 1
) -> np.ndarray:
    """dg/dparams at K stacked states s = [x1, x2] at once: s is (2, K, m), the
    result (K, 2m, 2m + m^2), or (S, K, 2m, 2m + m^2) for (2, S, K, m) states
    and S stacked params."""
    return _chained_jacobians(params, s, dt, substeps, False, True)[1]
