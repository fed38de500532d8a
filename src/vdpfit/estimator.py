"""Variable-projection estimation of oscillator parameters and hidden states.

Over (N, m) observed x1 tracks z and an (N, 2m) stacked state x (see
`constraints.stack_states`), both plain arrays, the penalty objective is

    f_lam(x, params) = 1/2 ||z - Hx||^2 + lam/2 ||G(x, params) - eta0||^2

where H masks out everything but the observed x1 coordinates. The inner solve
minimizes over x with Gauss-Newton steps on the block-tridiagonal normal
equations A d = -grad, A = H'H + lam G_x'G_x. The outer loop minimizes the
value function f_tilde(p) = min_x f_lam(x, p) over p = (alpha, W) with
projected Levenberg-Marquardt steps on the reduced residual

    r(p) = [z - Hx*(p); sqrt(lam) (G(x*(p), p) - eta0)],   f_tilde = 1/2 ||r||^2,

whose Jacobian J = [-H dx*/dp; sqrt(lam) (G_x dx*/dp + G_p)] takes the
Gauss-Newton sensitivity dx*/dp = -A^-1 lam G_x'G_p from one banded solve
with p right-hand sides (Golub & Pereyra 2003; Kaufman 1975). Its gradient
J'r equals lam G_p'(G - eta0), which is exact at an exact inner minimizer,
and each outer trial's inner solve starts from x* + dx*/dp dp.

The loops run over S problems at once: (S, N, m) z, (S, N, 2m) states, and
the problems' parameters and anchors as one `VdpParams` and one `State` with a
leading axis of length S. `fit_lockstep` fits S series this way; `fit`,
`value_gradient` and `inner_solve` run their lone problem as S = 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import metrics
from .constraints import (
    residual,
    residual_jacobian_params,
    residual_jacobian_x,
    solve_block_tridiagonal,
    stack_states,
)
from .data import json_array, json_number
from .model import DimensionError, State, Trajectory, VdpParams

_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
_MAX_HALVINGS = 48
# an accepted step that lowers f by no more than this times |f| is roundoff
_ROUNDOFF_DECREASE = 8 * sys.float_info.epsilon


class FitError(RuntimeError):
    """Estimation could not proceed (non-finite objective, bad init, ...)."""


def check_interval(name: str, pair) -> None:
    """Raise ValueError unless `pair` is two finite numbers (lo, hi) with lo <= hi."""
    if len(pair) != 2 or not (math.isfinite(pair[0]) and math.isfinite(pair[1])
                              and pair[0] <= pair[1]):
        raise ValueError(f"{name} must be two finite numbers (lo, hi) with lo <= hi")


@dataclass(frozen=True)
class ParamBounds:
    """Box constraints per parameter group, as (lo, hi) pairs."""

    alpha1: tuple[float, float] = (0.0, 5.0)
    alpha2: tuple[float, float] = (-5.0, 5.0)
    coupling: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "coupling"):
            check_interval(name, getattr(self, name))

    def lower(self, m: int) -> np.ndarray:
        return self._corner(m, 0)

    def upper(self, m: int) -> np.ndarray:
        return self._corner(m, 1)

    def _corner(self, m: int, end: int) -> np.ndarray:
        """The box's lower (end 0) or upper (end 1) corner as a `VdpParams.to_vector`."""
        alpha = np.tile([self.alpha1[end], self.alpha2[end]], (m, 1))
        return VdpParams(alpha=alpha, coupling=np.full((m, m), self.coupling[end])).to_vector()

    def clip_params(self, params: VdpParams) -> VdpParams:
        vec = np.clip(params.to_vector(), self.lower(params.m), self.upper(params.m))
        return VdpParams.from_vector(vec, params.m)

    def contains(self, params: VdpParams, atol: float = 0.0) -> bool:
        vec = params.to_vector()
        m = params.m
        return bool(
            np.all(vec >= self.lower(m) - atol) and np.all(vec <= self.upper(m) + atol)
        )


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights, inner/outer solver tolerances, and parameter bounds.

    The fit sweeps the non-empty, strictly increasing `lam_schedule` in order,
    warm-starting states and params, while the inner tolerance tightens
    geometrically from `inner_tol_start` to `inner_tol` and the Gauss-Newton
    cap grows linearly from `inner_max_iter_start` to `inner_max_iter`. A
    one-element schedule is a fixed lam, solved to `inner_tol` within
    `inner_max_iter` steps; the two `*_start` fields then have no effect.

    Each stage takes at most `outer_max_iter` Levenberg-Marquardt trial steps
    and stops early when the projected gradient falls below the larger of
    `outer_gtol` and the stage's inner tolerance (the value function is
    resolved no finer than that), or a step's max |dp| / (1 + max |p|) falls
    below `outer_ftol`. `armijo_c`, in (0, 1), is both the gain ratio a trial
    step must beat and the inner line search's Armijo constant.
    """

    lam_schedule: tuple[float, ...] = (10.0, 100.0, 1000.0)
    inner_tol: float = 1e-8
    inner_tol_start: float = 1e-4
    inner_max_iter: int = 200
    inner_max_iter_start: int = 50
    outer_max_iter: int = 100
    outer_ftol: float = 1e-6
    outer_gtol: float = 1e-6
    armijo_c: float = 1e-4
    bounds: ParamBounds = field(default_factory=ParamBounds)

    def __post_init__(self):
        sched = tuple(float(v) for v in self.lam_schedule)
        if len(sched) == 0 or any(not v > 0 for v in sched):
            raise ValueError("lam_schedule must be a non-empty list of positive values")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("lam_schedule must be strictly increasing")
        object.__setattr__(self, "lam_schedule", sched)
        for name in ("inner_tol", "inner_tol_start", "outer_ftol", "outer_gtol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("inner_max_iter", "inner_max_iter_start", "outer_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.armijo_c < 1:  # at 1 or above no step passes; at 0 or below f may rise
            raise ValueError(f"armijo_c must be in (0, 1), got {self.armijo_c!r}")

    def stages(self) -> list[tuple[float, float, int]]:
        """Per-stage (lam, inner_tol, inner_max_iter) triples; the last stage
        takes `inner_tol` and `inner_max_iter`."""
        n = len(self.lam_schedule)
        tols = np.geomspace(self.inner_tol_start, self.inner_tol, n)
        caps = np.linspace(self.inner_max_iter_start, self.inner_max_iter, n)
        tols[-1], caps[-1] = self.inner_tol, self.inner_max_iter
        return [(lam, float(t), int(round(c)))
                for lam, t, c in zip(self.lam_schedule, tols, caps)]


def fit_echo(cfg: PenaltyConfig, dt: float, substeps: int) -> dict:
    """The `config_echo` of a fit: every penalty field plus the time grid."""
    return {**asdict(cfg), "dt": float(dt), "substeps": int(substeps)}


@dataclass(frozen=True)
class InnerResult:
    """Inner Gauss-Newton outcome: the state estimate, its residual
    G(x) - eta0 and the subdiagonal blocks of dG/dx there, and convergence
    info."""

    x: np.ndarray
    residual: np.ndarray
    jac_x: np.ndarray
    converged: bool
    iterations: int
    grad_inf: float
    objective: float


@dataclass(frozen=True)
class ValueGradient:
    """Value function f_tilde and its (alpha, W) gradient at fixed params,
    with dG/dparams at the inner minimizer."""

    value: float
    gradient: np.ndarray
    x: np.ndarray
    inner: InnerResult
    jac_params: np.ndarray

    @property
    def low_accuracy(self) -> bool:
        return not self.inner.converged


def _field(doc: dict, key: str, *default):
    """The value at dotted `key` of a fit.json document, or the default where
    it is absent."""
    for part in key.split("."):
        if not isinstance(doc, dict):
            raise TypeError("must be in a JSON object")
        if part not in doc:
            if default:
                return default[0]
            raise ValueError(f"missing key {part!r}")
        doc = doc[part]
    return doc


def _typed(kind: type, what: str, item: Optional[type] = None):
    """A fit.json field parser: the value itself when its type is `kind` and,
    with `item`, each of its entries' type is `item`; else ValueError."""
    def parse(value):
        if type(value) is not kind or item and any(type(v) is not item for v in value):
            raise ValueError(f"must be {what}")
        return value
    return parse


@dataclass
class FitResult:
    params: VdpParams
    states: Trajectory
    objective_history: list[tuple[int, float, float]]  # (outer iter, lam, f_tilde)
    per_component_stats: list[dict]
    converged: bool
    reason: str
    config_echo: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.params.alpha.tolist(),
            "W": self.params.coupling.tolist(),
            "states": {
                "x1": self.states.x1.tolist(),
                "x2": self.states.x2.tolist(),
            },
            "stats": self.per_component_stats,
            "objective_history": [
                [int(i), float(lam), float(f)] for i, lam, f in self.objective_history
            ],
            "converged": {"flag": bool(self.converged), "reason": self.reason},
            "config_echo": self.config_echo,
        }

    @property
    def substeps(self) -> int:
        """Euler substeps per sample the fit used (1 when not recorded)."""
        return int(self.config_echo.get("substeps", 1))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FitResult":
        """Read a `to_json_dict` document; a ValueError means `doc` is not one,
        and its message starts with the keys at fault."""
        def read(keys: str, parse, *default):
            try:
                return parse(*(_field(doc, key, *default) for key in keys.split(", ")))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{keys}: {exc}") from None

        dt = float(read("config_echo.dt", lambda v: json_number(v, positive=True)))
        read("config_echo.substeps", lambda n: json_number(n, integer=True, positive=True), 1)
        params = read("alpha, W",
                      lambda a, w: VdpParams(alpha=json_array(a), coupling=json_array(w)))
        states = read("states.x1, states.x2",
                      lambda x1, x2: Trajectory(x1=json_array(x1), x2=json_array(x2), dt=dt))
        if params.alpha.ndim != 2 or states.m != params.m:
            raise ValueError(f"states have {states.m} components, alpha is {params.alpha.shape}")
        history = read("objective_history", lambda h: [
            (json_number(i, integer=True), json_number(lam), json_number(f))
            for i, lam, f in _typed(list, "a list of [iteration, lam, f] lists", list)(h)], [])
        return cls(
            params=params,
            states=states,
            objective_history=history,
            per_component_stats=read("stats", _typed(list, "a list of JSON objects", dict), []),
            converged=read("converged.flag", _typed(bool, "true or false"), False),
            reason=read("converged.reason", _typed(str, "a string"), ""),
            config_echo=doc["config_echo"],
        )


def hidden_x2_estimate(z_values: np.ndarray, dt: float) -> np.ndarray:
    """Initial guess for the hidden track from dx2/dt = -x1.

    Integrates -x1 cumulatively and removes each component's mean (the
    integration constant is unidentified at this point). Falls back to zeros
    if the estimate is not finite.
    """
    z_values = np.atleast_2d(np.asarray(z_values, dtype=float))
    x2 = np.zeros_like(z_values)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate falls back
        x2[1:] = -dt * np.cumsum(z_values[:-1], axis=0)
        x2 -= x2.mean(axis=0, keepdims=True)
    if not np.all(np.isfinite(x2)):
        return np.zeros_like(z_values)
    return x2


def default_x_init(z: np.ndarray, dt: float) -> np.ndarray:
    """Stacked init: observed x1 track plus the hidden-state heuristic for x2."""
    return stack_states(z, hidden_x2_estimate(z, dt))


def check_observations(z) -> np.ndarray:
    """z as a float array; raises unless it is a finite (N, m) array of the
    observed x1 tracks, one column per component, with N >= 2."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise DimensionError(f"observations must be an (N, m) array, got shape {z.shape}")
    if z.shape[0] < 2:
        raise ValueError(f"observations need at least 2 samples, got {z.shape[0]}")
    if not np.isfinite(z).all():
        raise ValueError("observations contain non-finite entries")
    return z


def _check_shapes(z: np.ndarray, x: np.ndarray) -> None:
    """Raise unless x is a finite (N, 2m) stacked state for the (N, m) z."""
    if x.shape != (len(z), 2 * z.shape[1]):
        raise DimensionError(f"stacked state must be {(len(z), 2 * z.shape[1])}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("stacked state must be finite")


def _objectives(x, z, r, lam) -> np.ndarray:
    """1/2 ||z - Hx||^2 + lam/2 ||r||^2 of S problems, from (S, N, 2m) x, (S, N, m)
    z and their (S, 2mN) residuals r = G(x) - eta0: an (S,) array. Each is the
    sum of its problem's contiguous misfit squares and one ddot, so it has the
    bits of the lone problem's objective."""
    misfit = x[..., 0::2] - z
    return 0.5 * (misfit * misfit).sum(axis=(-2, -1)) + 0.5 * lam * metrics._dots(r, r)


def _normal_diag(sub: np.ndarray, lam: float) -> np.ndarray:
    """Diagonal blocks of the inner normal matrix A = H'H + lam G_x'G_x, from
    the (..., N-1, b, b) subdiagonal blocks of G_x of one problem or a stack of
    them; A's subdiagonal is lam * sub."""
    n, b = sub.shape[-3] + 1, sub.shape[-1]
    block = lam * np.eye(b)
    block.reshape(-1)[:: 2 * b + 2] += 1.0  # the x1 slots (2i, 2i)
    diag = np.empty(sub.shape[:-3] + (n, b, b))
    diag[:] = block
    flat = sub.reshape(-1, b, b)  # one 3-D matmul stack: a 4-D one is slower
    # a copy of the right operand takes gemm, not numpy's slower A'A (syrk) path;
    # the upper triangles, all that `solve_block_tridiagonal` reads, keep syrk's
    # bits on every OpenBLAS kernel tested, the lower ones need not mirror them
    diag[..., :-1, :, :] += lam * (flat.transpose(0, 2, 1) @ flat.copy()).reshape(sub.shape)
    return diag


def _take(stack, idx: list, count: int):
    """Problems `idx` (ascending) of a stack of `count` problems, an array,
    VdpParams or State: the stack itself when idx is all of them."""
    return stack if len(idx) == count else stack[idx]


def _inner_solves(params: VdpParams, anchors: State, z: np.ndarray, cfg: PenaltyConfig,
                  x: np.ndarray, *, dt, substeps, lam, tol, max_iter) -> list[InnerResult]:
    """`inner_solve` of S problems in lockstep, from S stacked params and anchors,
    (S, N, m) z and (S, N, 2m) x: each keeps its own stopping and step length.
    Each step's residual, Jacobian, normal-matrix blocks, gradients and their
    norms, directional derivatives and trial objectives are one computation
    over the problems left; the banded solves and the per-problem decisions,
    on Python floats, run one problem at a time."""
    S, n, b = x.shape
    every = list(range(S))
    cur = np.array(x, dtype=float)  # the iterates; a row is replaced when its step is accepted
    r = residual(cur, params, anchors, dt, substeps)
    f = _objectives(cur, z, r, lam).tolist()
    converged = [False] * S
    at_floor = [False] * S
    grad_inf = [math.inf] * S
    iterations = [0] * S
    subs = [None] * S
    delta = np.empty(cur.shape)
    dirderiv = [0.0] * S
    active = every
    for it in range(max_iter + 1):
        x_act = _take(cur, active, S)
        jac = residual_jacobian_x(x_act, _take(params, active, S), dt, substeps)
        # lam (dG/dx)' r: identity diagonal blocks, sub' on the block above
        r_blocks = _take(r, active, S).reshape(-1, n, b)
        grad = r_blocks.copy()
        grad[:, :-1] += np.einsum("skji,skj->ski", jac, r_blocks[:, 1:])
        grad *= lam
        grad[..., 0::2] += x_act[..., 0::2] - _take(z, active, S)
        rows = []  # the stepping problems' rows of the stack
        for k, (i, g_inf) in enumerate(zip(active, np.abs(grad).max(axis=(1, 2)).tolist())):
            subs[i], grad_inf[i], iterations[i] = jac[k], g_inf, it
            converged[i] = g_inf <= tol or at_floor[i]
            if not converged[i] and it < max_iter:
                rows.append(k)
        active = [active[k] for k in rows]
        if not active:
            break
        jac, grad = _take(jac, rows, len(jac)), _take(grad, rows, len(grad))
        for i, diag, sub, g in zip(active, _normal_diag(jac, lam), jac, grad):
            delta[i] = solve_block_tridiagonal(diag, lam * sub, -g)
        for i, d in zip(active, (grad * _take(delta, active, S)).sum(axis=(1, 2)).tolist()):
            dirderiv[i] = d
        left = active  # the problems whose step is not yet accepted
        t = 1.0
        for _ in range(_MAX_HALVINGS):  # the steps halve until their Armijo tests pass
            passed = []
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowed trial is rejected
                trials = _take(cur, left, S) + t * _take(delta, left, S)
                r_trials = residual(trials, _take(params, left, S), _take(anchors, left, S), dt,
                                    substeps)
                f_trials = _objectives(trials, _take(z, left, S), r_trials, lam).tolist()
            for i, trial, r_trial, f_trial in zip(left, trials, r_trials, f_trials):
                if math.isfinite(f_trial) and f_trial <= f[i] + cfg.armijo_c * t * dirderiv[i]:
                    at_floor[i] = f[i] - f_trial <= _ROUNDOFF_DECREASE * abs(f[i])
                    cur[i], r[i], f[i] = trial, r_trial, f_trial
                    passed.append(i)
            if len(passed) == len(left):
                break
            left = [i for i in left if i not in passed]
            t *= 0.5
        else:  # the steps left underflowed: those problems stop at their current iterate
            for i in left:
                iterations[i] = it + 1
            active = [i for i in active if i not in left]
            if not active:
                break
    return [InnerResult(x=cur[i], residual=r[i], jac_x=subs[i], converged=converged[i],
                        iterations=iterations[i], grad_inf=grad_inf[i], objective=f[i])
            for i in every]


def inner_solve(
    params: VdpParams,
    anchor: State,
    z: np.ndarray,
    cfg: PenaltyConfig,
    x_init: np.ndarray,
    *,
    dt: float = 1.0,
    substeps: int = 1,
    lam: float,
    tol: float,
    max_iter: int,
) -> InnerResult:
    """Gauss-Newton minimization of f_lam over the (N, 2m) stacked state from
    x_init, with the constraint anchored at `anchor` (eta0 = [anchor, 0, ..., 0]).

    `lam`, `tol` and `max_iter` are one stage of `cfg.stages()`; `cfg` gives
    only the Armijo constant. Stops when the gradient infinity-norm drops to
    `tol` or after `max_iter` steps. Steps solve the block-tridiagonal normal
    equations exactly, then halve under an Armijo test, which a trial whose
    objective overflows fails without a warning; a step that underflows
    returns the current iterate flagged not-converged.

    It also stops, as converged, at the roundoff floor: when an accepted step
    lowers f by no more than 8 * eps * |f| (eps the float64 machine epsilon),
    the step is kept and the solve ends. At large lam the gradient can bottom
    out above `tol` from roundoff alone, and further steps would only halve
    until they no longer change f.
    """
    z = check_observations(z)
    _check_shapes(z, x_init)
    if lam <= 0:
        raise ValueError("inner solve requires lam > 0")
    return _inner_solves(params[None], anchor[None], z[None], cfg, x_init[None], dt=dt,
                         substeps=substeps, lam=lam, tol=tol, max_iter=max_iter)[0]


def _with_gradients(params: VdpParams, inners: Sequence[InnerResult], lam, dt, substeps
                    ) -> list[ValueGradient]:
    """The value gradient at each inner minimizer of S stacked params, from one
    batched dG/dparams."""
    jps = residual_jacobian_params(np.array([v.x for v in inners]), params, dt, substeps)
    return [ValueGradient(value=v.objective, gradient=lam * (jp.T @ v.residual), x=v.x,
                          inner=v, jac_params=jp) for v, jp in zip(inners, jps)]


def value_gradient(
    params: VdpParams,
    anchor: State,
    z: np.ndarray,
    cfg: PenaltyConfig,
    x_init: Optional[np.ndarray] = None,
    *,
    dt: float = 1.0,
    substeps: int = 1,
    lam: float,
    tol: float,
    max_iter: int,
) -> ValueGradient:
    """f_tilde(params) = min_x f_lam and its gradient lam * G_params'(G - eta0),
    with the inner solve run at (`lam`, `tol`, `max_iter`) and eta0 =
    [anchor, 0, ..., 0] for the State `anchor`.

    The gradient is exact at an exact inner minimizer; when the inner solve
    stops early the result is still returned with `low_accuracy` set.
    `inner_solve` checks z; it is checked here only for the default start.
    """
    if x_init is None:
        x_init = default_x_init(check_observations(z), dt)
    inner = inner_solve(
        params, anchor, z, cfg, x_init,
        dt=dt, substeps=substeps, lam=lam, tol=tol, max_iter=max_iter,
    )
    return _with_gradients(params[None], [inner], lam, dt, substeps)[0]


def reduced_jacobian(vg: ValueGradient, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """J of the reduced residual r(p) = [z - Hx*; sqrt(lam) (G(x*, p) - eta0)]
    at vg's inner minimizer x*, and the sensitivity dx*/dp it is built from.

    dx*/dp = -A^-1 lam G_x'G_p, with A the inner normal matrix at x*, costs one
    banded solve with p = 2m + m^2 right-hand sides. J is (N*m + 2*m*N, p):
    the N x1-misfit rows (time-major, component-minor) above the 2*m*N
    constraint rows; dx*/dp is (N, 2m, p) in stacked-state block layout.
    """
    n, b = vg.x.shape
    sub = vg.inner.jac_x  # (N-1, b, b)
    gp = vg.jac_params.reshape(n, b, -1)
    gx_t_gp = gp.copy()  # G_x' G_p: identity diagonal, sub' above
    gx_t_gp[:-1] += sub.transpose(0, 2, 1) @ gp[1:]
    dx_dp = solve_block_tridiagonal(_normal_diag(sub, lam), lam * sub, -lam * gx_t_gp)
    dg_dp = dx_dp + gp  # G_x dx*/dp + G_p: identity diagonal, sub below
    dg_dp[1:] += sub @ dx_dp[:-1]
    jac = np.concatenate([-dx_dp[:, 0::2].reshape(n * b // 2, -1),
                          math.sqrt(lam) * dg_dp.reshape(n * b, -1)])
    return jac, dx_dp


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for symmetric positive definite `a`, by LAPACK potrf/potrs on its
    upper triangle (scipy's `cho_factor`/`cho_solve`, bit for bit). Raises
    LinAlgError when `a` is not positive definite, ValueError on non-finite input."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    c, info = _potrf(a, lower=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not "
                                    "positive definite")
    return _potrs(c, b, lower=False)[0]


def _component_stats(z_values: np.ndarray, x1_fit: np.ndarray) -> list[list[dict]]:
    """fit.json's per-component scores of S problems' (S, N, m) fitted x1 tracks
    against their observed ones, from one `component_scores` call: one list of
    per-component dicts per problem."""
    c, r2 = metrics.component_scores(z_values, x1_fit)
    return [[{"component": i, "pearson": ci, "r_squared": ri}
             for i, (ci, ri) in enumerate(zip(*row))] for row in zip(c.tolist(), r2.tolist())]


def _nonfinite_start(x: np.ndarray, r: np.ndarray) -> FitError:
    """The error for a non-finite objective at a stage's first evaluation; it
    names the first component with a non-finite state or residual entry."""
    bad = ~np.isfinite(x) | ~np.isfinite(r.reshape(x.shape))
    idx = np.nonzero(bad.reshape(len(x), -1, 2).any(axis=(0, 2)))[0]
    comp = int(idx[0]) if idx.size else 0
    return FitError(f"non-finite objective at initial evaluation (component {comp})")


def fit(
    z: np.ndarray,
    cfg: PenaltyConfig,
    init: VdpParams,
    x_init: Optional[np.ndarray] = None,
    *,
    dt: float = 1.0,
    substeps: int = 1,
) -> FitResult:
    """Projected Levenberg-Marquardt outer loop over (alpha, W) with inner
    state solves: `fit_lockstep` of the one problem.

    Sweeps the (lam, inner_tol, inner_max_iter) stages of `cfg.stages()` with
    warm starts. Each stage damps the Gauss-Newton matrix J'J of
    `reduced_jacobian` with Marquardt's diagonal scaling, clips each trial
    step to the bounds, and accepts it when its gain ratio (actual over
    predicted decrease of f_tilde) exceeds `cfg.armijo_c`; mu then shrinks by
    Nielsen's rule, and a rejection quadruples it. mu starts at
    1e-3 * max diag(J'J) in the first stage only: each later stage starts from
    the mu the previous one ended with. A damped matrix whose Cholesky
    factorization fails (mu below the roundoff of J'J) also counts as a
    rejection. Each trial's inner solve starts from the first-order
    prediction x* + (dx*/dp) dp of its minimizer, or from x* when that is
    not finite. A stage stops on a
    projected gradient below max(outer_gtol, the stage's inner tolerance), a
    step with max |dp| / (1 + max |p|) below outer_ftol, or outer_max_iter
    trial steps. The (N, 2m) x_init, by default `default_x_init(z, dt)`,
    starts the solve, and its first state anchors the constraint.
    """
    return fit_lockstep([z], cfg, [init], [x_init], dt=dt, substeps=substeps)[0]


def fit_lockstep(z: np.ndarray, cfg: PenaltyConfig, inits: Sequence[VdpParams],
                 x_init: Optional[Sequence[Optional[np.ndarray]]] = None, *, dt: float = 1.0,
                 substeps: int = 1) -> list[FitResult]:
    """`fit` of S equal-shape problems in lockstep, from (S, N, m) z and per
    problem an init and an (N, 2m) x_init or None; each result equals its lone
    `fit` (this at S = 1) bit for bit. Of failing problems the lowest-index
    one's FitError is raised, as a loop of `fit` calls raises it."""
    x_init = [None] * len(z) if x_init is None else x_init
    return _fits(*_problems(z, inits, x_init, dt), cfg, dt, substeps)


def _problems(zs, inits: Sequence[VdpParams], x_inits, dt: float
              ) -> tuple[np.ndarray, VdpParams, np.ndarray]:
    """S >= 1 problems' (N, m) series, inits and (N, 2m) starts (None: the
    default), checked and stacked to (S, N, m) z, S stacked inits and
    (S, N, 2m) x_init."""
    if not len(zs) == len(inits) == len(x_inits):
        raise DimensionError(f"{len(zs)} series, {len(inits)} inits and {len(x_inits)} x_inits")
    shapes = sorted({np.shape(zi) for zi in zs})
    if len(shapes) != 1:
        raise DimensionError(f"need one or more series of one (N, m) shape, got {shapes}")
    z = [check_observations(zi) for zi in zs]
    x_init = [default_x_init(zi, dt) if x is None else x for zi, x in zip(z, x_inits)]
    m = z[0].shape[1]
    for init, zi, x in zip(inits, z, x_init):
        if init.alpha.shape != (m, 2):
            raise DimensionError(f"init alpha {init.alpha.shape} does not match {m} components")
        _check_shapes(zi, x)
    return np.stack(z), VdpParams.stack(inits), np.stack(x_init)


def _fits(z: np.ndarray, inits: VdpParams, x_init: np.ndarray, cfg: PenaltyConfig, dt: float,
          substeps: int) -> list[FitResult]:
    """`fit`'s outer loop over S problems, from `_problems`' (S, N, m) z, S stacked inits
    and (S, N, 2m) x_init. Each iteration is one pass over the active problems, which
    linearizes each stale one and builds its trial; the trials go to one `_inner_solves`,
    a lone problem's to `value_gradient`. A fit has converged unless it hit the iteration cap.
    A problem fails on an init outside the bounds or a non-finite objective at a stage
    start; it and every later one then stop, and the lowest-index failure is raised."""
    S, _, m = z.shape
    anchors = State.from_flat(x_init[:, 0])
    stages = cfg.stages()

    def evaluate(idx: list, ps, xs: list, stage):  # problems idx at their p and x starts
        params = VdpParams.from_vector(np.array(ps), m)
        if S == 1:  # the same bits, through the value_gradient span a tracer reads
            return [value_gradient(params[0], anchors[0], z[0], cfg, xs[0], **stage)]
        inners = _inner_solves(params, anchors[idx], z[idx], cfg, np.stack(xs), **stage)
        return _with_gradients(params, inners, stage["lam"], dt, substeps)

    errors: dict[int, FitError] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        r0 = residual(x_init, inits, anchors, dt, substeps)
        f0 = _objectives(x_init, z, r0, stages[0][0])
    for i in range(S):
        if not cfg.bounds.contains(inits[i], atol=1e-12):
            errors[i] = FitError("init violates parameter bounds")
        elif not math.isfinite(f0[i]):
            errors[i] = _nonfinite_start(x_init[i], r0[i])

    lo, hi = cfg.bounds.lower(m), cfg.bounds.upper(m)
    p = np.clip(inits.to_vector(), lo, hi)  # (S, P): row i is problem i's parameters
    history: list[list[tuple[int, float, float]]] = [[] for _ in range(S)]
    vg: list[Optional[ValueGradient]] = [None] * S
    mu: list[Optional[float]] = [None] * S
    lin: list[Optional[tuple]] = [None] * S  # J'J, its diagonal scale and dx*/dp at p
    reason = [""] * S
    live = list(range(min(errors, default=S)))  # the problems before the first failure

    for lam_s, tol_s, cap_s in stages:
        if not live:
            break
        stage = dict(dt=dt, substeps=substeps, lam=lam_s, tol=tol_s, max_iter=cap_s)
        starts = [x_init[i] if vg[i] is None else vg[i].x for i in live]
        for i, v in zip(live, evaluate(live, p[live], starts, stage)):
            vg[i] = v
            if not math.isfinite(v.value):
                errors[i] = _nonfinite_start(v.x, v.inner.residual)
        live = [i for i in live if i < min(errors, default=S)]
        for i in live:
            history[i].append((len(history[i]), lam_s, vg[i].value))
            reason[i], lin[i] = "max outer iterations", None
        gtol = max(cfg.outer_gtol, tol_s)  # f_tilde is resolved only to tol_s
        active = list(live)
        for _ in range(cfg.outer_max_iter):
            if not active:
                break
            pa = p[active]
            pa_grad = np.array([vg[i].gradient for i in active])
            small = (np.abs(pa - np.clip(pa - pa_grad, lo, hi)).max(axis=1) < gtol).tolist()
            for i, done in zip(active, small):
                if done:
                    reason[i] = "projected gradient below tolerance"
            active = [i for i, done in zip(active, small) if not done]
            tried, p_trials, x_starts = [], [], []
            predicted = {}
            for i in list(active):
                if lin[i] is None:  # a new stage or an accepted step: linearize at p
                    jac, dx_dp = reduced_jacobian(vg[i], lam_s)
                    jtj = jac.T @ jac
                    scale = np.diag(jtj).copy()
                    scale[scale <= 0] = 1.0  # a parameter nothing depends on: unit scale
                    lin[i] = jtj, scale, dx_dp
                    if mu[i] is None:
                        mu[i] = 1e-3 * float(np.max(scale))
                jtj, scale, dx_dp = lin[i]
                g, x_opt = vg[i].gradient, vg[i].x
                try:
                    step = _cholesky_solve(jtj + np.diag(mu[i] * scale), g)
                except np.linalg.LinAlgError:  # mu * scale fell below J'J's roundoff
                    mu[i] *= 4.0
                    continue
                p_new = np.clip(p[i] - step, lo, hi)
                move = p_new - p[i]
                if np.max(np.abs(move)) < cfg.outer_ftol * (1.0 + np.max(np.abs(p[i]))):
                    reason[i] = "step below tolerance"
                    active.remove(i)
                    continue
                predicted[i] = -float(g @ move) - 0.5 * float(move @ jtj @ move)
                # first-order prediction x* + dx*/dp move of the new minimizer
                x_start = x_opt + (dx_dp.reshape(-1, move.size) @ move).reshape(x_opt.shape)
                tried.append(i)
                p_trials.append(p_new)
                x_starts.append(x_start if np.isfinite(x_start).all() else x_opt)
            if tried:
                new = evaluate(tried, p_trials, x_starts, stage)
            else:
                new = []
            for i, p_new, v in zip(tried, p_trials, new):
                rho = (vg[i].value - v.value) / predicted[i] if predicted[i] > 0 else -math.inf
                if not rho > cfg.armijo_c:  # also rejects a non-finite value
                    mu[i] *= 4.0
                    continue
                mu[i] *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                p[i], vg[i], lin[i] = p_new, v, None
                history[i].append((len(history[i]), lam_s, v.value))

    if errors:
        raise errors[min(errors)]
    x = np.array([v.x for v in vg])
    stats = _component_stats(z, x[..., 0::2])
    echo = fit_echo(cfg, dt, substeps)
    return [FitResult(params=VdpParams.from_vector(p[i], m),
                      states=Trajectory(x1=x[i, :, 0::2].copy(), x2=x[i, :, 1::2].copy(), dt=dt),
                      objective_history=history[i], per_component_stats=stats[i],
                      converged=reason[i] != "max outer iterations", reason=reason[i],
                      config_echo=dict(echo))  # a dict of its own: the CLI adds keys to it
            for i in range(S)]
