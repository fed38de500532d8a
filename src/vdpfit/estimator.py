"""Variable-projection estimation of oscillator parameters and hidden states.

The penalty objective over a stacked trajectory x is

    f_lam(x, params) = 1/2 ||z - Hx||^2 + lam/2 ||G(x, params) - eta0||^2

where H masks out everything but the observed x1 coordinates. The inner solve
minimizes over x with Gauss-Newton steps on the block-tridiagonal normal
equations (H'H + lam G_x'G_x) d = -grad; the outer loop is projected gradient
over (alpha, W) using the value-function gradient lam * G_params' (G - eta0),
which is exact at an exact inner minimizer.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .constraints import (
    StackedState,
    residual,
    residual_jacobian_params,
    residual_jacobian_x,
    solve_block_tridiagonal,
)
from .model import DimensionError, ObservationSet, State, Trajectory, VdpParams

_MAX_HALVINGS = 48
# an accepted step that lowers f by no more than this times |f| is roundoff
_ROUNDOFF_DECREASE = 8 * np.finfo(float).eps


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
    """

    lam_schedule: tuple[float, ...] = (10.0, 100.0, 1000.0)
    inner_tol: float = 1e-8
    inner_tol_start: float = 1e-4
    inner_max_iter: int = 200
    inner_max_iter_start: int = 50
    outer_step: float = 0.1
    outer_max_iter: int = 100
    outer_ftol: float = 1e-8
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
        for name in ("inner_tol", "inner_tol_start", "outer_step", "outer_ftol", "outer_gtol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("inner_max_iter", "inner_max_iter_start", "outer_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

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
    G(x) - eta0, and convergence info."""

    x: StackedState
    residual: np.ndarray
    converged: bool
    iterations: int
    grad_inf: float
    objective: float


@dataclass(frozen=True)
class ValueGradient:
    """Value function f_tilde and its (alpha, W) gradient at fixed params."""

    value: float
    gradient: np.ndarray
    x: StackedState
    inner: InnerResult

    @property
    def low_accuracy(self) -> bool:
        return not self.inner.converged


def _numeric(value, key: str) -> np.ndarray:
    """A fit.json array whose entries are all JSON numbers (no bools or strings)."""
    arr = np.array(value)
    if arr.dtype.kind not in "if":
        raise TypeError(f"{key} must hold numbers only")
    return arr


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
        """Read a `to_json_dict` document; KeyError, TypeError or ValueError
        means `doc` is not one."""
        echo, conv = doc.get("config_echo", {}), doc.get("converged", {})
        if not (isinstance(echo, dict) and isinstance(conv, dict)):
            raise TypeError("config_echo and converged must be JSON objects")
        dt = echo.get("dt")
        if type(dt) not in (int, float) or not math.isfinite(dt):
            raise ValueError(f"config_echo time step 'dt' must be a finite number: {dt!r}")
        substeps = echo.get("substeps", 1)
        if type(substeps) is not int or substeps < 1:
            raise ValueError("config_echo.substeps must be an integer >= 1")
        params = VdpParams(
            alpha=_numeric(doc["alpha"], "alpha"), coupling=_numeric(doc["W"], "W")
        )
        states = Trajectory(
            x1=_numeric(doc["states"]["x1"], "states.x1"),
            x2=_numeric(doc["states"]["x2"], "states.x2"),
            dt=float(dt),
        )
        return cls(
            params=params,
            states=states,
            objective_history=[tuple(e) for e in doc.get("objective_history", [])],
            per_component_stats=list(doc.get("stats", [])),
            converged=bool(conv.get("flag", False)),
            reason=str(conv.get("reason", "")),
            config_echo=echo,
        )


def hidden_x2_estimate(z_values: np.ndarray, dt: float) -> np.ndarray:
    """Initial guess for the hidden track from dx2/dt = -x1.

    Integrates -x1 cumulatively and removes each component's mean (the
    integration constant is unidentified at this point). Falls back to zeros
    if the estimate is not finite.
    """
    z_values = np.atleast_2d(np.asarray(z_values, dtype=float))
    n = z_values.shape[0]
    x2 = np.zeros_like(z_values)
    x2[1:] = -dt * np.cumsum(z_values[:-1], axis=0)
    x2 -= x2.mean(axis=0, keepdims=True)
    if not np.all(np.isfinite(x2)):
        return np.zeros_like(z_values)
    return x2


def default_x_init(z: ObservationSet, dt: float) -> StackedState:
    """Stacked init: observed x1 track plus the hidden-state heuristic for x2."""
    return StackedState.from_arrays(z.values, hidden_x2_estimate(z.values, dt))


def _check_shapes(z: ObservationSet, x: StackedState) -> None:
    if z.n_steps != x.n_steps or z.m != x.m:
        raise DimensionError(
            f"observations are {z.n_steps}x{z.m}, state is {x.n_steps}x{x.m}"
        )


def _objective_parts(x_blocks, z_values, r, lam):
    """1/2 ||z - Hx||^2 + lam/2 ||r||^2 from the residual r = G(x) - eta0."""
    misfit = x_blocks[:, 0::2] - z_values
    return 0.5 * float(np.sum(misfit * misfit)) + 0.5 * lam * float(r @ r)


def objective(
    x: StackedState,
    params: VdpParams,
    anchor: State,
    z: ObservationSet,
    *,
    dt: float = 1.0,
    substeps: int = 1,
    lam: float,
) -> float:
    """Penalty objective f_lam(x, params) with eta0 = [anchor, 0, ..., 0];
    lam = 0 is allowed for diagnostics and reduces it to the pure data misfit."""
    _check_shapes(z, x)
    r = residual(x, params, anchor, dt, substeps) if lam != 0.0 else np.zeros(0)
    return _objective_parts(x.blocks(), z.values, r, lam)


def inner_solve(
    params: VdpParams,
    anchor: State,
    z: ObservationSet,
    cfg: PenaltyConfig,
    x_init: StackedState,
    *,
    dt: float = 1.0,
    substeps: int = 1,
    lam: float,
    tol: float,
    max_iter: int,
) -> InnerResult:
    """Gauss-Newton minimization of f_lam over the stacked state, with the
    constraint anchored at the State `anchor` (eta0 = [anchor, 0, ..., 0]).

    `lam`, `tol` and `max_iter` are one stage of `cfg.stages()`; `cfg` gives
    only the Armijo constant. Stops when the gradient infinity-norm drops to
    `tol` or after `max_iter` steps. Steps solve the block-tridiagonal normal
    equations exactly, then halve under an Armijo test; a step that underflows
    returns the current iterate flagged not-converged.

    It also stops, as converged, at the roundoff floor: when an accepted step
    lowers f by no more than 8 * eps * |f| (eps the float64 machine epsilon),
    the step is kept and the solve ends. At large lam the gradient can bottom
    out above `tol` from roundoff alone, and further steps would only halve
    until they no longer change f.
    """
    _check_shapes(z, x_init)
    if lam <= 0:
        raise ValueError("inner solve requires lam > 0")
    m, n = x_init.m, x_init.n_steps
    b = 2 * m
    eye = np.eye(b)
    x1_slots = np.arange(0, b, 2)

    cur = x_init
    r = residual(cur, params, anchor, dt, substeps)
    f_cur = _objective_parts(cur.blocks(), z.values, r, lam)
    converged = at_floor = False
    grad_inf = math.inf
    iterations = 0
    for iterations in range(max_iter + 1):
        sub = residual_jacobian_x(cur, params, dt, substeps)
        # lam (dG/dx)' r: identity diagonal blocks, sub' on the block above
        r_blocks = r.reshape(n, b)
        grad_blocks = r_blocks.copy()
        grad_blocks[:-1] += np.einsum("kji,kj->ki", sub, r_blocks[1:])
        grad_blocks *= lam
        grad_blocks[:, 0::2] += cur.x1() - z.values
        grad_inf = float(np.max(np.abs(grad_blocks)))
        if grad_inf <= tol or at_floor:
            converged = True
            break
        if iterations == max_iter:
            break
        diag = np.empty((n, b, b))
        diag[:] = lam * eye
        diag[:, x1_slots, x1_slots] += 1.0
        diag[:-1] += lam * np.einsum("kji,kjl->kil", sub, sub)
        delta = solve_block_tridiagonal(diag, lam * sub, -grad_blocks)
        dirderiv = float(np.sum(grad_blocks * delta))
        t = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            try:
                trial = cur.replace_flat((cur.blocks() + t * delta).ravel())
            except ValueError:  # overflowed to non-finite: reject and halve
                t *= 0.5
                continue
            r_trial = residual(trial, params, anchor, dt, substeps)
            f_trial = _objective_parts(trial.blocks(), z.values, r_trial, lam)
            if math.isfinite(f_trial) and f_trial <= f_cur + cfg.armijo_c * t * dirderiv:
                at_floor = f_cur - f_trial <= _ROUNDOFF_DECREASE * abs(f_cur)
                cur, r, f_cur = trial, r_trial, f_trial
                accepted = True
                break
            t *= 0.5
        if not accepted:
            iterations += 1
            break
    return InnerResult(
        x=cur, residual=r, converged=converged, iterations=iterations,
        grad_inf=grad_inf, objective=f_cur,
    )


def value_gradient(
    params: VdpParams,
    anchor: State,
    z: ObservationSet,
    cfg: PenaltyConfig,
    x_init: Optional[StackedState] = None,
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
    """
    if x_init is None:
        x_init = default_x_init(z, dt)
    inner = inner_solve(
        params, anchor, z, cfg, x_init,
        dt=dt, substeps=substeps, lam=lam, tol=tol, max_iter=max_iter,
    )
    jp = residual_jacobian_params(inner.x, params, dt, substeps)
    grad = lam * (jp.T @ inner.residual)
    return ValueGradient(value=inner.objective, gradient=grad, x=inner.x, inner=inner)


def _component_stats(z_values: np.ndarray, x1_fit: np.ndarray) -> list[dict]:
    c, r2 = metrics.component_scores(z_values, x1_fit)
    return [
        {"component": i, "pearson": float(ci), "r_squared": float(ri)}
        for i, (ci, ri) in enumerate(zip(c, r2))
    ]


def _name_bad_component(x: StackedState, r: np.ndarray) -> int:
    bad = ~np.isfinite(x.blocks()) | ~np.isfinite(r.reshape(x.n_steps, 2 * x.m))
    per_comp = bad.reshape(x.n_steps, x.m, 2).any(axis=(0, 2))
    idx = np.nonzero(per_comp)[0]
    return int(idx[0]) if idx.size else 0


def fit(
    z: ObservationSet,
    cfg: PenaltyConfig,
    init: VdpParams,
    x_init: Optional[StackedState] = None,
    *,
    dt: float = 1.0,
    substeps: int = 1,
) -> FitResult:
    """Projected-gradient outer loop over (alpha, W) with inner state solves.

    Sweeps the (lam, inner_tol, inner_max_iter) stages of `cfg.stages()` with
    warm starts, takes Barzilai-Borwein trial steps clipped to the bounds with
    Armijo backtracking on f_tilde, and stops each stage on a parameter-space
    gradient norm below outer_gtol, a relative objective change below
    outer_ftol, or outer_max_iter. The constraint is anchored at x_init's
    first state.
    """
    m = z.m
    if init.m != m:
        raise DimensionError(f"init has {init.m} components, observations have {m}")
    if not cfg.bounds.contains(init, atol=1e-12):
        raise FitError("init violates parameter bounds")
    if x_init is None:
        x_init = default_x_init(z, dt)
    anchor = x_init.state(0)
    _check_shapes(z, x_init)
    stages = cfg.stages()

    with np.errstate(over="ignore", invalid="ignore"):
        r0 = residual(x_init, init, anchor, dt, substeps)
        f0 = _objective_parts(x_init.blocks(), z.values, r0, stages[0][0])
    if not math.isfinite(f0):
        comp = _name_bad_component(x_init, r0)
        raise FitError(
            f"non-finite objective at initial evaluation (component {comp})"
        )

    lo = cfg.bounds.lower(m)
    hi = cfg.bounds.upper(m)
    p = np.clip(init.to_vector(), lo, hi)
    x_cur = x_init
    history: list[tuple[int, float, float]] = []
    outer_count = 0
    reason = "max outer iterations"
    converged = False

    for lam_s, tol_s, cap_s in stages:
        vg = value_gradient(
            VdpParams.from_vector(p, m), anchor, z, cfg, x_cur,
            dt=dt, substeps=substeps, lam=lam_s, tol=tol_s, max_iter=cap_s,
        )
        if not math.isfinite(vg.value):
            comp = _name_bad_component(vg.x, vg.inner.residual)
            raise FitError(
                f"non-finite objective at initial evaluation (component {comp})"
            )
        f, g, x_cur = vg.value, vg.gradient, vg.x
        history.append((outer_count, lam_s, f))
        outer_count += 1
        reason = "max outer iterations"
        converged = False
        t_bb: Optional[float] = None
        for _ in range(cfg.outer_max_iter):
            proj_grad = p - np.clip(p - g, lo, hi)
            if float(np.max(np.abs(proj_grad))) < cfg.outer_gtol:
                reason = "projected gradient below tolerance"
                converged = True
                break
            t = t_bb if t_bb is not None else cfg.outer_step / max(
                float(np.max(np.abs(g))), 1e-12
            )
            accepted = False
            vg_new = None
            for _ in range(_MAX_HALVINGS):
                p_new = np.clip(p - t * g, lo, hi)
                move = p_new - p
                if not np.any(move):
                    break
                vg_new = value_gradient(
                    VdpParams.from_vector(p_new, m), anchor, z, cfg, x_cur,
                    dt=dt, substeps=substeps, lam=lam_s, tol=tol_s, max_iter=cap_s,
                )
                if math.isfinite(vg_new.value) and vg_new.value <= f + cfg.armijo_c * float(
                    g @ move
                ):
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                reason = "line search stalled"
                converged = False
                break
            s_vec = p_new - p
            y_vec = vg_new.gradient - g
            sy = float(s_vec @ y_vec)
            t_bb = float(s_vec @ s_vec) / sy if sy > 1e-18 else None
            if t_bb is not None:
                t_bb = min(max(t_bb, 1e-12), 1e6)
            df = f - vg_new.value
            p, f, g, x_cur = p_new, vg_new.value, vg_new.gradient, vg_new.x
            history.append((outer_count, lam_s, f))
            outer_count += 1
            if abs(df) < cfg.outer_ftol * (1.0 + abs(f)):
                reason = "objective change below tolerance"
                converged = True
                break

    params_hat = VdpParams.from_vector(p, m)
    states = x_cur.to_trajectory(dt)
    return FitResult(
        params=params_hat,
        states=states,
        objective_history=history,
        per_component_stats=_component_stats(z.values, states.x1),
        converged=converged,
        reason=reason,
        config_echo=fit_echo(cfg, dt, substeps),
    )
