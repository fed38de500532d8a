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
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import metrics
from .constraints import (
    residual,
    residual_jacobian_params,
    residual_jacobian_x,
    solve_block_tridiagonal,
    stack_states,
)
from .model import DimensionError, State, Trajectory, VdpParams

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

    Each stage takes at most `outer_max_iter` Levenberg-Marquardt trial steps
    and stops early when the projected gradient falls below the larger of
    `outer_gtol` and the stage's inner tolerance (the value function is
    resolved no finer than that), or a step's max |dp| / (1 + max |p|) falls
    below `outer_ftol`. `armijo_c` is both the gain ratio a trial step must
    beat and the inner line search's Armijo constant.
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
        if states.m != params.m:
            raise ValueError(f"states have {states.m} components, alpha has {params.m}")
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
    x2 = np.zeros_like(z_values)
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


def _objective_parts(x, z, r, lam):
    """1/2 ||z - Hx||^2 + lam/2 ||r||^2 from the residual r = G(x) - eta0."""
    misfit = x[:, 0::2] - z
    return 0.5 * float(np.sum(misfit * misfit)) + 0.5 * lam * float(r @ r)


def _normal_diag(sub: np.ndarray, lam: float) -> np.ndarray:
    """Diagonal blocks of the inner normal matrix A = H'H + lam G_x'G_x, from
    the (N-1, b, b) subdiagonal blocks of G_x; A's subdiagonal is lam * sub."""
    n, b = len(sub) + 1, sub.shape[1]
    diag = np.empty((n, b, b))
    diag[:] = lam * np.eye(b)
    x1_slots = np.arange(0, b, 2)
    diag[:, x1_slots, x1_slots] += 1.0
    diag[:-1] += lam * (sub.transpose(0, 2, 1) @ sub)
    return diag


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
    equations exactly, then halve under an Armijo test; a step that underflows
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
    n, b = x_init.shape

    cur = x_init
    r = residual(cur, params, anchor, dt, substeps)
    f_cur = _objective_parts(cur, z, r, lam)
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
        grad_blocks[:, 0::2] += cur[:, 0::2] - z
        grad_inf = float(np.max(np.abs(grad_blocks)))
        if grad_inf <= tol or at_floor:
            converged = True
            break
        if iterations == max_iter:
            break
        delta = solve_block_tridiagonal(_normal_diag(sub, lam), lam * sub, -grad_blocks)
        dirderiv = float(np.sum(grad_blocks * delta))
        t = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            trial = cur + t * delta
            if not np.isfinite(trial).all():  # overflowed: reject and halve
                t *= 0.5
                continue
            r_trial = residual(trial, params, anchor, dt, substeps)
            f_trial = _objective_parts(trial, z, r_trial, lam)
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
        x=cur, residual=r, jac_x=sub, converged=converged, iterations=iterations,
        grad_inf=grad_inf, objective=f_cur,
    )


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
    """
    z = check_observations(z)
    if x_init is None:
        x_init = default_x_init(z, dt)
    inner = inner_solve(
        params, anchor, z, cfg, x_init,
        dt=dt, substeps=substeps, lam=lam, tol=tol, max_iter=max_iter,
    )
    jp = residual_jacobian_params(inner.x, params, dt, substeps)
    grad = lam * (jp.T @ inner.residual)
    return ValueGradient(
        value=inner.objective, gradient=grad, x=inner.x, inner=inner, jac_params=jp
    )


def reduced_jacobian(vg: ValueGradient, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """J of the reduced residual r(p) = [z - Hx*; sqrt(lam) (G(x*, p) - eta0)]
    at vg's inner minimizer x*, and the sensitivity dx*/dp it is built from.

    dx*/dp = -A^-1 lam G_x'G_p, with A the inner normal matrix at x*, costs one
    banded solve with p = 2m + m^2 right-hand sides. J is (N*m + 2*m*N, p):
    the N x1-misfit rows (time-major, component-minor) above the 2*m*N
    constraint rows; dx*/dp is (N, 2m, p) in stacked-state block layout.
    """
    sub = vg.inner.jac_x
    n, b = vg.x.shape
    gp = vg.jac_params.reshape(n, b, -1)
    gx_t_gp = gp.copy()  # G_x' G_p: identity diagonal, sub' above
    gx_t_gp[:-1] += sub.transpose(0, 2, 1) @ gp[1:]
    dx_dp = solve_block_tridiagonal(_normal_diag(sub, lam), lam * sub, -lam * gx_t_gp)
    dg_dp = dx_dp + gp  # G_x dx*/dp + G_p: identity diagonal, sub below
    dg_dp[1:] += sub @ dx_dp[:-1]
    jac = np.concatenate([-dx_dp[:, 0::2].reshape(n * b // 2, -1),
                          math.sqrt(lam) * dg_dp.reshape(n * b, -1)])
    return jac, dx_dp


def _component_stats(z_values: np.ndarray, x1_fit: np.ndarray) -> list[dict]:
    c, r2 = metrics.component_scores(z_values, x1_fit)
    return [
        {"component": i, "pearson": float(ci), "r_squared": float(ri)}
        for i, (ci, ri) in enumerate(zip(c, r2))
    ]


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
    state solves.

    Sweeps the (lam, inner_tol, inner_max_iter) stages of `cfg.stages()` with
    warm starts. Each stage damps the Gauss-Newton matrix J'J of
    `reduced_jacobian` with Marquardt's diagonal scaling, mu starting at
    1e-3 * max diag(J'J), clips each trial step to the bounds, and accepts it
    when its gain ratio (actual over predicted decrease of f_tilde) exceeds
    `cfg.armijo_c`; mu then shrinks by Nielsen's rule, and a rejection
    quadruples it. A damped matrix whose Cholesky factorization fails (mu
    below the roundoff of J'J) also counts as a rejection. Each trial's inner
    solve starts from the first-order prediction x* + (dx*/dp) dp of its
    minimizer, or from x* when that is not finite. A stage stops on a
    projected gradient below max(outer_gtol, the stage's inner tolerance), a
    step with max |dp| / (1 + max |p|) below outer_ftol, or outer_max_iter
    trial steps. The (N, 2m) x_init, by default `default_x_init(z, dt)`,
    starts the solve, and its first state anchors the constraint.
    """
    z = check_observations(z)
    m = z.shape[1]
    if init.m != m:
        raise DimensionError(f"init has {init.m} components, observations have {m}")
    if not cfg.bounds.contains(init, atol=1e-12):
        raise FitError("init violates parameter bounds")
    if x_init is None:
        x_init = default_x_init(z, dt)
    _check_shapes(z, x_init)
    anchor = State(x1=x_init[0, 0::2], x2=x_init[0, 1::2])
    stages = cfg.stages()

    with np.errstate(over="ignore", invalid="ignore"):
        r0 = residual(x_init, init, anchor, dt, substeps)
        f0 = _objective_parts(x_init, z, r0, stages[0][0])
    if not math.isfinite(f0):
        raise _nonfinite_start(x_init, r0)

    lo = cfg.bounds.lower(m)
    hi = cfg.bounds.upper(m)
    p = np.clip(init.to_vector(), lo, hi)
    x_cur = x_init
    history: list[tuple[int, float, float]] = []
    outer_count = 0
    reason = "max outer iterations"
    converged = False

    for lam_s, tol_s, cap_s in stages:
        stage = dict(dt=dt, substeps=substeps, lam=lam_s, tol=tol_s, max_iter=cap_s)
        vg = value_gradient(VdpParams.from_vector(p, m), anchor, z, cfg, x_cur, **stage)
        if not math.isfinite(vg.value):
            raise _nonfinite_start(vg.x, vg.inner.residual)
        history.append((outer_count, lam_s, vg.value))
        outer_count += 1
        reason = "max outer iterations"
        converged = False
        jtj = mu = None
        gtol = max(cfg.outer_gtol, tol_s)  # f_tilde is resolved only to tol_s
        for _ in range(cfg.outer_max_iter):
            g = vg.gradient
            if float(np.max(np.abs(p - np.clip(p - g, lo, hi)))) < gtol:
                reason = "projected gradient below tolerance"
                converged = True
                break
            if jtj is None:
                jac, dx_dp = reduced_jacobian(vg, lam_s)
                jtj = jac.T @ jac
                scale = np.diag(jtj).copy()
                scale[scale <= 0] = 1.0  # a parameter nothing depends on: unit scale
                if mu is None:
                    mu = 1e-3 * float(np.max(scale))
            try:
                step = cho_solve(cho_factor(jtj + np.diag(mu * scale)), g)
            except np.linalg.LinAlgError:  # mu * scale fell below J'J's roundoff
                mu *= 4.0
                continue
            p_new = np.clip(p - step, lo, hi)
            move = p_new - p
            if float(np.max(np.abs(move))) < cfg.outer_ftol * (1.0 + float(np.max(np.abs(p)))):
                reason = "step below tolerance"
                converged = True
                break
            predicted = -float(g @ move) - 0.5 * float(move @ jtj @ move)
            # first-order prediction x* + dx*/dp move of the new minimizer
            x_start = vg.x + (dx_dp.reshape(-1, p.size) @ move).reshape(vg.x.shape)
            if not np.isfinite(x_start).all():
                x_start = vg.x
            vg_new = value_gradient(
                VdpParams.from_vector(p_new, m), anchor, z, cfg, x_start, **stage
            )
            rho = (vg.value - vg_new.value) / predicted if predicted > 0 else -math.inf
            if not rho > cfg.armijo_c:  # also rejects a non-finite value
                mu *= 4.0
                continue
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            p, vg, jtj = p_new, vg_new, None
            history.append((outer_count, lam_s, vg.value))
            outer_count += 1
        x_cur = vg.x

    params_hat = VdpParams.from_vector(p, m)
    states = Trajectory(x1=x_cur[:, 0::2].copy(), x2=x_cur[:, 1::2].copy(), dt=dt)
    return FitResult(
        params=params_hat,
        states=states,
        objective_history=history,
        per_component_stats=_component_stats(z, states.x1),
        converged=converged,
        reason=reason,
        config_echo=fit_echo(cfg, dt, substeps),
    )
