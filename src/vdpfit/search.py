"""Greedy random-walk search over parameters and initial hidden states.

Candidates are scored by simulating forward from (x1 = first observation,
x2 = candidate x2_init) and taking the fitness

    f = min_i (c_i + gamma * R2_i)

over components, where c_i is the Pearson correlation and R2_i the coefficient
of determination between observed and simulated activity, both taken from
`metrics.component_scores`, the one per-component scorer. Proposals perturb a
single randomly chosen group (one alpha row, one W entry, or one x2_init
entry); only strictly better fitness replaces the incumbent. Every `vp_every`
rounds the incumbent seeds a variable-projection fit and the better of the two
survives.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import IO, Optional

import numpy as np

from . import metrics
from .constraints import StackedState
from .estimator import (
    FitError,
    FitResult,
    ParamBounds,
    PenaltyConfig,
    _component_stats,
    check_interval,
    fit,
    fit_echo,
)
from .model import (
    DimensionError,
    ObservationSet,
    SimulationDiverged,
    State,
    Trajectory,
    VdpParams,
    simulate,
)


@dataclass(frozen=True)
class StepScales:
    """Proposal standard deviations per perturbation group."""

    alpha: float = 0.2
    coupling: float = 0.1
    x2: float = 0.5

    def __post_init__(self):
        for name in ("alpha", "coupling", "x2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def halved(self) -> "StepScales":
        return StepScales(self.alpha / 2, self.coupling / 2, self.x2 / 2)


@dataclass(frozen=True)
class SearchConfig:
    gamma: float = 1.0
    step_scales: StepScales = field(default_factory=StepScales)
    max_rounds: int = 50
    proposals_per_round: int = 50
    vp_every: int = 5
    seed: int = 0
    patience: int = 20
    x2_bounds: tuple[float, float] = (-5.0, 5.0)
    plateau_tol: float = 1e-6

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        for name in ("proposals_per_round", "vp_every", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        check_interval("x2_bounds", self.x2_bounds)


@dataclass(frozen=True)
class Candidate:
    """A scored point in (params, x2_init) space.

    `provenance` is (round, proposal index, accepted-from tag); fitness is
    -inf for invalid candidates (diverged simulation or degenerate tracks).
    """

    params: VdpParams
    x2_init: np.ndarray
    fitness: float
    provenance: tuple[int, int, str] = (0, 0, "init")

    @property
    def valid(self) -> bool:
        return math.isfinite(self.fitness)


def combine_scores(c: np.ndarray, r2: np.ndarray, gamma: float) -> float:
    """min_i (c_i + gamma * R2_i); any undefined component makes it -inf."""
    vals = np.asarray(c, dtype=float) + gamma * np.asarray(r2, dtype=float)
    if np.any(~np.isfinite(vals)):
        return -math.inf
    return float(np.min(vals))


def fitness(z: ObservationSet, sim: Trajectory, gamma: float) -> float:
    """Fitness of a simulated trajectory against observations.

    A zero-variance track on either side leaves that component's correlation
    undefined and the whole candidate scores -inf. Tracks of different shapes
    raise DimensionError.
    """
    c, r2 = metrics.component_scores(z.values, sim.x1)
    return combine_scores(c, r2, gamma)


def _simulate_candidate(
    z: ObservationSet, params: VdpParams, x2_init: np.ndarray, dt: float, substeps: int
) -> Optional[Trajectory]:
    s0 = State(x1=z.values[0].copy(), x2=np.asarray(x2_init, dtype=float))
    try:
        return simulate(params, s0, z.n_steps, dt, substeps)
    except SimulationDiverged:
        return None


def score_candidate(
    z: ObservationSet,
    params: VdpParams,
    x2_init: np.ndarray,
    gamma: float,
    dt: float,
    substeps: int = 1,
) -> float:
    sim = _simulate_candidate(z, params, x2_init, dt, substeps)
    if sim is None:
        return -math.inf
    return fitness(z, sim, gamma)


def propose(
    current: Candidate,
    z: ObservationSet,
    cfg: SearchConfig,
    rng: np.random.Generator,
    *,
    dt: float = 1.0,
    substeps: int = 1,
    scales: Optional[StepScales] = None,
    bounds: ParamBounds = ParamBounds(),
) -> Candidate:
    """One Gaussian perturbation of a uniformly chosen group, clipped to
    `bounds` (and x2 to cfg.x2_bounds) and scored."""
    sc = scales or cfg.step_scales
    m = current.params.m
    alpha = current.params.alpha.copy()
    coupling = current.params.coupling.copy()
    x2_init = np.asarray(current.x2_init, dtype=float).copy()
    # groups: m alpha rows, m^2 coupling entries, m x2 entries
    pick = int(rng.integers(0, m + m * m + m))
    if pick < m:
        alpha[pick] += rng.normal(0.0, sc.alpha, size=2)
        alpha[pick, 0] = np.clip(alpha[pick, 0], *bounds.alpha1)
        alpha[pick, 1] = np.clip(alpha[pick, 1], *bounds.alpha2)
    elif pick < m + m * m:
        flat_idx = pick - m
        i, j = divmod(flat_idx, m)
        coupling[i, j] = np.clip(
            coupling[i, j] + rng.normal(0.0, sc.coupling), *bounds.coupling
        )
    else:
        i = pick - m - m * m
        x2_init[i] = np.clip(x2_init[i] + rng.normal(0.0, sc.x2), *cfg.x2_bounds)
    params = VdpParams(alpha=alpha, coupling=coupling)
    f = score_candidate(z, params, x2_init, cfg.gamma, dt, substeps)
    return Candidate(params=params, x2_init=x2_init, fitness=f)


def _trace_row(sink: Optional[IO[str]], round_idx: int, proposal: int, f: float,
               accepted: bool) -> None:
    if sink is not None:
        rec = {"round": round_idx, "proposal": proposal,
               "fitness": f if math.isfinite(f) else None, "accepted": accepted}
        sink.write(json.dumps(rec) + "\n")


def search_and_refine(
    z: ObservationSet,
    search_cfg: SearchConfig,
    vp_cfg: PenaltyConfig,
    *,
    dt: float = 1.0,
    substeps: int = 1,
    init: Optional[VdpParams] = None,
    x2_init: Optional[np.ndarray] = None,
    trace: Optional[IO[str]] = None,
) -> FitResult:
    """Alternate greedy random-walk rounds with VP refinement.

    Stops on max_rounds or when the best fitness has improved by less than
    plateau_tol for `patience` consecutive rounds. With max_rounds=0 this is
    exactly a single VP fit from the initial parameters. Candidate scoring and
    the VP fits both integrate with `substeps` Euler substeps per sample.
    vp_cfg.bounds clips the initial candidate and every proposal.
    Raises FitError when no candidate survives to the end.
    """
    m = z.m
    if init is None:
        init = VdpParams(alpha=np.ones((m, 2)), coupling=np.zeros((m, m)))
    x2_init = np.zeros(m) if x2_init is None else np.asarray(x2_init, dtype=float)
    if init.m != m or x2_init.shape != (m,):
        raise DimensionError("init/x2_init dimensions must match observations")

    gamma = search_cfg.gamma
    rng = np.random.default_rng(search_cfg.seed)
    init_params = vp_cfg.bounds.clip_params(init)

    if search_cfg.max_rounds == 0:
        return fit(z, vp_cfg, init_params, dt=dt, substeps=substeps)

    init_x2 = np.clip(x2_init, *search_cfg.x2_bounds)
    best = Candidate(
        params=init_params,
        x2_init=init_x2,
        fitness=score_candidate(z, init_params, init_x2, gamma, dt, substeps),
        provenance=(0, 0, "init"),
    )
    best_fit_result: Optional[FitResult] = None
    scales = search_cfg.step_scales
    halved_once = False
    all_invalid_rounds = 0
    invalid_candidates = 0
    no_improve = 0
    stop_reason = "max rounds"
    rounds_run = 0

    for round_idx in range(1, search_cfg.max_rounds + 1):
        rounds_run = round_idx
        round_start_fitness = best.fitness
        any_valid = False
        for j in range(search_cfg.proposals_per_round):
            cand = propose(best, z, search_cfg, rng, dt=dt, substeps=substeps,
                           scales=scales, bounds=vp_cfg.bounds)
            if cand.valid:
                any_valid = True
            else:
                invalid_candidates += 1
            accepted = cand.fitness > best.fitness
            _trace_row(trace, round_idx, j, cand.fitness, accepted)
            if accepted:
                best = replace(cand, provenance=(round_idx, j, "proposal"))
                best_fit_result = None
        if not any_valid:
            all_invalid_rounds += 1
            if not halved_once:
                scales = scales.halved()
                halved_once = True
        if round_idx % search_cfg.vp_every == 0 or round_idx == search_cfg.max_rounds:
            vp_candidate, vp_result = _run_vp(z, best, vp_cfg, gamma, dt, substeps, round_idx)
            accepted = vp_candidate is not None and vp_candidate.fitness > best.fitness
            if vp_candidate is not None:
                _trace_row(trace, round_idx, -1, vp_candidate.fitness, accepted)
            if accepted:
                best = vp_candidate
                best_fit_result = vp_result
        # -inf - -inf is nan (no improvement); finite - -inf is +inf (improvement)
        if best.fitness - round_start_fitness > search_cfg.plateau_tol:
            no_improve = 0
        else:
            no_improve += 1
        if no_improve >= search_cfg.patience:
            stop_reason = "fitness plateau"
            break

    search_echo = {
        **asdict(search_cfg),
        "stop_reason": stop_reason,
        "rounds": rounds_run,
        "best_fitness": best.fitness if math.isfinite(best.fitness) else None,
        "best_provenance": list(best.provenance),
        "invalid_candidates": invalid_candidates,
        "all_invalid_rounds": all_invalid_rounds,
        "scales_halved": halved_once,
    }
    echo = {**fit_echo(vp_cfg, dt, substeps), "search": search_echo}
    if best_fit_result is not None:
        best_fit_result.config_echo = echo
        return best_fit_result
    sim = _simulate_candidate(z, best.params, best.x2_init, dt, substeps)
    if sim is None:
        raise FitError(
            "search found no candidate that simulates without divergence; "
            f"stop_reason={stop_reason}"
        )
    return FitResult(
        params=best.params,
        states=sim,
        objective_history=[],
        per_component_stats=_component_stats(z.values, sim.x1),
        converged=stop_reason == "fitness plateau",
        reason=f"search stopped: {stop_reason}",
        config_echo=echo,
    )


def _run_vp(
    z: ObservationSet,
    best: Candidate,
    vp_cfg: PenaltyConfig,
    gamma: float,
    dt: float,
    substeps: int,
    round_idx: int,
) -> tuple[Optional[Candidate], Optional[FitResult]]:
    try:
        sim = _simulate_candidate(z, best.params, best.x2_init, dt, substeps)
        x_init = StackedState.from_trajectory(sim) if sim is not None else None
        result = fit(z, vp_cfg, best.params, x_init, dt=dt, substeps=substeps)
    except (FitError, SimulationDiverged, ValueError, np.linalg.LinAlgError):
        return None, None
    x2_hat = result.states.x2[0]
    f_vp = score_candidate(z, result.params, x2_hat, gamma, dt, substeps)
    return Candidate(result.params, x2_hat, f_vp, provenance=(round_idx, -1, "vp")), result
