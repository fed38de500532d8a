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

One scorer, `_scored`, scores every candidate (the start, the proposals, each
refinement) in one batched rollout, and a `Candidate` keeps the track it was
scored on: refinements start from it and results report it, so no candidate
is simulated twice.

The draws never depend on the incumbent, so a round draws all its proposals
up front and scores them in speculative batches: the rest of the round is
built from the incumbent and integrated in one batched rollout, and its rows
are scored in order up to the first accept. Fitness values, accepts, trace
rows and results are those of `propose` called once per proposal, bit for
bit; a round costs accepts + 1 rollouts instead of one per proposal.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import IO, Iterator, Optional

import numpy as np

from . import metrics
from .constraints import stack_states
from .estimator import (
    FitError,
    FitResult,
    ParamBounds,
    PenaltyConfig,
    _component_stats,
    check_interval,
    check_observations,
    fit,
    fit_echo,
    hidden_x2_estimate,
)
from .model import (
    DimensionError,
    Trajectory,
    VdpParams,
    rollout,
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
        for name in ("gamma", "plateau_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
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
    `track` is the simulation it was scored on (None if it diverged) and
    `result` the refinement it came from, if any.
    """

    params: VdpParams
    x2_init: np.ndarray
    fitness: float
    provenance: tuple[int, int, str] = (0, 0, "init")
    track: Optional[Trajectory] = None
    result: Optional[FitResult] = None

    @property
    def valid(self) -> bool:
        return math.isfinite(self.fitness)


def combine_scores(c: np.ndarray, r2: np.ndarray, gamma: float) -> float:
    """min_i (c_i + gamma * R2_i); any undefined component makes it -inf."""
    vals = np.asarray(c, dtype=float) + gamma * np.asarray(r2, dtype=float)
    if np.any(~np.isfinite(vals)):
        return -math.inf
    return float(np.min(vals))


def fitness(z: np.ndarray, sim: Trajectory, gamma: float) -> float:
    """Fitness of a simulated trajectory against observations.

    A zero-variance track on either side leaves that component's correlation
    undefined and the whole candidate scores -inf. Tracks of different shapes
    raise DimensionError.
    """
    c, r2 = metrics.component_scores(z, sim.x1)
    return combine_scores(c, r2, gamma)


def _scored(z: np.ndarray, pairs: list[tuple[VdpParams, np.ndarray]], gamma: float,
            dt: float, substeps: int) -> Iterator[Candidate]:
    """The one scorer: integrate the (params, x2_init) pairs from the first
    observation in one rollout and yield their Candidates in order. Scoring is
    lazy, so a caller that stops early scores no further rows."""
    x2 = np.stack([x2_init for _, x2_init in pairs])
    x1 = np.broadcast_to(z[0], x2.shape)
    out1, out2, diverged = rollout([p for p, _ in pairs], x1, x2, len(z), dt, substeps)
    for k, (params, x2_init) in enumerate(pairs):
        if diverged[k]:
            yield Candidate(params, x2_init, -math.inf)
        else:  # contiguous copies of the row equal a lone simulate's track bit for bit
            track = Trajectory(x1=out1[:, k].copy(), x2=out2[:, k].copy(), dt=dt)
            yield Candidate(params, x2_init, fitness(z, track, gamma), track=track)


def _draw(m: int, sc: StepScales, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """The one consumer of the proposal RNG: a uniformly chosen group and its
    Gaussian noise. Groups are m alpha rows, m^2 coupling entries and m x2
    entries; the draws never depend on the incumbent."""
    pick = int(rng.integers(0, m + m * m + m))
    if pick < m:
        noise = rng.normal(0.0, sc.alpha, size=2)
    elif pick < m + m * m:
        noise = rng.normal(0.0, sc.coupling)
    else:
        noise = rng.normal(0.0, sc.x2)
    return pick, noise


def _perturb(
    current: Candidate,
    draw: tuple[int, np.ndarray],
    bounds: ParamBounds,
    x2_bounds: tuple[float, float],
) -> tuple[VdpParams, np.ndarray]:
    """Apply a draw to the incumbent, clipped to `bounds` (x2 to `x2_bounds`)."""
    pick, noise = draw
    m = current.params.m
    alpha = current.params.alpha.copy()
    coupling = current.params.coupling.copy()
    x2_init = np.asarray(current.x2_init, dtype=float).copy()
    if pick < m:
        alpha[pick] += noise
        alpha[pick, 0] = np.clip(alpha[pick, 0], *bounds.alpha1)
        alpha[pick, 1] = np.clip(alpha[pick, 1], *bounds.alpha2)
    elif pick < m + m * m:
        i, j = divmod(pick - m, m)
        coupling[i, j] = np.clip(coupling[i, j] + noise, *bounds.coupling)
    else:
        i = pick - m - m * m
        x2_init[i] = np.clip(x2_init[i] + noise, *x2_bounds)
    return VdpParams(alpha=alpha, coupling=coupling), x2_init


def propose(
    current: Candidate,
    z: np.ndarray,
    cfg: SearchConfig,
    rng: np.random.Generator,
    *,
    dt: float = 1.0,
    substeps: int = 1,
    scales: Optional[StepScales] = None,
    bounds: ParamBounds = ParamBounds(),
) -> Candidate:
    """One Gaussian perturbation of a uniformly chosen group, clipped to
    `bounds` (and x2 to cfg.x2_bounds) and scored on its own. The search
    round draws and perturbs through the same helpers, so a one-at-a-time
    loop over `propose` is its reference."""
    draw = _draw(current.params.m, scales or cfg.step_scales, rng)
    return next(_scored(z, [_perturb(current, draw, bounds, cfg.x2_bounds)],
                        cfg.gamma, dt, substeps))


def _run_round(
    z: np.ndarray,
    best: Candidate,
    cfg: SearchConfig,
    rng: np.random.Generator,
    scales: StepScales,
    bounds: ParamBounds,
    dt: float,
    substeps: int,
    round_idx: int,
    trace: Optional[IO[str]],
) -> tuple[Candidate, int]:
    """One greedy round of cfg.proposals_per_round proposals in speculative
    batches (see the module docstring); returns the round's best and its
    invalid count. A one-at-a-time loop over `propose` gives the same bits."""
    draws = [_draw(z.shape[1], scales, rng) for _ in range(cfg.proposals_per_round)]
    invalid = 0
    start = 0
    while start < len(draws):
        built = [_perturb(best, d, bounds, cfg.x2_bounds) for d in draws[start:]]
        for k, cand in enumerate(_scored(z, built, cfg.gamma, dt, substeps)):
            invalid += not cand.valid
            accepted = cand.fitness > best.fitness
            _trace_row(trace, round_idx, start + k, cand.fitness, accepted)
            if accepted:
                best = replace(cand, provenance=(round_idx, start + k, "proposal"))
                break
        start += k + 1
    return best, invalid


def _trace_row(sink: Optional[IO[str]], round_idx: int, proposal: int, f: float,
               accepted: bool) -> None:
    if sink is not None:
        rec = {"round": round_idx, "proposal": proposal,
               "fitness": f if math.isfinite(f) else None, "accepted": accepted}
        sink.write(json.dumps(rec) + "\n")


def search_and_refine(
    z: np.ndarray,
    search_cfg: SearchConfig,
    vp_cfg: PenaltyConfig,
    *,
    dt: float = 1.0,
    substeps: int = 1,
    init: Optional[VdpParams] = None,
    x2_init: Optional[np.ndarray] = None,
    trace: Optional[IO[str]] = None,
) -> FitResult:
    """Alternate greedy random-walk rounds with VP refinement on (N, m) z.

    Stops on max_rounds or when the best fitness has improved by less than
    plateau_tol for `patience` consecutive rounds. With max_rounds=0 this is
    exactly a single VP fit from the initial parameters; a given x2_init
    (clipped to x2_bounds) then seeds its hidden track, shifted from the
    `hidden_x2_estimate` heuristic so that it starts at x2_init, which makes
    the fit's anchor the search's start state. Candidate scoring and
    the VP fits both integrate with `substeps` Euler substeps per sample.
    vp_cfg.bounds clips the initial candidate and every proposal.
    Raises FitError when no candidate survives to the end.
    """
    z = check_observations(z)
    m = z.shape[1]
    if init is None:
        init = VdpParams(alpha=np.ones((m, 2)), coupling=np.zeros((m, m)))
    init_x2 = np.zeros(m) if x2_init is None else np.asarray(x2_init, dtype=float)
    if init.m != m or init_x2.shape != (m,):
        raise DimensionError("init/x2_init dimensions must match observations")

    gamma = search_cfg.gamma
    rng = np.random.default_rng(search_cfg.seed)
    init_params = vp_cfg.bounds.clip_params(init)
    init_x2 = np.clip(init_x2, *search_cfg.x2_bounds)

    if search_cfg.max_rounds == 0:
        x_init = None
        if x2_init is not None:
            x2 = hidden_x2_estimate(z, dt)
            x_init = stack_states(z, x2 - x2[0] + init_x2)
        return fit(z, vp_cfg, init_params, x_init, dt=dt, substeps=substeps)

    best = next(_scored(z, [(init_params, init_x2)], gamma, dt, substeps))
    scales = search_cfg.step_scales
    halved_once = False
    all_invalid_rounds = 0
    invalid_candidates = 0
    no_improve = 0
    stop_reason = "max rounds"
    rounds_run = 0

    for round_idx in range(1, search_cfg.max_rounds + 1):
        rounds_run = round_idx
        round_start = best
        best, invalid = _run_round(z, best, search_cfg, rng, scales, vp_cfg.bounds,
                                   dt, substeps, round_idx, trace)
        invalid_candidates += invalid
        if invalid == search_cfg.proposals_per_round:
            all_invalid_rounds += 1
            if not halved_once:
                scales = scales.halved()
                halved_once = True
        if round_idx % search_cfg.vp_every == 0 or round_idx == search_cfg.max_rounds:
            vp_candidate = _run_vp(z, best, vp_cfg, gamma, dt, substeps, round_idx)
            accepted = vp_candidate is not None and vp_candidate.fitness > best.fitness
            if vp_candidate is not None:
                _trace_row(trace, round_idx, -1, vp_candidate.fitness, accepted)
            if accepted:
                best = vp_candidate
        # -inf - -inf is nan (no improvement); finite - -inf is +inf (improvement)
        if best.fitness - round_start.fitness > search_cfg.plateau_tol:
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
    if best.result is not None:
        best.result.config_echo = echo
        return best.result
    if best.track is None:
        raise FitError(
            "search found no candidate that simulates without divergence; "
            f"stop_reason={stop_reason}"
        )
    return FitResult(
        params=best.params,
        states=best.track,
        objective_history=[],
        per_component_stats=_component_stats(z, best.track.x1),
        converged=stop_reason == "fitness plateau",
        reason=f"search stopped: {stop_reason}",
        config_echo=echo,
    )


def _run_vp(z: np.ndarray, best: Candidate, vp_cfg: PenaltyConfig, gamma: float,
            dt: float, substeps: int, round_idx: int) -> Optional[Candidate]:
    """Refine `best` with a VP fit seeded from its track; None if the fit fails."""
    try:
        x_init = None if best.track is None else stack_states(best.track.x1, best.track.x2)
        result = fit(z, vp_cfg, best.params, x_init, dt=dt, substeps=substeps)
    except (FitError, ValueError, np.linalg.LinAlgError):
        return None
    cand = next(_scored(z, [(result.params, result.states.x2[0])], gamma, dt, substeps))
    return replace(cand, provenance=(round_idx, -1, "vp"), result=result)
