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
refinement): one batched rollout and one `component_scores` call per batch.
A `Candidate` keeps the track it was scored on: refinements start from it and
results report it, so no candidate is simulated twice.

The draws never depend on the incumbent, so a round draws all its proposals
up front and scores them in speculative batches: the rest of the round is
built from the incumbent in one stacked build (`_proposals`), integrated in
one batched rollout and scored in one call, and its rows are taken in order
up to the first accept. A round costs accepts + 1 rollouts instead of one per
proposal. Proposals need the start's parameters but not its fitness, so the
start rides in round 1's first rollout as row 0. Fitness values, accepts,
trace rows and results are those of scoring the start alone and calling
`propose` once per proposal, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import IO, Iterator, Optional

import numpy as np

from . import metrics
from .constraints import stack_states
from .data import write_json
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
    -inf for invalid candidates (diverged simulation, degenerate tracks or a
    failed refinement fit), and NaN for the search's start until round 1 scores it.
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


def combine_scores(c: np.ndarray, r2: np.ndarray, gamma: float) -> np.ndarray:
    """min_i (c_i + gamma * R2_i) over the last axis of (..., m) scores: one
    fitness per row, -inf for a row with any undefined component."""
    with np.errstate(invalid="ignore"):  # 0 * inf: an undefined row either way
        vals = np.asarray(c, dtype=float) + gamma * np.asarray(r2, dtype=float)
    return np.where(np.isfinite(vals).all(axis=-1), vals.min(axis=-1), -math.inf)


def _scored(z: np.ndarray, params: VdpParams, x2: np.ndarray, gamma: float,
            dt: float, substeps: int) -> Iterator[Candidate]:
    """The one scorer: integrate R stacked params from the first observation
    and the (R, m) x2 starts in one rollout, score every row in one call, and
    yield the rows' Candidates in order. A row's Candidate and the copy of its
    track are built only when the caller takes it."""
    out1, out2, diverged = rollout(params, np.broadcast_to(z[0], x2.shape), x2, len(z),
                                   dt, substeps)
    fit = combine_scores(*metrics.component_scores(z, np.moveaxis(out1, 1, 0)), gamma)
    for k in range(len(x2)):
        if diverged[k]:
            yield Candidate(params[k], x2[k], -math.inf)
        else:  # contiguous copies of the row equal a lone simulate's track bit for bit
            track = Trajectory(x1=out1[:, k].copy(), x2=out2[:, k].copy(), dt=dt)
            yield Candidate(params[k], x2[k], float(fit[k]), track=track)


def _draws(m: int, sc: StepScales, rng: np.random.Generator,
           count: int) -> tuple[np.ndarray, np.ndarray]:
    """The one consumer of the proposal RNG: `count` uniformly chosen groups,
    (count,), and their Gaussian noise, (count, 2), a one-entry group's in
    column 0. Groups are m alpha rows, m^2 coupling entries and m x2 entries;
    the draws never depend on the incumbent."""
    picks = np.empty(count, dtype=int)
    noise = np.zeros((count, 2))
    for k in range(count):
        picks[k] = pick = int(rng.integers(0, m + m * m + m))
        if pick < m:
            noise[k] = rng.normal(0.0, sc.alpha, size=2)
        elif pick < m + m * m:
            noise[k, 0] = rng.normal(0.0, sc.coupling)
        else:
            noise[k, 0] = rng.normal(0.0, sc.x2)
    return picks, noise


def _proposals(
    current: Candidate,
    picks: np.ndarray,
    noise: np.ndarray,
    bounds: ParamBounds,
    x2_bounds: tuple[float, float],
    include_current: bool = False,
) -> tuple[VdpParams, np.ndarray]:
    """The incumbent with each draw applied, clipped to `bounds` (x2 to
    `x2_bounds`): R stacked params and their (R, m) x2 starts, checked once.
    With `include_current`, row 0 is the incumbent itself and draw k goes to
    row k + 1."""
    m = current.params.m
    n = len(picks) + include_current
    rows = np.arange(include_current, n)
    alpha = np.repeat(current.params.alpha[None], n, axis=0)
    coupling = np.repeat(current.params.coupling[None], n, axis=0)
    x2 = np.repeat(np.asarray(current.x2_init, dtype=float)[None], n, axis=0)
    g = picks < m
    r, i = rows[g], picks[g]
    alpha[r, i, 0] = np.clip(alpha[r, i, 0] + noise[g, 0], *bounds.alpha1)
    alpha[r, i, 1] = np.clip(alpha[r, i, 1] + noise[g, 1], *bounds.alpha2)
    g = (picks >= m) & (picks < m + m * m)
    r, (i, j) = rows[g], np.divmod(picks[g] - m, m)
    coupling[r, i, j] = np.clip(coupling[r, i, j] + noise[g, 0], *bounds.coupling)
    g = picks >= m + m * m
    r, i = rows[g], picks[g] - m - m * m
    x2[r, i] = np.clip(x2[r, i] + noise[g, 0], *x2_bounds)
    return VdpParams(alpha=alpha, coupling=coupling), x2


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
    round draws and builds through the same helpers, so a one-at-a-time
    loop over `propose` is its reference."""
    draws = _draws(current.params.m, scales or cfg.step_scales, rng, 1)
    return next(_scored(z, *_proposals(current, *draws, bounds, cfg.x2_bounds),
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
) -> tuple[Candidate, Candidate, int]:
    """One greedy round of cfg.proposals_per_round proposals in speculative
    batches (see the module docstring). A `best` of NaN fitness is the unscored
    start, which rides in the first rollout as row 0. Returns the scored
    incumbent the round started from, the round's best and its invalid count.
    A one-at-a-time loop over `propose` gives the same bits."""
    picks, noise = _draws(z.shape[1], scales, rng, cfg.proposals_per_round)
    first = None if math.isnan(best.fitness) else best
    invalid = 0
    start = 0
    while start < len(picks):
        built = _proposals(best, picks[start:], noise[start:], bounds, cfg.x2_bounds,
                           include_current=first is None)
        rows = _scored(z, *built, cfg.gamma, dt, substeps)
        if first is None:
            first = best = next(rows)
        for k, cand in enumerate(rows, start):
            invalid += not cand.valid
            accepted = cand.fitness > best.fitness
            _trace_row(trace, round_idx, k, cand.fitness, accepted)
            if accepted:
                best = replace(cand, provenance=(round_idx, k, "proposal"))
                break
        start = k + 1
    return first, best, invalid


def _trace_row(sink: Optional[IO[str]], round_idx: int, proposal: int, f: float,
               accepted: bool) -> None:
    if sink is not None:
        write_json({"round": round_idx, "proposal": proposal, "fitness": f,
                    "accepted": accepted}, sink)


def vp_start(z: np.ndarray, search_cfg: SearchConfig, vp_cfg: PenaltyConfig,
             init: Optional[VdpParams], x2_init: Optional[np.ndarray], dt: float):
    """(init params, x2 start, stacked state) of a fit of (N, m) z: init (default
    unit alpha, zero coupling) clipped to vp_cfg.bounds, x2_init (default zeros) to
    x2_bounds. A given x2_init seeds the state (z over `hidden_x2_estimate` shifted
    to start at it, so the fit's anchor is the search's start), else it is None."""
    m = z.shape[1]
    if init is None:
        init = VdpParams(alpha=np.ones((m, 2)), coupling=np.zeros((m, m)))
    x2_start = np.zeros(m) if x2_init is None else np.asarray(x2_init, dtype=float)
    if init.m != m or x2_start.shape != (m,):
        raise DimensionError("init/x2_init dimensions must match observations")
    x2_start = np.clip(x2_start, *search_cfg.x2_bounds)
    x_init = None
    if x2_init is not None:
        x2 = hidden_x2_estimate(z, dt)
        x_init = stack_states(z, x2 - x2[0] + x2_start)
    return vp_cfg.bounds.clip_params(init), x2_start, x_init


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
    exactly a single VP fit from `vp_start`'s start. Candidate scoring and
    the VP fits both integrate with `substeps` Euler substeps per sample.
    vp_cfg.bounds clips the initial candidate and every proposal.
    Raises FitError when no candidate survives to the end.
    """
    z = check_observations(z)
    init_params, init_x2, x_init = vp_start(z, search_cfg, vp_cfg, init, x2_init, dt)
    if search_cfg.max_rounds == 0:
        return fit(z, vp_cfg, init_params, x_init, dt=dt, substeps=substeps)

    rng = np.random.default_rng(search_cfg.seed)

    best = Candidate(init_params, init_x2, math.nan)  # scored in round 1's first rollout
    scales = search_cfg.step_scales
    all_invalid_rounds = 0
    invalid_candidates = 0
    no_improve = 0
    stop_reason = "max rounds"

    for round_idx in range(1, search_cfg.max_rounds + 1):
        round_start, best, invalid = _run_round(z, best, search_cfg, rng, scales,
                                                vp_cfg.bounds, dt, substeps, round_idx, trace)
        invalid_candidates += invalid
        if invalid == search_cfg.proposals_per_round:
            all_invalid_rounds += 1
            if scales is search_cfg.step_scales:  # halved once, in the first such round
                scales = scales.halved()
        if round_idx % search_cfg.vp_every == 0 or round_idx == search_cfg.max_rounds:
            vp_candidate = _run_vp(z, best, vp_cfg, search_cfg.gamma, dt, substeps, round_idx)
            accepted = vp_candidate.fitness > best.fitness
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
        "rounds": round_idx,
        "best_fitness": best.fitness,
        "best_provenance": list(best.provenance),
        "invalid_candidates": invalid_candidates,
        "all_invalid_rounds": all_invalid_rounds,
        "scales_halved": scales is not search_cfg.step_scales,
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
        per_component_stats=_component_stats(z[None], best.track.x1[None])[0],
        converged=stop_reason == "fitness plateau",
        reason=f"search stopped: {stop_reason}",
        config_echo=echo,
    )


def _run_vp(z: np.ndarray, best: Candidate, vp_cfg: PenaltyConfig, gamma: float,
            dt: float, substeps: int, round_idx: int) -> Candidate:
    """Refine `best` with a VP fit seeded from its track; a fit that fails gives
    an unscorable candidate, of fitness -inf as a diverged proposal's."""
    provenance = (round_idx, -1, "vp")
    try:
        x_init = None if best.track is None else stack_states(best.track.x1, best.track.x2)
        result = fit(z, vp_cfg, best.params, x_init, dt=dt, substeps=substeps)
    except (FitError, ValueError):  # LinAlgError is a ValueError
        return Candidate(best.params, best.x2_init, -math.inf, provenance)
    cand = next(_scored(z, result.params[None], result.states.x2[:1], gamma, dt, substeps))
    return replace(cand, provenance=provenance, result=result)
