import dataclasses
import io
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdpfit import search
from vdpfit.constraints import stack_states
from vdpfit.estimator import ParamBounds, PenaltyConfig, fit, hidden_x2_estimate
from vdpfit.metrics import pearson
from vdpfit.model import (
    DimensionError, State, Trajectory, VdpParams, simulate,
)
from vdpfit.search import (
    Candidate,
    SearchConfig,
    StepScales,
    combine_scores,
    fitness,
    propose,
    search_and_refine,
)


def coupled_pair(noise=0.05, n=100, seed=21):
    truth = VdpParams(
        alpha=np.array([[1.5, 1.0], [1.5, 1.0]]),
        coupling=np.array([[0.0, 0.3], [-0.3, 0.0]]),
    )
    traj = simulate(truth, State(x1=[1.0, -0.8], x2=[0.0, 0.2]), n, 0.1)
    rng = np.random.default_rng(seed)
    z = traj.x1 + rng.normal(0, noise, traj.x1.shape)
    return truth, traj, z


def score_candidate(z, params, x2_init, gamma, dt, substeps=1):
    return next(search._scored(z, [(params, x2_init)], gamma, dt, substeps)).fitness


class TestFitness:
    def test_exact_match_scores_two(self):
        _, traj, _ = coupled_pair(noise=0.0)
        z = traj.x1
        assert fitness(z, traj, gamma=1.0) == pytest.approx(2.0)

    def test_hand_combination(self):
        c = np.array([0.9, 0.5])
        r2 = np.array([0.8, 0.2])
        assert combine_scores(c, r2, gamma=1.0) == pytest.approx(0.7)

    def test_gamma_zero_ignores_r_squared(self):
        c = np.array([0.9, 0.5])
        r2 = np.array([-5.0, 3.0])
        assert combine_scores(c, r2, gamma=0.0) == pytest.approx(0.5)

    def test_zero_variance_track_rejected(self):
        _, traj, z = coupled_pair()
        flat = Trajectory(x1=np.zeros_like(traj.x1), x2=traj.x2, dt=0.1)
        assert fitness(z, flat, gamma=1.0) == -math.inf

    def test_shape_mismatch_raises_dimension_error(self):
        _, traj, z = coupled_pair()
        short = Trajectory(x1=traj.x1[:-1], x2=traj.x2[:-1], dt=0.1)
        with pytest.raises(DimensionError):
            fitness(z, short, gamma=1.0)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_component_permutation_invariance(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        m = 3
        obs = rng.normal(size=(30, m))
        sim = obs + rng.normal(0, 0.3, size=(30, m))
        perm = rng.permutation(m)
        f = fitness(obs, Trajectory(x1=sim, x2=np.zeros_like(sim), dt=0.1), 1.0)
        f_p = fitness(
            obs[:, perm],
            Trajectory(x1=sim[:, perm], x2=np.zeros_like(sim), dt=0.1),
            1.0,
        )
        assert f == pytest.approx(f_p, rel=1e-12)


class TestPropose:
    def test_tiny_scales_leave_candidate_unchanged(self):
        _, _, z = coupled_pair()
        cfg = SearchConfig(step_scales=StepScales(1e-13, 1e-13, 1e-13), seed=3)
        params = VdpParams(alpha=np.ones((2, 2)), coupling=np.zeros((2, 2)))
        x2 = np.zeros(2)
        cur = Candidate(params=params, x2_init=x2,
                        fitness=score_candidate(z, params, x2, 1.0, 0.1),
                        provenance=(0, 0, "init"))
        rng = np.random.default_rng(5)
        for _ in range(10):
            cand = propose(cur, z, cfg, rng, dt=0.1)
            npt.assert_allclose(cand.params.alpha, params.alpha, atol=1e-11)
            npt.assert_allclose(cand.params.coupling, params.coupling, atol=1e-11)
            npt.assert_allclose(cand.x2_init, x2, atol=1e-11)
            assert cand.fitness == pytest.approx(cur.fitness, abs=1e-6)

    def test_proposals_respect_bounds(self):
        _, _, z = coupled_pair()
        bounds = ParamBounds(alpha1=(0.0, 2.0), alpha2=(-1.0, 1.0), coupling=(-0.5, 0.5))
        cfg = SearchConfig(step_scales=StepScales(5.0, 5.0, 5.0),
                           x2_bounds=(-1.0, 1.0), seed=8)
        params = bounds.clip_params(VdpParams(alpha=np.ones((2, 2)),
                                              coupling=np.zeros((2, 2))))
        cur = Candidate(params=params, x2_init=np.zeros(2), fitness=-1.0,
                        provenance=(0, 0, "init"))
        rng = np.random.default_rng(2)
        for _ in range(50):
            cand = propose(cur, z, cfg, rng, dt=0.1, bounds=bounds)
            assert bounds.contains(cand.params)
            assert np.all(np.abs(cand.x2_init) <= 1.0)

    def test_exactly_one_group_perturbed(self):
        _, _, z = coupled_pair()
        cfg = SearchConfig(seed=4)
        params = VdpParams(alpha=np.ones((2, 2)), coupling=np.zeros((2, 2)))
        cur = Candidate(params=params, x2_init=np.zeros(2), fitness=-1.0,
                        provenance=(0, 0, "init"))
        rng = np.random.default_rng(11)
        for _ in range(40):
            cand = propose(cur, z, cfg, rng, dt=0.1)
            alpha_rows = int(np.sum(np.any(cand.params.alpha != params.alpha, axis=1)))
            w_entries = int(np.sum(cand.params.coupling != params.coupling))
            x2_entries = int(np.sum(cand.x2_init != cur.x2_init))
            assert alpha_rows * 2 + w_entries + x2_entries <= 2
            assert (alpha_rows, w_entries, x2_entries).count(0) >= 2


class TestSearchAndRefine:
    @pytest.mark.parametrize("z, error", [
        (np.linspace(0.0, 1.0, 20), DimensionError),
        (np.array([[0.5, 0.1]]), ValueError),
        (np.array([[0.5, 0.1], [np.nan, 0.2], [0.4, 0.3]]), ValueError),
    ], ids=["1-D", "one-sample", "nan"])
    @pytest.mark.parametrize("rounds", [0, 1])
    def test_rejects_bad_observations_before_any_work(self, monkeypatch, z, error, rounds):
        monkeypatch.setattr(search, "rollout", None)  # the search never starts
        with pytest.raises(error):
            search_and_refine(z, SearchConfig(max_rounds=rounds), PenaltyConfig(), dt=0.1)

    def test_zero_rounds_equals_vp_fit(self):
        _, _, z = coupled_pair()
        vp_cfg = PenaltyConfig(outer_max_iter=15)
        init = VdpParams(alpha=np.full((2, 2), 1.2), coupling=np.zeros((2, 2)))
        via_search = search_and_refine(
            z, SearchConfig(max_rounds=0, seed=0), vp_cfg, dt=0.1, init=init
        )
        direct = fit(z, vp_cfg, init, dt=0.1)
        npt.assert_array_equal(via_search.params.alpha, direct.params.alpha)
        npt.assert_array_equal(via_search.params.coupling, direct.params.coupling)

    def test_zero_rounds_start_the_fit_at_the_clipped_x2_init(self, monkeypatch):
        _, _, z = coupled_pair()
        seen = []
        real = search.fit

        def recording(z_, cfg, init, x_init=None, **kwargs):
            seen.append(x_init)
            return real(z_, cfg, init, x_init, **kwargs)

        monkeypatch.setattr(search, "fit", recording)
        cfg = SearchConfig(max_rounds=0, x2_bounds=(-1.0, 1.0))
        vp_cfg = PenaltyConfig(outer_max_iter=2)
        search_and_refine(z, cfg, vp_cfg, dt=0.1, x2_init=np.array([0.4, 3.0]))
        search_and_refine(z, cfg, vp_cfg, dt=0.1)
        x_init, default = seen
        assert default is None  # without x2_init the fit keeps its own start
        assert x_init[0, 1::2].tolist() == [0.4, 1.0]
        npt.assert_array_equal(x_init[:, 0::2], z)
        shift = x_init[:, 1::2] - hidden_x2_estimate(z, 0.1)
        npt.assert_allclose(shift, np.broadcast_to(shift[0], shift.shape), atol=1e-12)

    def test_trace_schema_and_greedy_acceptance(self):
        _, _, z = coupled_pair()
        buf = io.StringIO()
        cfg = SearchConfig(max_rounds=4, proposals_per_round=15, vp_every=2, seed=42)
        search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=10), dt=0.1, trace=buf)
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert lines
        best = -math.inf
        for rec in lines:
            assert set(rec) == {"round", "proposal", "fitness", "accepted"}
            f = -math.inf if rec["fitness"] is None else rec["fitness"]
            if rec["accepted"]:
                assert f > best
                best = f
        assert any(rec["proposal"] == -1 for rec in lines)  # VP refinement rows

    def test_fixed_seed_reproducible(self):
        _, _, z = coupled_pair()
        cfg = SearchConfig(max_rounds=3, proposals_per_round=12, vp_every=3, seed=42)
        bufs = []
        results = []
        for _ in range(2):
            buf = io.StringIO()
            results.append(
                search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=8),
                                  dt=0.1, trace=buf)
            )
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        npt.assert_array_equal(results[0].params.alpha, results[1].params.alpha)
        npt.assert_array_equal(results[0].params.coupling, results[1].params.coupling)

    def test_best_fitness_nondecreasing_across_rounds(self):
        _, _, z = coupled_pair()
        buf = io.StringIO()
        cfg = SearchConfig(max_rounds=5, proposals_per_round=20, vp_every=2, seed=13)
        search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=8), dt=0.1, trace=buf)
        per_round_best = {}
        running = -math.inf
        for rec in (json.loads(l) for l in buf.getvalue().splitlines()):
            if rec["accepted"]:
                running = rec["fitness"]
            per_round_best[rec["round"]] = running
        rounds = sorted(per_round_best)
        for a, b in zip(rounds, rounds[1:]):
            fa, fb = per_round_best[a], per_round_best[b]
            if math.isfinite(fa) or math.isfinite(fb):
                assert fb >= fa

    def test_coupled_recovery_reaches_fit_regime(self):
        # small-budget version of the coupled-recovery target regime
        truth, traj, z = coupled_pair(noise=0.05)
        cfg = SearchConfig(max_rounds=4, proposals_per_round=25, vp_every=2, seed=6)
        res = search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=40), dt=0.1)
        for stats in res.per_component_stats:
            assert stats["pearson"] >= 0.8
        diag = res.config_echo["search"]
        assert diag["best_fitness"] >= 1.2

    def test_unbeatable_plateau_tol_stops_after_patience_rounds(self):
        _, _, z = coupled_pair()
        buf = io.StringIO()
        cfg = SearchConfig(max_rounds=10, proposals_per_round=5, vp_every=100,
                           patience=3, plateau_tol=1e9, seed=4)
        res = search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=5), dt=0.1, trace=buf)
        diag = res.config_echo["search"]
        assert diag["stop_reason"] == "fitness plateau"
        assert diag["rounds"] == 3
        assert max(json.loads(l)["round"] for l in buf.getvalue().splitlines()) == 3
        assert res.converged

    def test_first_valid_candidate_after_invalid_start_counts_as_improvement(self):
        truth = VdpParams(alpha=np.array([[1.5, 1.0]]), coupling=np.zeros((1, 1)))
        traj = simulate(truth, State(x1=[1.0], x2=[0.0]), 80, 0.1)
        z = traj.x1
        flat = VdpParams(alpha=np.zeros((1, 2)), coupling=np.zeros((1, 1)))
        assert score_candidate(z, flat, np.zeros(1), 1.0, 0.1) == -math.inf
        buf = io.StringIO()
        cfg = SearchConfig(max_rounds=10, proposals_per_round=10, vp_every=100,
                           patience=1, plateau_tol=1e9, seed=2)
        res = search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=5), dt=0.1,
                                init=flat, trace=buf)
        rows = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert any(r["round"] == 1 and r["accepted"] and r["fitness"] is not None
                   for r in rows)
        diag = res.config_echo["search"]
        assert diag["stop_reason"] == "fitness plateau"
        assert diag["rounds"] == 2

    def test_all_invalid_round_halves_scales_once(self):
        _, _, z = coupled_pair()
        cfg = SearchConfig(
            max_rounds=2,
            proposals_per_round=12,
            vp_every=5,
            seed=0,
            x2_bounds=(-1e6, 1e6),
            step_scales=StepScales(1e4, 1e4, 1e6),
        )
        vp_cfg = PenaltyConfig(
            bounds=ParamBounds(alpha1=(0.0, 50.0), alpha2=(-50.0, 50.0),
                               coupling=(-50.0, 50.0)),
            outer_max_iter=5,
        )
        res = search_and_refine(z, cfg, vp_cfg, dt=0.1)
        diag = res.config_echo["search"]
        assert diag["all_invalid_rounds"] >= 1
        assert diag["scales_halved"] is True

    def test_substeps_reach_scoring_and_the_echo(self):
        _, _, z = coupled_pair()
        cfg = SearchConfig(max_rounds=1, proposals_per_round=5, seed=3)
        vp_cfg = PenaltyConfig(lam_schedule=(10.0,), outer_max_iter=3, inner_max_iter=20)
        res = search_and_refine(z, cfg, vp_cfg, dt=0.1, substeps=3)
        assert res.config_echo["substeps"] == 3
        # the reported best fitness scores the returned candidate with 3 substeps
        x2_init = res.states.x2[0]
        best = res.config_echo["search"]["best_fitness"]
        assert best == score_candidate(z, res.params, x2_init, cfg.gamma, 0.1, 3)
        assert best != score_candidate(z, res.params, x2_init, cfg.gamma, 0.1)

    def test_returned_params_respect_bounds(self):
        _, _, z = coupled_pair()
        bounds = ParamBounds(alpha1=(0.0, 2.0), alpha2=(-2.0, 2.0), coupling=(-0.5, 0.5))
        cfg = SearchConfig(max_rounds=3, proposals_per_round=15, vp_every=3, seed=5)
        res = search_and_refine(z, cfg, PenaltyConfig(bounds=bounds, outer_max_iter=10),
                                dt=0.1)
        assert bounds.contains(res.params)

    def test_proposals_stay_in_the_penalty_bounds(self, monkeypatch):
        _, _, z = coupled_pair()
        bounds = ParamBounds(alpha1=(0.5, 1.5), alpha2=(0.0, 1.5), coupling=(-0.1, 0.1))
        built = []
        # the round builds every candidate it scores through the one perturbation helper
        perturb = search._perturb

        def recording_perturb(*args, **kwargs):
            params, x2_init = perturb(*args, **kwargs)
            built.append(params)
            return params, x2_init

        monkeypatch.setattr(search, "_perturb", recording_perturb)
        cfg = SearchConfig(max_rounds=1, proposals_per_round=20, seed=1,
                           step_scales=StepScales(5.0, 5.0, 5.0))
        vp_cfg = PenaltyConfig(bounds=bounds, lam_schedule=(10.0,), outer_max_iter=3,
                               inner_max_iter=20)
        buf = io.StringIO()
        search_and_refine(z, cfg, vp_cfg, dt=0.1, trace=buf)
        rows = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert sum(r["proposal"] >= 0 for r in rows) == 20
        assert len(built) >= 20
        for params in built:
            assert bounds.contains(params)


def three_components(n=80, seed=3):
    truth = VdpParams(
        alpha=np.array([[1.5, 1.0], [1.2, 0.8], [1.8, 1.1]]),
        coupling=np.array([[0.0, 0.2, -0.1], [-0.2, 0.0, 0.1], [0.1, -0.1, 0.0]]),
    )
    traj = simulate(truth, State(x1=[1.0, -0.8, 0.4], x2=[0.0, 0.2, -0.3]), n, 0.1)
    rng = np.random.default_rng(seed)
    return traj.x1 + rng.normal(0, 0.05, traj.x1.shape)


def one_component(n=80, seed=4):
    truth = VdpParams(alpha=np.array([[1.5, 1.0]]), coupling=np.zeros((1, 1)))
    traj = simulate(truth, State(x1=[1.0], x2=[0.0]), n, 0.1)
    rng = np.random.default_rng(seed)
    return traj.x1 + rng.normal(0, 0.05, traj.x1.shape)


def one_at_a_time_round(z, best, cfg, rng, scales, bounds, dt, substeps, round_idx, trace):
    """Reference round: one `propose`, so one lone simulate, per proposal."""
    invalid = 0
    for j in range(cfg.proposals_per_round):
        cand = propose(best, z, cfg, rng, dt=dt, substeps=substeps, scales=scales,
                       bounds=bounds)
        invalid += not cand.valid
        accepted = cand.fitness > best.fitness
        search._trace_row(trace, round_idx, j, cand.fitness, accepted)
        if accepted:
            best = dataclasses.replace(cand, provenance=(round_idx, j, "proposal"))
    return best, invalid


DIVERGING = dict(max_rounds=2, proposals_per_round=12, vp_every=5, seed=0,
                 x2_bounds=(-1e6, 1e6), step_scales=StepScales(1e4, 1e4, 1e6))
WIDE_BOUNDS = ParamBounds(alpha1=(0.0, 50.0), alpha2=(-50.0, 50.0), coupling=(-50.0, 50.0))

# (observations, search config, penalty config, substeps); a refinement wins
# "m1" and a proposal wins "m3", so both ways of building the result are compared
ORACLE_CASES = {
    "m1": (one_component, dict(max_rounds=3, proposals_per_round=15, vp_every=2, seed=9),
           PenaltyConfig(outer_max_iter=4), 1),
    "m3": (three_components, dict(max_rounds=2, proposals_per_round=25, vp_every=2, seed=1),
           PenaltyConfig(outer_max_iter=2, lam_schedule=(10.0,)), 1),
    "one_per_round": (lambda: coupled_pair()[2],
                      dict(max_rounds=8, proposals_per_round=1, vp_every=8, seed=0),
                      PenaltyConfig(outer_max_iter=4), 1),
    "substeps3": (lambda: coupled_pair()[2],
                  dict(max_rounds=2, proposals_per_round=20, vp_every=2, seed=7),
                  PenaltyConfig(outer_max_iter=4), 3),
    "diverging": (lambda: coupled_pair()[2], DIVERGING,
                  PenaltyConfig(bounds=WIDE_BOUNDS, outer_max_iter=5), 1),
}


class TestBatchedRound:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_equals_a_one_at_a_time_loop_over_propose(self, monkeypatch, case):
        make_z, search_kw, vp_cfg, substeps = ORACLE_CASES[case]
        z = make_z()
        cfg = SearchConfig(**search_kw)

        def run():
            buf = io.StringIO()
            res = search_and_refine(z, cfg, vp_cfg, dt=0.1, substeps=substeps, trace=buf)
            return res, buf.getvalue()

        batched, batched_trace = run()
        with monkeypatch.context() as patch:
            patch.setattr(search, "_run_round", one_at_a_time_round)
            reference, reference_trace = run()
        # json writes each fitness as its shortest round-trip repr: equal text, equal bits
        assert batched_trace == reference_trace
        assert (json.dumps(batched.to_json_dict(), sort_keys=True)
                == json.dumps(reference.to_json_dict(), sort_keys=True))
        rows = [json.loads(l) for l in batched_trace.splitlines()]
        diag = batched.config_echo["search"]
        if case == "diverging":
            assert diag["invalid_candidates"] > 0 and diag["scales_halved"] is True
            assert any(r["fitness"] is None for r in rows)
        else:  # accepted proposals, so the round rebuilt and rescored its rest
            assert any(r["accepted"] and r["proposal"] >= 0 for r in rows)


class TestCandidateTracks:
    """A candidate keeps the track it was scored on; refinements and results use it."""

    @pytest.mark.parametrize("case", ["proposal", "init"])
    def test_result_states_equal_a_lone_simulate(self, case):
        if case == "proposal":
            z, cfg = three_components(), SearchConfig(max_rounds=2, proposals_per_round=25,
                                                      vp_every=2, seed=1)
            vp_cfg, init = PenaltyConfig(outer_max_iter=2, lam_schedule=(10.0,)), None
        else:  # noise-free data from the start: nothing beats it, nothing is accepted
            truth, traj, z = coupled_pair(noise=0.0)
            cfg = SearchConfig(max_rounds=2, proposals_per_round=10, vp_every=2, seed=3)
            vp_cfg, init = PenaltyConfig(outer_max_iter=2, lam_schedule=(10.0,)), truth
        buf = io.StringIO()
        res = search_and_refine(z, cfg, vp_cfg, dt=0.1, init=init,
                                x2_init=None if init is None else traj.x2[0], trace=buf)
        assert res.config_echo["search"]["best_provenance"][2] == case
        if case == "init":
            assert not any(json.loads(l)["accepted"] for l in buf.getvalue().splitlines())
        lone = simulate(res.params, State(x1=z[0], x2=res.states.x2[0]),
                        len(z), 0.1)
        assert np.array_equal(res.states.x1, lone.x1)
        assert np.array_equal(res.states.x2, lone.x2)

    @pytest.mark.parametrize("substeps", [1, 3])
    def test_refinement_starts_from_the_stored_track(self, monkeypatch, substeps):
        z = three_components()
        seeds = []
        real_fit = search.fit

        def recording_fit(z, cfg, init, x_init=None, **kwargs):
            seeds.append((init, x_init))
            return real_fit(z, cfg, init, x_init, **kwargs)

        monkeypatch.setattr(search, "fit", recording_fit)
        cfg = SearchConfig(max_rounds=2, proposals_per_round=10, vp_every=1, seed=2)
        search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=2, lam_schedule=(10.0,)),
                          dt=0.1, substeps=substeps)
        assert len(seeds) == 2
        for params, x_init in seeds:
            x2_init = x_init[0, 1::2]
            lone = simulate(params, State(x1=z[0], x2=x2_init), len(z), 0.1,
                            substeps)
            assert np.array_equal(x_init, stack_states(lone.x1, lone.x2))
