"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Each test pins the tolerances and instance sizes of its criterion and, where
the criterion carries a runtime budget, asserts the measured wall time too.
Run with `pytest -v tests/test_acceptance.py` to get the per-criterion lines.
"""
import io
import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import dense_state_jacobian, random_params, random_state
from vdpfit.cli import main
from vdpfit.constraints import (
    StackedState,
    residual,
    residual_jacobian_params,
    residual_jacobian_x,
)
from vdpfit.data import Edge, connectivity_projection, save_csv, split_segments
from vdpfit.estimator import PenaltyConfig, inner_solve, value_gradient
from vdpfit.forecast import VarMethod, VdpMethod, evaluate, var_fit
from vdpfit.metrics import pearson
from vdpfit.model import ObservationSet, State, VdpParams, jacobians, simulate, step
from vdpfit.search import SearchConfig, search_and_refine


def _report(num, msg):
    print(f"criterion {num:02d} PASS: {msg}")


def _rel_err(analytic, numeric):
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def _fd_step_jacobians(params, s, dt, substeps, h=1e-5):
    m = params.m
    base_s = s.to_flat()
    jx = np.empty((2 * m, 2 * m))
    for j in range(2 * m):
        hi, lo = base_s.copy(), base_s.copy()
        hi[j] += h
        lo[j] -= h
        f_hi = step(params, State.from_flat(hi), dt, substeps=substeps).to_flat()
        f_lo = step(params, State.from_flat(lo), dt, substeps=substeps).to_flat()
        jx[:, j] = (f_hi - f_lo) / (2 * h)
    vec = params.to_vector()
    jp = np.empty((2 * m, vec.size))
    for j in range(vec.size):
        hi, lo = vec.copy(), vec.copy()
        hi[j] += h
        lo[j] -= h
        f_hi = step(VdpParams.from_vector(hi, m), s, dt, substeps=substeps).to_flat()
        f_lo = step(VdpParams.from_vector(lo, m), s, dt, substeps=substeps).to_flat()
        jp[:, j] = (f_hi - f_lo) / (2 * h)
    return jx, jp


def _fd_residual_jacobians(x, params, anchor, dt, h=1e-5):
    base_x = x.flat
    jx = np.empty((base_x.size, base_x.size))
    for j in range(base_x.size):
        hi, lo = base_x.copy(), base_x.copy()
        hi[j] += h
        lo[j] -= h
        jx[:, j] = (
            residual(x.replace_flat(hi), params, anchor, dt)
            - residual(x.replace_flat(lo), params, anchor, dt)
        ) / (2 * h)
    vec = params.to_vector()
    jp = np.empty((base_x.size, vec.size))
    for j in range(vec.size):
        hi, lo = vec.copy(), vec.copy()
        hi[j] += h
        lo[j] -= h
        jp[:, j] = (
            residual(x, VdpParams.from_vector(hi, params.m), anchor, dt)
            - residual(x, VdpParams.from_vector(lo, params.m), anchor, dt)
        ) / (2 * h)
    return jx, jp


def test_criterion_01_jacobians_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        dt = float(rng.uniform(0.02, 0.1))
        substeps = int(rng.integers(1, 4))
        params = random_params(rng, m)
        s = random_state(rng, m, 0.7)

        jx, ja, jw = jacobians(params, s, dt, substeps=substeps)
        fd_x, fd_p = _fd_step_jacobians(params, s, dt, substeps)
        worst = max(worst, _rel_err(jx, fd_x), _rel_err(np.hstack([ja, jw]), fd_p))

        traj = simulate(params, s, n, dt)
        x = StackedState.from_arrays(traj.x1, traj.x2)
        x = x.replace_flat(x.flat + rng.normal(0, 0.05, x.flat.size))
        anchor = s
        gx = dense_state_jacobian(residual_jacobian_x(x, params, dt))
        gp = residual_jacobian_params(x, params, dt)
        fd_gx, fd_gp = _fd_residual_jacobians(x, params, anchor, dt)
        worst = max(worst, _rel_err(gx, fd_gx), _rel_err(gp, fd_gp))
    elapsed = time.monotonic() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    _report(1, f"100 instances, max relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_linear_case_matches_dense_oracle():
    t0 = time.monotonic()
    m, n, lam, dt = 2, 10, 100.0, 0.05
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(200 + trial)
        params = random_params(rng, m, nonlinear=False)
        s0 = random_state(rng, m, 0.6)
        traj = simulate(params, s0, n, dt)
        z = ObservationSet(traj.x1 + rng.normal(0, 0.05, traj.x1.shape))
        anchor = s0
        x_init = StackedState(flat=rng.normal(0, 0.1, 2 * m * n), m=m, n_steps=n)
        res = inner_solve(
            params, anchor, z, PenaltyConfig(), x_init, dt=dt, lam=lam, tol=1e-8, max_iter=200
        )
        dim = 2 * m * n
        zero = StackedState(flat=np.zeros(dim), m=m, n_steps=n)
        jac = dense_state_jacobian(residual_jacobian_x(zero, params, dt))
        offset = residual(zero, params, anchor, dt)
        h_mask = np.zeros(dim)
        h_mask[0::2] = 1.0
        z_embed = np.zeros(dim)
        z_embed[0::2] = z.values.ravel()
        oracle = np.linalg.solve(
            np.diag(h_mask) + lam * jac.T @ jac, h_mask * z_embed - lam * jac.T @ offset
        )
        worst = max(worst, float(np.max(np.abs(res.x.flat - oracle))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    _report(2, f"20 trials, max deviation from dense oracle {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_value_gradient_matches_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(300)
    m, n, dt, lam, tol = 2, 20, 0.1, 100.0, 1e-10
    truth = random_params(rng, m)
    s0 = random_state(rng, m, 0.6)
    traj = simulate(truth, s0, n, dt)
    z = ObservationSet(traj.x1 + rng.normal(0, 0.02, traj.x1.shape))
    anchor = s0
    cfg = PenaltyConfig()
    vec = truth.to_vector() + rng.normal(0, 0.1, 2 * m + m * m)
    params = VdpParams.from_vector(vec, m)

    vg = value_gradient(params, anchor, z, cfg, dt=dt, lam=lam, tol=tol, max_iter=500)

    def f_tilde(v):
        p = VdpParams.from_vector(v, m)
        inner = value_gradient(p, anchor, z, cfg, dt=dt, lam=lam, tol=tol, max_iter=500)
        return inner.value

    h = 1e-5
    fd = np.empty(vec.size)
    for j in range(vec.size):
        hi, lo = vec.copy(), vec.copy()
        hi[j] += h
        lo[j] -= h
        fd[j] = (f_tilde(hi) - f_tilde(lo)) / (2 * h)
    rel = float(np.linalg.norm(vg.gradient - fd) / max(1.0, np.linalg.norm(fd)))
    elapsed = time.monotonic() - t0
    assert rel < 1e-3
    assert elapsed < 30.0
    _report(3, f"gradient relative error {rel:.2e} (inner tol {tol:g}), {elapsed:.1f}s")


def test_criterion_04_single_component_recovery():
    t0 = time.monotonic()
    truth = VdpParams(alpha=np.array([[1.5, 1.0]]), coupling=np.zeros((1, 1)))
    traj = simulate(truth, State(x1=np.array([1.0]), x2=np.array([0.0])), 100, 0.1)
    rng = np.random.default_rng(400)
    z = ObservationSet(traj.x1 + rng.normal(0, 0.02, traj.x1.shape))
    cfg = SearchConfig(max_rounds=4, proposals_per_round=25, vp_every=2, seed=4)
    res = search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=40), dt=0.1)
    corr_x1 = pearson(res.states.x1[:, 0], traj.x1[:, 0])
    corr_x2 = pearson(res.states.x2[:, 0], traj.x2[:, 0])
    elapsed = time.monotonic() - t0
    assert corr_x1 >= 0.95
    assert corr_x2 >= 0.8
    assert elapsed < 120.0
    _report(4, f"x1 Pearson {corr_x1:.3f} (>=0.95), hidden x2 Pearson {corr_x2:.3f} "
               f"(>=0.8), {elapsed:.1f}s")


def test_criterion_05_coupled_recovery_signs_and_fitness():
    t0 = time.monotonic()
    truth = VdpParams(
        alpha=np.array([[1.5, 1.0], [1.5, 1.0]]),
        coupling=np.array([[0.0, 0.3], [-0.3, 0.0]]),
    )
    traj = simulate(truth, State(x1=np.array([1.0, -0.8]), x2=np.array([0.0, 0.2])),
                    100, 0.1)
    rng = np.random.default_rng(500)
    z = ObservationSet(traj.x1 + rng.normal(0, 0.05, traj.x1.shape))
    trace = io.StringIO()
    cfg = SearchConfig(max_rounds=4, proposals_per_round=25, vp_every=2, seed=6)
    res = search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=40), dt=0.1,
                            trace=trace)

    assert res.params.coupling[0, 1] > 0
    assert res.params.coupling[1, 0] < 0
    pearsons = [s["pearson"] for s in res.per_component_stats]
    assert all(p >= 0.8 for p in pearsons)

    per_round_best = {}
    running = -math.inf
    for rec in (json.loads(line) for line in trace.getvalue().splitlines()):
        if rec["accepted"]:
            running = rec["fitness"]
        per_round_best[rec["round"]] = running
    rounds = sorted(per_round_best)
    for a, b in zip(rounds, rounds[1:]):
        if math.isfinite(per_round_best[a]):
            assert per_round_best[b] >= per_round_best[a]
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(5, f"W signs (+,-) recovered, component Pearson {min(pearsons):.3f} min, "
               f"nondecreasing trace over {len(rounds)} rounds, {elapsed:.1f}s")


def test_criterion_06_vdp_beats_var6_at_every_horizon():
    # the step size is deliberately coarse so one step is visibly nonlinear:
    # the linear baseline then loses even at h=1
    t0 = time.monotonic()
    dt = 0.15
    truth = VdpParams(
        alpha=np.array([[2.2, 1.0], [1.9, 0.9]]),
        coupling=np.array([[0.0, 0.25], [-0.2, 0.0]]),
    )
    traj = simulate(truth, State(x1=np.array([1.0, -0.8]), x2=np.array([0.0, 0.2])),
                    600, dt)
    rng = np.random.default_rng(600)
    data = (traj.x1 + rng.normal(0, 0.005, traj.x1.shape)).T  # (m, T)
    split = split_segments(600, 100, 20, 5)

    fits = []
    for s_idx, seg in enumerate(split.segments):
        z = ObservationSet(data[:, seg.train[0] : seg.train[1]].T)
        cfg = SearchConfig(max_rounds=0, seed=600 + s_idx)
        fits.append(search_and_refine(z, cfg, PenaltyConfig(outer_max_iter=40), dt=dt))

    report = evaluate([VdpMethod(fits), VarMethod(order=6)], split, data, horizon=9)
    vdp = report.methods["vdp"].corr_median
    var = report.methods["var6"].corr_median
    for h in range(9):
        assert vdp[h] > var[h], f"h={h + 1}: vdp {vdp[h]:.4f} <= var6 {var[h]:.4f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(6, f"median Pearson vdp > var6 at h=1..9 "
               f"(h=9: {vdp[-1]:.3f} vs {var[-1]:.3f}), {elapsed:.1f}s")


def test_criterion_07_protocol_constants():
    t = np.arange(600) * 0.1
    zebrafish = np.vstack([np.sin(t) + 0.3 * np.sin(3.1 * t), np.cos(0.7 * t)])
    split = split_segments(600, 100, 20, 5)
    assert [seg.train[0] for seg in split.segments] == [0, 120, 240, 360, 480]
    report = evaluate([VarMethod()], split, zebrafish, protocol="long")
    assert report.horizon == 9
    assert report.stride == 1
    assert VarMethod().order == 6
    per_segment = {}
    for rec in report.records:
        per_segment.setdefault(rec.segment, set()).add(rec.window)
    assert all(len(wins) == 12 for wins in per_segment.values())
    assert report.methods["var6"].n_windows == 60

    t = np.arange(276) * 0.1
    rat = np.vstack([np.sin(t) + 0.2 * np.cos(2.2 * t), np.cos(0.9 * t)])
    split = split_segments(276, 100, 176, 1)
    assert split.segments[0].train == (0, 100)
    assert split.segments[0].test == (100, 276)
    report = evaluate([VarMethod()], split, rat, protocol="long")
    assert report.methods["var6"].n_windows == 168
    _report(7, "zebrafish 5x(100,20) -> 12 windows/segment, rat (100,176) -> 168 "
               "windows, H=9, k=6, stride 1")


def test_criterion_08_var2_exact_recovery():
    r = 0.99
    a1 = np.array([[2 * r * math.cos(0.7), 0.15], [0.0, 2 * r * math.cos(1.3)]])
    a2 = np.array([[-(r**2), 0.0], [0.05, -(r**2)]])
    c = np.array([0.5, -0.25])
    y = np.empty((2, 90))
    y[:, 0] = [1.0, -0.5]
    y[:, 1] = [0.3, 0.8]
    for i in range(2, 90):
        y[:, i] = c + a1 @ y[:, i - 1] + a2 @ y[:, i - 2]
    model = var_fit(y, k=2)
    npt.assert_allclose(model.coefs, np.stack([a1, a2]), atol=1e-8)
    npt.assert_allclose(model.intercept, c, atol=1e-8)
    err = max(
        float(np.max(np.abs(model.coefs - np.stack([a1, a2])))),
        float(np.max(np.abs(model.intercept - c))),
    )
    _report(8, f"noiseless VAR(2) coefficients recovered to {err:.2e} (<=1e-8)")


def test_criterion_09_connectivity_matches_brute_force():
    rng = np.random.default_rng(900)
    for trial in range(50):
        m = int(rng.integers(1, 5))
        p = int(rng.integers(1, 11))
        spatial = rng.normal(size=(m, p))
        sigma = np.sort(rng.uniform(0.1, 3.0, m))[::-1].copy()
        w = rng.normal(size=(m, m))
        top_k = int(rng.integers(1, 6))

        f = np.zeros((p, p))
        for i in range(m):
            for j in range(m):
                scale = math.sqrt(sigma[i]) * math.sqrt(sigma[j])
                f += w[i, j] * scale * np.outer(spatial[i], spatial[j])
        entries = [(f[t, s], s, t) for t in range(p) for s in range(p)]
        pos = sorted((e for e in entries if e[0] > 0), key=lambda e: (-e[0], e[2], e[1]))
        neg = sorted((e for e in entries if e[0] < 0), key=lambda e: (e[0], e[2], e[1]))
        want = [Edge(source=s, target=t, weight=v, polarity="excitatory")
                for v, s, t in pos[:top_k]]
        want += [Edge(source=s, target=t, weight=v, polarity="inhibitory")
                 for v, s, t in neg[:top_k]]

        got = connectivity_projection(spatial, sigma, [w], top_k)
        # the two summation orders can tie-break ulp-close symmetric entries
        # differently, so equality is on weights and membership, not order
        assert [e.polarity for e in got] == [e.polarity for e in want]
        for g, exp in zip(got, want):
            assert g.weight == pytest.approx(exp.weight, rel=1e-9, abs=1e-12)
            assert g.weight == pytest.approx(f[g.target, g.source], rel=1e-9, abs=1e-12)
        assert len({(e.source, e.target) for e in got}) == len(got)
    _report(9, "50 random instances (P<=10, m<=4) match the brute-force oracle")


def test_criterion_10_fixed_seed_byte_identical_outputs(tmp_path):
    truth = VdpParams(alpha=np.array([[1.5, 0.8]]), coupling=np.zeros((1, 1)))
    traj = simulate(truth, State(x1=np.array([0.6]), x2=np.array([0.0])), 60, 0.1)
    series = tmp_path / "series.csv"
    save_csv(traj.x1, series)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dt": 0.1,
        "penalty": {"outer_max_iter": 8, "inner_max_iter": 40,
                    "inner_max_iter_start": 20},
        "search": {"max_rounds": 2, "proposals_per_round": 5, "patience": 5},
    }))

    fit_outs = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert main(["fit", str(series), "--config", str(cfg_path), "--seed", "7",
                     "-o", str(out)]) == 0
        fit_outs.append(out)
    assert (fit_outs[0] / "fit.json").read_bytes() == (fit_outs[1] / "fit.json").read_bytes()
    assert (
        (fit_outs[0] / "trace.ndjson").read_bytes()
        == (fit_outs[1] / "trace.ndjson").read_bytes()
    )

    sim_outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert main(["export-sim", str(fit_outs[0] / "fit.json"), "--n-series", "3",
                     "--length", "20", "--seed", "9", "-o", str(out)]) == 0
        sim_outs.append(out)
    assert (
        (sim_outs[0] / "manifest.json").read_bytes()
        == (sim_outs[1] / "manifest.json").read_bytes()
    )
    for i in range(3):
        name = f"series_{i:04d}.csv"
        assert (
            (sim_outs[0] / "vdp_sim" / name).read_bytes()
            == (sim_outs[1] / "vdp_sim" / name).read_bytes()
        )
        assert (
            (sim_outs[0] / "noisy_real" / name).read_bytes()
            == (sim_outs[1] / "noisy_real" / name).read_bytes()
        )
    _report(10, "cmd_fit and cmd_export_sim byte-identical across reruns (seeds 7/9)")
