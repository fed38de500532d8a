import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import cho_factor, cho_solve

from vdpfit import estimator
from vdpfit.constraints import residual, residual_jacobian_x, stack_states
from vdpfit.estimator import (
    FitError,
    FitResult,
    ParamBounds,
    PenaltyConfig,
    check_observations,
    default_x_init,
    fit,
    fit_lockstep,
    hidden_x2_estimate,
    inner_solve,
    reduced_jacobian,
    value_gradient,
)
from vdpfit.data import split_segments
from vdpfit.metrics import pearson
from vdpfit.model import DimensionError, State, VdpParams, simulate

from conftest import dense_state_jacobian, random_params, random_state

# the inner tolerance and cap of PenaltyConfig()'s last stage
FINAL_STAGE = {"tol": 1e-8, "max_iter": 200}


def make_instance(rng, m=1, n=40, dt=0.05, noise=0.0, nonlinear=True):
    params = random_params(rng, m, nonlinear=nonlinear)
    s0 = random_state(rng, m, 0.4)
    traj = simulate(params, s0, n, dt)
    x1 = traj.x1
    if noise:
        x1 = x1 + rng.normal(0, noise, x1.shape)
    return params, s0, traj, x1


def objective(x, params, anchor, z, *, dt=1.0, lam):
    """f_lam(x, params) from the parts `inner_solve` evaluates it with."""
    r = residual(x, params, anchor, dt)
    return float(estimator._objectives(x[None], z[None], r[None], lam)[0])


class TestObjective:
    def test_zero_on_consistent_instance(self, rng):
        params, s0, traj, z = make_instance(rng, m=2, n=12)
        x = stack_states(traj.x1, traj.x2)
        val = objective(x, params, s0, z, dt=0.05, lam=1000.0)
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_lam_zero_is_pure_misfit(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=10)
        x = stack_states(traj.x1 + 0.5, traj.x2)
        val = objective(x, params, s0, z, dt=0.05, lam=0.0)
        assert val == pytest.approx(0.5 * np.sum((traj.x1 + 0.5 - z) ** 2))

    def test_hand_value(self):
        # all-zero states satisfy the zero dynamics exactly, so only the data
        # term survives: 1/2 * (1^2 + 1^2) = 1.0
        params = VdpParams(alpha=np.zeros((1, 2)), coupling=np.zeros((1, 1)))
        x = np.zeros((2, 2))
        z = np.array([[1.0], [1.0]])
        anchor = State(x1=[0.0], x2=[0.0])
        val = objective(x, params, anchor, z, lam=2.0)
        assert val == pytest.approx(1.0)


def dense_linear_solution(params, anchor, z, lam, dt):
    """Normal-equations oracle for alpha1 = 0 instances (linear dynamics)."""
    m, n = z.shape[1], len(z)
    dim = 2 * m * n
    zero = np.zeros((n, 2 * m))
    jac = dense_state_jacobian(residual_jacobian_x(zero, params, dt))
    offset = residual(zero, params, anchor, dt)  # residual(x) = J x + offset
    h_mask = np.zeros(dim)
    h_mask[0::2] = 1.0
    h_diag = np.diag(h_mask)
    z_embed = np.zeros(dim)
    z_embed[0::2] = z.ravel()
    lhs = h_diag + lam * jac.T @ jac
    rhs = h_mask * z_embed - lam * jac.T @ offset
    return np.linalg.solve(lhs, rhs)


def dense_normal_matrix(x, params, lam, dt, substeps=1):
    """The inner normal matrix H'H + lam G_x'G_x, formed densely."""
    jac = dense_state_jacobian(residual_jacobian_x(x, params, dt, substeps))
    normal = lam * jac.T @ jac
    x1_rows = np.arange(0, x.size, 2)
    normal[x1_rows, x1_rows] += 1.0
    return normal


class TestNormalDiag:
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_the_dense_normal_matrix(self, rng, m, substeps):
        n, b, lam, dt = 12, 2 * m, 70.0, 0.1
        params = random_params(rng, m)
        x = rng.normal(0, 0.8, (n, b))
        sub = residual_jacobian_x(x, params, dt, substeps)
        dense = dense_normal_matrix(x, params, lam, dt, substeps)
        diag = estimator._normal_diag(sub, lam)
        assert diag.shape == (n, b, b)
        for k in range(n):
            block = dense[k * b:(k + 1) * b, k * b:(k + 1) * b]
            npt.assert_allclose(diag[k], block, rtol=1e-13, atol=1e-13 * np.max(np.abs(dense)))
        for k in range(n - 1):  # and the subdiagonal really is lam * sub
            npt.assert_allclose(dense[(k + 1) * b:(k + 2) * b, k * b:(k + 1) * b], lam * sub[k],
                                rtol=1e-13)


def _reference_normal_diag(sub, lam):
    """`_normal_diag` with the products sub' @ sub on one buffer, numpy's A'A
    (syrk) path: the reference the gemm-path products must equal."""
    n, b = sub.shape[-3] + 1, sub.shape[-1]
    block = lam * np.eye(b)
    block.reshape(-1)[:: 2 * b + 2] += 1.0
    diag = np.empty(sub.shape[:-3] + (n, b, b))
    diag[:] = block
    flat = sub.reshape(-1, b, b)
    diag[..., :-1, :, :] += lam * (flat.transpose(0, 2, 1) @ flat).reshape(sub.shape)
    return diag


@pytest.mark.parametrize("lead", [(), (3,)], ids=["lone", "lockstep"])
@pytest.mark.parametrize("b", range(2, 9))
def test_normal_diag_upper_triangles_equal_the_syrk_reference(rng, b, lead):
    # `solve_block_tridiagonal` reads only the upper triangles; the lower ones
    # of a gemm product need not mirror them on every BLAS kernel
    iu, il = np.triu_indices(b), np.tril_indices(b, -1)
    for n, lam in ((2, 1.0), (40, 70.0), (150, 1000.0)):
        sub = rng.normal(0.0, 1.5, lead + (n - 1, b, b))
        got, want = estimator._normal_diag(sub, lam), _reference_normal_diag(sub, lam)
        npt.assert_array_equal(got[..., iu[0], iu[1]].view(np.int64),
                               want[..., iu[0], iu[1]].view(np.int64))
        npt.assert_allclose(got[..., il[0], il[1]], want[..., il[0], il[1]], rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(want)))


class TestInnerSolve:
    def test_linear_case_matches_dense_oracle(self):
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            params, s0, traj, z = make_instance(rng, m=2, n=10, noise=0.05,
                                                nonlinear=False)
            anchor = s0
            x_init = rng.normal(0, 0.1, (10, 4))
            res = inner_solve(params, anchor, z, PenaltyConfig(), x_init, dt=0.05, lam=100.0,
                              **FINAL_STAGE)
            oracle = dense_linear_solution(params, anchor, z, 100.0, 0.05)
            npt.assert_allclose(res.x.ravel(), oracle, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("m, substeps", [(1, 1), (2, 3), (3, 2)])
    def test_gradient_matches_the_dense_gradient(self, rng, m, substeps):
        # grad f_lam = H'(Hx - z) + lam J'r, with J = dG/dx formed densely
        params, s0, _, z = make_instance(rng, m=m, n=12, noise=0.1)
        x = rng.normal(0, 0.5, (12, 2 * m))
        lam = 300.0
        res = inner_solve(params, s0, z, PenaltyConfig(), x, dt=0.05, substeps=substeps,
                          lam=lam, tol=1e-8, max_iter=0)
        jac = dense_state_jacobian(residual_jacobian_x(x, params, 0.05, substeps))
        grad = lam * jac.T @ residual(x, params, s0, 0.05, substeps)
        grad[0::2] += (x[:, 0::2] - z).ravel()
        assert res.iterations == 0 and not res.converged
        assert res.grad_inf == pytest.approx(np.max(np.abs(grad)), rel=1e-12)

    def test_truth_init_returns_unchanged(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=30)
        x_true = stack_states(traj.x1, traj.x2)
        res = inner_solve(params, s0, z, PenaltyConfig(), x_true, dt=0.05,
                          lam=1e3, **FINAL_STAGE)
        assert res.converged
        assert res.iterations == 0
        npt.assert_array_equal(res.x, x_true)

    def test_recovers_hidden_x2_track(self):
        rng = np.random.default_rng(9)
        params = VdpParams(alpha=np.array([[2.0, 1.0]]), coupling=np.array([[0.0]]))
        s0 = State(x1=[1.0], x2=[0.5])
        traj = simulate(params, s0, 100, 0.05)
        z = traj.x1
        x_init = stack_states(traj.x1, np.zeros_like(traj.x2))
        res = inner_solve(params, State(x1=traj.x1[0], x2=[0.0]), z,
                          PenaltyConfig(), x_init, dt=0.05, lam=1e3, **FINAL_STAGE)
        assert pearson(res.x[:, 1], traj.x2[:, 0]) >= 0.95

    def test_iteration_cap_flags_not_converged(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=20, noise=0.1)
        x_init = rng.normal(0, 0.3, (20, 2))
        res = inner_solve(params, s0, z, PenaltyConfig(), x_init, dt=0.05,
                          lam=1e3, tol=1e-8, max_iter=0)
        assert not res.converged
        assert res.iterations == 0

    def test_stops_converged_at_the_roundoff_floor(self):
        # at lam=1000 roundoff keeps the gradient above a 1e-13 tolerance, so
        # only the stop on a roundoff-sized decrease of f ends this solve
        rng = np.random.default_rng(0)
        params, s0, traj, z = make_instance(rng, m=2, n=100, noise=0.05)
        cfg = PenaltyConfig()
        res = inner_solve(params, s0, z, cfg, default_x_init(z, 0.05),
                          dt=0.05, lam=1e3, tol=1e-13, max_iter=100)
        assert res.converged
        assert res.iterations < 20
        assert res.grad_inf > 1e-13
        tight = inner_solve(params, s0, z, cfg, res.x, dt=0.05, lam=1e3,
                            tol=1e-13, max_iter=5)
        assert res.objective - tight.objective <= 1e-14 * res.objective


    def test_every_inner_converged_flag_of_a_fit_is_a_bool(self, monkeypatch):
        # at lam=1000 this fit's inner solves stop at the roundoff floor, a test
        # that returned np.True_ while its epsilon was a numpy scalar
        rng = np.random.default_rng(0)
        params, s0, traj, z = make_instance(rng, m=2, n=100, noise=0.05)
        seen = []
        real = estimator._inner_solves

        def spy(*args, **kwargs):
            results = real(*args, **kwargs)
            seen.extend((kwargs["tol"], res) for res in results)
            return results

        monkeypatch.setattr(estimator, "_inner_solves", spy)
        init = VdpParams(alpha=np.ones((2, 2)), coupling=np.zeros((2, 2)))
        fit(z, PenaltyConfig(outer_max_iter=3), init, dt=0.05)
        assert any(res.converged and res.grad_inf > tol for tol, res in seen)  # at the floor
        assert all(type(res.converged) is bool for _, res in seen)

    def test_stalled_line_search_counts_the_step_and_keeps_the_iterate(self, rng,
                                                                       monkeypatch):
        params, s0, traj, z = make_instance(rng, m=1, n=30, noise=0.05)
        x_init = default_x_init(z, 0.05)
        monkeypatch.setattr(estimator, "_MAX_HALVINGS", 0)  # no trial step is ever accepted
        res = inner_solve(params, s0, z, PenaltyConfig(), x_init, dt=0.05, lam=100.0,
                          **FINAL_STAGE)
        assert not res.converged and res.iterations == 1 and res.grad_inf > 0
        npt.assert_array_equal(res.x, x_init)
        npt.assert_array_equal(res.residual, residual(x_init, params, s0, 0.05))
        assert res.objective == objective(x_init, params, s0, z, dt=0.05, lam=100.0)

    def test_overflowing_trials_are_rejected_without_a_warning(self, rng, monkeypatch):
        # every trial, even after the last halving, is finite near 1e85 or more
        # while its residual overflows; warnings are errors under pytest's config
        params, s0, traj, z = make_instance(rng, m=1, n=30, noise=0.05)
        x_init = default_x_init(z, 0.05)
        real = estimator.solve_block_tridiagonal
        monkeypatch.setattr(estimator, "solve_block_tridiagonal",
                            lambda *args: 1e100 * real(*args))
        res = inner_solve(params, s0, z, PenaltyConfig(), x_init, dt=0.05, lam=100.0,
                          **FINAL_STAGE)
        assert not res.converged and res.iterations == 1
        assert res.x.tobytes() == x_init.tobytes()

    def test_armijo_c_near_one_halves_a_step_that_passes_at_1e_4(self, rng):
        # on a near-quadratic f the Gauss-Newton step t * delta lowers f by about
        # t (1 - t/2) |grad' delta|, which passes the Armijo test at c = 1e-4 for
        # t = 1 but at c = 0.99 only once t <= 0.02, so after six halvings
        params, s0, traj, z = make_instance(rng, m=2, n=20, noise=0.05)
        x0 = default_x_init(z, 0.05)
        lam = 100.0
        one_step = {"dt": 0.05, "lam": lam, "tol": 1e-12, "max_iter": 1}
        whole = inner_solve(params, s0, z, PenaltyConfig(armijo_c=1e-4), x0, **one_step)
        halved = inner_solve(params, s0, z, PenaltyConfig(armijo_c=0.99), x0, **one_step)
        grad = lam * dense_state_jacobian(residual_jacobian_x(x0, params, 0.05)).T @ residual(
            x0, params, s0, 0.05)
        grad[0::2] += (x0[:, 0::2] - z).ravel()
        delta = -np.linalg.solve(dense_normal_matrix(x0, params, lam, 0.05), grad)
        npt.assert_allclose(whole.x.ravel() - x0.ravel(), delta, rtol=1e-9, atol=1e-12)
        npt.assert_allclose(halved.x.ravel() - x0.ravel(), 2.0 ** -6 * delta, rtol=1e-9, atol=1e-12)


class TestValueGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        params, s0, traj, z = make_instance(rng, m=2, n=20, noise=0.02)
        anchor = s0
        cfg, stage = PenaltyConfig(), {"lam": 100.0, "tol": 1e-10, "max_iter": 400}
        probe = VdpParams(
            alpha=params.alpha * 0.9, coupling=params.coupling + 0.05
        )
        vg = value_gradient(probe, anchor, z, cfg, dt=0.05, **stage)
        vec = probe.to_vector()
        h = 1e-4
        fd = np.empty_like(vec)
        for j in range(vec.size):
            hi, lo = vec.copy(), vec.copy()
            hi[j] += h
            lo[j] -= h
            f_hi = value_gradient(VdpParams.from_vector(hi, 2), anchor, z, cfg, dt=0.05,
                                  **stage).value
            f_lo = value_gradient(VdpParams.from_vector(lo, 2), anchor, z, cfg, dt=0.05,
                                  **stage).value
            fd[j] = (f_hi - f_lo) / (2 * h)
        scale = np.maximum(np.abs(fd), np.abs(vg.gradient))
        rel = np.abs(vg.gradient - fd) / np.maximum(scale, 1e-8)
        assert np.max(rel) < 1e-3

    def test_zero_gradient_on_noise_free_fit(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=30)
        x_true = stack_states(traj.x1, traj.x2)
        vg = value_gradient(params, s0, z, PenaltyConfig(), x_init=x_true,
                            dt=0.05, lam=1e3, **FINAL_STAGE)
        npt.assert_array_equal(vg.gradient, np.zeros(3))
        assert vg.value == 0.0

    def test_low_accuracy_flag(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=20, noise=0.1)
        x_init = rng.normal(0, 0.3, (20, 2))
        vg = value_gradient(params, s0, z, PenaltyConfig(), x_init=x_init,
                            dt=0.05, lam=1e3, tol=1e-8, max_iter=0)
        assert vg.low_accuracy
        assert np.all(np.isfinite(vg.gradient))


def _reduced_residual(vg, z, lam):
    return np.concatenate([(z - vg.x[:, 0::2]).ravel(), math.sqrt(lam) * vg.inner.residual])


class TestReducedJacobian:
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_central_differences_of_the_inner_minimizer(self, m, substeps):
        # on noise-free data at the truth G - eta0 vanishes, so the Gauss-Newton
        # sensitivity dx*/dp is the exact derivative of the inner minimizer
        rng = np.random.default_rng(10 * m + substeps)
        params = random_params(rng, m)
        s0 = random_state(rng, m, 0.4)
        traj = simulate(params, s0, 30, 0.1, substeps=substeps)
        z = traj.x1
        stage = {"dt": 0.1, "substeps": substeps, "lam": 50.0, "tol": 1e-12, "max_iter": 200}
        cfg = PenaltyConfig()
        vg = value_gradient(params, s0, z, cfg, stack_states(traj.x1, traj.x2), **stage)
        jac, dx_dp = reduced_jacobian(vg, stage["lam"])
        vec, h = params.to_vector(), 1e-6
        fd_x = np.empty((vg.x.size, vec.size))
        fd_r = np.empty(jac.shape)
        for j in range(vec.size):
            ends = []
            for sign in (1.0, -1.0):
                p = vec.copy()
                p[j] += sign * h
                inner = inner_solve(VdpParams.from_vector(p, m), s0, z, cfg, vg.x, **stage)
                assert inner.converged
                r = np.concatenate([(z - inner.x[:, 0::2]).ravel(),
                                    math.sqrt(stage["lam"]) * inner.residual])
                ends.append((inner.x.ravel(), r))
            fd_x[:, j] = (ends[0][0] - ends[1][0]) / (2 * h)
            fd_r[:, j] = (ends[0][1] - ends[1][1]) / (2 * h)
        assert dx_dp.shape == (30, 2 * m, vec.size)
        npt.assert_allclose(dx_dp.reshape(-1, vec.size), fd_x, atol=1e-6 * np.max(np.abs(fd_x)))
        jtj_fd = fd_r.T @ fd_r
        npt.assert_allclose(jac.T @ jac, jtj_fd, atol=1e-6 * np.max(np.abs(jtj_fd)))

    @pytest.mark.parametrize("m", [1, 2])
    def test_j_transpose_r_is_the_value_gradient(self, m):
        rng = np.random.default_rng(m)
        params, s0, traj, z = make_instance(rng, m=m, n=30, noise=0.05)
        probe = VdpParams(alpha=params.alpha * 0.9, coupling=params.coupling + 0.05)
        vg = value_gradient(probe, s0, z, PenaltyConfig(), dt=0.05, lam=100.0, tol=1e-11,
                            max_iter=200)
        jac, _ = reduced_jacobian(vg, 100.0)
        npt.assert_allclose(jac.T @ _reduced_residual(vg, z, 100.0), vg.gradient,
                            atol=1e-8 * np.max(np.abs(vg.gradient)))


def test_misfit_stays_flat_across_lam_schedule_on_consistent_data(rng):
    # noise-free linear instances are exactly representable, so the data
    # misfit term sits at ~0 for every penalty weight instead of trading off
    params, s0, traj, z = make_instance(rng, m=2, n=15, nonlinear=False)
    anchor = s0
    misfits = []
    x = default_x_init(z, 0.05)
    for lam in (10.0, 100.0, 1000.0):
        res = inner_solve(params, anchor, z, PenaltyConfig(), x, dt=0.05, lam=lam, tol=1e-12,
                          max_iter=300)
        x = res.x  # warm start the next stage
        misfits.append(0.5 * np.sum((z - res.x[:, 0::2]) ** 2))
    assert all(m < 1e-9 for m in misfits)
    for a, b in zip(misfits, misfits[1:]):
        assert b <= a + 1e-9


class TestHiddenInit:
    def test_cumsum_estimate_shape_and_mean(self, rng):
        z = rng.normal(size=(50, 3))
        est = hidden_x2_estimate(z, 0.1)
        assert est.shape == (50, 3)
        npt.assert_allclose(est.mean(axis=0), 0.0, atol=1e-12)

    def test_tracks_negative_integral_shape(self):
        # for a zero-mean oscillation the estimate correlates with true x2
        params = VdpParams(alpha=np.array([[2.0, 1.0]]), coupling=np.array([[0.0]]))
        traj = simulate(params, State(x1=[1.0], x2=[0.0]), 200, 0.05)
        z = traj.x1
        est = hidden_x2_estimate(z, 0.05)
        assert pearson(est[50:, 0], traj.x2[50:, 0]) > 0.8

    @pytest.mark.parametrize("z, dt", [(np.full((5, 2), 1e308), 0.1), (np.ones((5, 2)), np.inf)],
                             ids=["overflowing-sum", "infinite-dt"])
    def test_a_non_finite_estimate_falls_back_to_zeros_without_a_warning(self, z, dt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            npt.assert_array_equal(hidden_x2_estimate(z, dt), np.zeros((5, 2)))


def criterion_6_segments():
    """Acceptance criterion 6's five N=100 training segments (m=2, dt=0.15)."""
    truth = VdpParams(alpha=np.array([[2.2, 1.0], [1.9, 0.9]]),
                      coupling=np.array([[0.0, 0.25], [-0.2, 0.0]]))
    traj = simulate(truth, State(x1=np.array([1.0, -0.8]), x2=np.array([0.0, 0.2])), 600, 0.15)
    data = traj.x1 + np.random.default_rng(600).normal(0, 0.005, traj.x1.shape)
    return [data[seg.train[0]:seg.train[1]]
            for seg in split_segments(600, 100, 20, 5).segments]


class TestFit:
    def test_truth_init_noise_free_converges_immediately(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=50)
        x_true = stack_states(traj.x1, traj.x2)
        cfg = PenaltyConfig()
        res = fit(z, cfg, params, x_init=x_true, dt=0.05)
        n_stages = len(cfg.lam_schedule)
        accepted = len(res.objective_history) - n_stages
        assert accepted <= 2
        assert res.objective_history[-1][2] < 1e-10
        npt.assert_array_equal(res.params.alpha, params.alpha)
        npt.assert_array_equal(res.params.coupling, params.coupling)

    def test_single_component_recovery(self):
        rng = np.random.default_rng(7)
        truth = VdpParams(alpha=np.array([[1.5, 1.0]]), coupling=np.array([[0.0]]))
        traj = simulate(truth, State(x1=[1.0], x2=[0.0]), 100, 0.1)
        z = traj.x1 + rng.normal(0, 0.02, traj.x1.shape)
        init = VdpParams(alpha=np.array([[1.0, 0.5]]), coupling=np.array([[0.0]]))
        res = fit(z, PenaltyConfig(), init, dt=0.1)
        assert pearson(res.states.x1[:, 0], traj.x1[:, 0]) >= 0.95
        rel = np.abs(res.params.alpha - truth.alpha) / np.abs(truth.alpha)
        assert np.all(rel <= 0.20)

    def test_history_nonincreasing_within_each_stage(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=60, noise=0.05)
        init = VdpParams(alpha=params.alpha * 0.7, coupling=params.coupling)
        res = fit(z, PenaltyConfig(outer_max_iter=30), init, dt=0.05)
        by_lam = {}
        for _, lam, f in res.objective_history:
            by_lam.setdefault(lam, []).append(f)
        for vals in by_lam.values():
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-12

    def test_history_iteration_index_is_unique_and_increasing(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=40, noise=0.05)
        init = VdpParams(alpha=params.alpha * 0.8, coupling=params.coupling)
        res = fit(z, PenaltyConfig(outer_max_iter=10), init, dt=0.05)
        idx = [i for i, _, _ in res.objective_history]
        assert idx == sorted(set(idx))

    def test_bounds_respected_exactly(self, rng):
        params, s0, traj, z = make_instance(rng, m=2, n=40, noise=0.05)
        bounds = ParamBounds(alpha1=(0.0, 1.2), alpha2=(-0.8, 0.8), coupling=(-0.1, 0.1))
        cfg = PenaltyConfig(bounds=bounds, outer_max_iter=15)
        init = bounds.clip_params(params)
        res = fit(z, cfg, init, dt=0.05)
        assert bounds.contains(res.params)

    @pytest.mark.parametrize("outer_max_iter", [4, 40])  # the benchmark's cap and the paper's
    def test_criterion_6_segments_stop_for_a_tolerance_reason(self, outer_max_iter):
        init = VdpParams(alpha=np.ones((2, 2)), coupling=np.zeros((2, 2)))
        for z in criterion_6_segments():
            res = fit(z, PenaltyConfig(outer_max_iter=outer_max_iter), init, dt=0.15)
            assert res.converged
            assert res.reason in ("projected gradient below tolerance", "step below tolerance")

    @pytest.mark.parametrize("stage", PenaltyConfig().stages(), ids=["lam10", "lam100", "lam1000"])
    def test_warm_started_trial_solve_reaches_the_cold_minimizer(self, stage):
        # fit's first LM trial on criterion 6's segment 0, solved from x* and
        # from the first-order prediction x* + dx*/dp move
        lam, tol, cap = stage
        z, dt, cfg = criterion_6_segments()[0], 0.15, PenaltyConfig()
        init = VdpParams(alpha=np.ones((2, 2)), coupling=np.zeros((2, 2)))
        x0 = default_x_init(z, dt)
        kw = {"dt": dt, "lam": lam, "tol": tol, "max_iter": cap}
        anchor = State(x1=x0[0, 0::2], x2=x0[0, 1::2])
        vg = value_gradient(init, anchor, z, cfg, x0, **kw)
        jac, dx_dp = reduced_jacobian(vg, lam)
        jtj = jac.T @ jac
        scale = np.diag(jtj)
        p = init.to_vector()
        move = np.clip(p - np.linalg.solve(jtj + np.diag(1e-3 * np.max(scale) * scale),
                                           vg.gradient), cfg.bounds.lower(2),
                       cfg.bounds.upper(2)) - p
        trial = VdpParams.from_vector(p + move, 2)
        cold = inner_solve(trial, anchor, z, cfg, vg.x, **kw)
        warm = inner_solve(trial, anchor, z, cfg,
                           vg.x + (dx_dp.reshape(-1, p.size) @ move).reshape(vg.x.shape), **kw)
        assert cold.converged and warm.converged
        assert warm.iterations <= cold.iterations
        # two points whose gradients are within tol of zero lie within
        # ||A^-1|| (|grad_warm| + |grad_cold|) of each other
        a_inv = np.linalg.inv(dense_normal_matrix(cold.x, trial, lam, dt))
        bound = np.max(np.sum(np.abs(a_inv), axis=1)) * (warm.grad_inf + cold.grad_inf)
        assert np.max(np.abs(warm.x - cold.x)) <= bound

    def test_init_outside_bounds_rejected(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=20)
        bounds = ParamBounds(alpha1=(0.0, 0.5))
        bad = VdpParams(alpha=np.array([[2.0, 0.5]]), coupling=np.zeros((1, 1)))
        with pytest.raises(FitError):
            fit(z, PenaltyConfig(bounds=bounds), bad, dt=0.05)

    def test_nonfinite_at_init_names_component(self, rng):
        params, s0, traj, z = make_instance(rng, m=2, n=10)
        huge = np.full((10, 4), 1e160)
        with pytest.raises(FitError, match="component"):
            fit(z, PenaltyConfig(), params, x_init=huge, dt=0.05)

    def test_deterministic(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=50, noise=0.03)
        init = VdpParams(alpha=params.alpha * 0.8, coupling=params.coupling)
        cfg = PenaltyConfig(outer_max_iter=20)
        a = fit(z, cfg, init, dt=0.05)
        b = fit(z, cfg, init, dt=0.05)
        npt.assert_array_equal(a.params.alpha, b.params.alpha)
        npt.assert_array_equal(a.params.coupling, b.params.coupling)
        assert a.objective_history == b.objective_history

    def test_json_round_trip(self, rng):
        params, s0, traj, z = make_instance(rng, m=1, n=30, noise=0.02)
        res = fit(z, PenaltyConfig(outer_max_iter=5), params, dt=0.05)
        doc = res.to_json_dict()
        assert set(doc) >= {"alpha", "W", "states", "stats", "objective_history",
                            "converged", "config_echo"}
        from vdpfit.estimator import FitResult

        back = FitResult.from_json_dict(doc)
        npt.assert_allclose(back.params.alpha, res.params.alpha)
        npt.assert_allclose(back.states.x1, res.states.x1)
        assert back.states.dt == res.states.dt


def lockstep_series(m, substeps, count, n=30, dt=0.1):
    """`count` noisy (n, m) series, each simulated from its own parameters and
    start, as one (count, n, m) array, with one init per series."""
    rng = np.random.default_rng(100 * m + 10 * substeps + count)
    z, inits = [], []
    for _ in range(count):
        traj = simulate(random_params(rng, m), random_state(rng, m, 0.5), n, dt, substeps)
        z.append(traj.x1 + rng.normal(0, 0.02, traj.x1.shape))
        inits.append(random_params(rng, m))
    return np.array(z), inits


def fit_json(result):
    return json.dumps(result.to_json_dict())


class TestFitLockstep:
    """Each problem of a lockstep fit is its lone `fit`, byte for byte."""

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_each_problem_equals_its_lone_fit(self, m, substeps, count):
        z, inits = lockstep_series(m, substeps, count)
        cfg = PenaltyConfig(outer_max_iter=6)
        results = fit_lockstep(z, cfg, inits, dt=0.1, substeps=substeps)
        assert len(results) == count
        for zk, init, res in zip(z, inits, results):
            assert fit_json(res) == fit_json(fit(zk, cfg, init, dt=0.1, substeps=substeps))

    def test_given_starts_equal_lone_fits_from_them(self):
        z, inits = lockstep_series(2, 1, 3)
        x_init = [None, default_x_init(z[1], 0.1) + 0.05, default_x_init(z[2], 0.1) - 0.1]
        cfg = PenaltyConfig(outer_max_iter=6)
        results = fit_lockstep(z, cfg, inits, x_init, dt=0.1)
        for zk, init, x0, res in zip(z, inits, x_init, results):
            assert fit_json(res) == fit_json(fit(zk, cfg, init, x0, dt=0.1))

    @pytest.mark.parametrize("outer_max_iter", [4, 40])
    def test_criterion_6_segments_equal_their_lone_fits(self, outer_max_iter):
        segments = criterion_6_segments()
        cfg = PenaltyConfig(outer_max_iter=outer_max_iter)
        init = VdpParams(alpha=np.ones((2, 2)), coupling=np.zeros((2, 2)))
        results = fit_lockstep(np.array(segments), cfg, [init] * 5, dt=0.15)
        lone = [fit(z, cfg, init, dt=0.15) for z in segments]
        assert [fit_json(r) for r in results] == [fit_json(r) for r in lone]

    def test_problems_leaving_at_different_steps_equal_their_lone_fits(self):
        z, inits = lockstep_series(1, 1, 5)
        cfg = PenaltyConfig(outer_max_iter=40)
        results = fit_lockstep(z, cfg, inits, dt=0.1)
        lone = [fit(zk, cfg, init, dt=0.1) for zk, init in zip(z, inits)]
        assert [fit_json(r) for r in results] == [fit_json(r) for r in lone]
        # the problems leave the lockstep at different steps and for every reason
        assert len({len(r.objective_history) for r in lone}) == 5
        assert {r.reason for r in lone} == {"projected gradient below tolerance",
                                            "step below tolerance", "max outer iterations"}

    def test_the_lowest_index_failure_is_raised(self, monkeypatch):
        # segment 3 fails at its first evaluation, segment 1 only at its
        # second stage's start: one at a time, segment 1 fails first
        segments = np.array(criterion_6_segments())
        x_init = [None] * 5
        x_init[3] = default_x_init(segments[3], 0.15)
        x_init[3][5, 2] = 1e200  # overflows component 1's residual
        real = estimator._inner_solves

        def poisoned(params, anchors, z, cfg, x, *, lam, **kwargs):
            out = real(params, anchors, z, cfg, x, lam=lam, **kwargs)
            return [replace(res, objective=math.nan)
                    if lam == 100.0 and np.array_equal(zk, segments[1]) else res
                    for res, zk in zip(out, z)]

        monkeypatch.setattr(estimator, "_inner_solves", poisoned)
        cfg = PenaltyConfig(outer_max_iter=2)
        init = VdpParams(alpha=np.ones((2, 2)), coupling=np.zeros((2, 2)))
        with pytest.raises(FitError, match=r"component 1\)"):
            fit(segments[3], cfg, init, x_init[3], dt=0.15)
        with pytest.raises(FitError) as lone:
            for z, x0 in zip(segments, x_init):
                fit(z, cfg, init, x0, dt=0.15)
        assert "(component 0)" in str(lone.value)
        with pytest.raises(FitError) as lockstep:
            fit_lockstep(segments, cfg, [init] * 5, x_init, dt=0.15)
        assert str(lockstep.value) == str(lone.value)

    @pytest.mark.parametrize("failure", ["init out of bounds", "first evaluation",
                                         "second stage start"])
    def test_a_failing_first_problem_is_raised(self, failure, monkeypatch):
        # problem 0 fails, so no problem is left to step; problem 2 fails too
        segments = np.array(criterion_6_segments()[:3])
        cfg = PenaltyConfig(outer_max_iter=2)
        init = VdpParams(alpha=np.ones((2, 2)), coupling=np.zeros((2, 2)))
        inits = [init] * 3
        x_init = [None, None, default_x_init(segments[2], 0.15)]
        x_init[2][5, 2] = 1e200  # overflows component 1's residual
        if failure == "init out of bounds":
            inits[0] = VdpParams(alpha=np.full((2, 2), 9.0), coupling=np.zeros((2, 2)))
        elif failure == "first evaluation":
            x_init[0] = default_x_init(segments[0], 0.15)
            x_init[0][7, 0] = 1e200
        else:
            real = estimator._inner_solves

            def poisoned(params, anchors, z, cfg, x, *, lam, **kwargs):
                out = real(params, anchors, z, cfg, x, lam=lam, **kwargs)
                return [replace(res, objective=math.nan)
                        if lam == 100.0 and np.array_equal(zk, segments[0]) else res
                        for res, zk in zip(out, z)]

            monkeypatch.setattr(estimator, "_inner_solves", poisoned)
        with pytest.raises(FitError) as lone:
            for z, p0, x0 in zip(segments, inits, x_init):
                fit(z, cfg, p0, x0, dt=0.15)
        with pytest.raises(FitError) as lockstep:
            fit_lockstep(segments, cfg, inits, x_init, dt=0.15)
        assert str(lockstep.value) == str(lone.value)
        assert "component 1" not in str(lockstep.value)  # not problem 2's error

    def test_rejects_mismatched_problem_counts(self):
        z, inits = lockstep_series(1, 1, 2)
        cfg = PenaltyConfig()
        with pytest.raises(DimensionError):
            fit_lockstep(z, cfg, inits[:1], dt=0.1)
        with pytest.raises(DimensionError):
            fit_lockstep(z, cfg, inits, [None], dt=0.1)
        with pytest.raises(DimensionError):
            fit_lockstep(z[0], cfg, inits[:1], dt=0.1)
        with pytest.raises(DimensionError, match=r"\[\]"):  # no problem at all
            fit_lockstep(z[:0], cfg, [], dt=0.1)
        with pytest.raises(DimensionError, match=r"\(29, 1\), \(30, 1\)"):  # unequal N
            fit_lockstep([z[0], z[1][:-1]], cfg, inits, dt=0.1)
        wide, wide_inits = lockstep_series(2, 1, 1)
        with pytest.raises(DimensionError, match=r"\(30, 1\), \(30, 2\)"):  # unequal m
            fit_lockstep([z[0], wide[0]], cfg, [inits[0], wide_inits[0]], dt=0.1)


class TestParamBounds:
    BOUNDS = ParamBounds(alpha1=(0.5, 4), alpha2=(-3, 2), coupling=(-1, 1.5))
    # (lower, upper) in the [a1_1..a1_m, a2_1..a2_m, W row-major] layout, by hand
    CORNERS = {
        1: ([0.5, -3, -1], [4, 2, 1.5]),
        2: ([0.5, 0.5, -3, -3, -1, -1, -1, -1], [4, 4, 2, 2, 1.5, 1.5, 1.5, 1.5]),
        3: ([0.5, 0.5, 0.5, -3, -3, -3, -1, -1, -1, -1, -1, -1, -1, -1, -1],
            [4, 4, 4, 2, 2, 2, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5]),
    }

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lower_and_upper_follow_the_vector_layout(self, m):
        lo, hi = self.CORNERS[m]
        assert self.BOUNDS.lower(m).dtype == float and self.BOUNDS.upper(m).dtype == float
        npt.assert_array_equal(self.BOUNDS.lower(m), lo)
        npt.assert_array_equal(self.BOUNDS.upper(m), hi)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_clip_maps_out_of_box_params_onto_the_corners(self, m):
        lo, hi = self.CORNERS[m]
        for fill, corner in ((-10.0, lo), (10.0, hi)):
            params = VdpParams(alpha=np.full((m, 2), fill), coupling=np.full((m, m), fill))
            assert not self.BOUNDS.contains(params)
            npt.assert_array_equal(self.BOUNDS.clip_params(params).to_vector(), corner)

    def test_clip_moves_only_the_out_of_box_entries(self):
        params = VdpParams(alpha=np.array([[10.0, 1.0], [0.7, -9.0]]),
                           coupling=np.array([[-5.0, 0.25], [1.0, 9.0]]))
        clipped = self.BOUNDS.clip_params(params)
        npt.assert_array_equal(clipped.alpha, [[4.0, 1.0], [0.7, -3.0]])
        npt.assert_array_equal(clipped.coupling, [[-1.0, 0.25], [1.0, 1.5]])
        assert self.BOUNDS.contains(clipped)


def test_json_needs_dt_and_defaults_substeps(rng):
    params = random_params(rng, 1)
    traj = simulate(params, random_state(rng, 1, 0.3), 10, 0.1)
    doc = FitResult(params, traj, [], [], True, "synthetic", {"dt": 0.1}).to_json_dict()
    assert FitResult.from_json_dict(doc).substeps == 1
    doc["config_echo"] = {"dt": 0.1, "substeps": 0}
    with pytest.raises(ValueError, match="substeps"):
        FitResult.from_json_dict(doc)
    doc["config_echo"] = {}
    with pytest.raises(ValueError, match="'dt'"):
        FitResult.from_json_dict(doc)


def test_json_rejects_stacked_parameters(rng):
    params = random_params(rng, 1)
    traj = simulate(params, random_state(rng, 1, 0.3), 10, 0.1)
    doc = FitResult(params, traj, [], [], True, "synthetic", {"dt": 0.1}).to_json_dict()
    doc["alpha"], doc["W"] = [doc["alpha"]], [doc["W"]]  # one problem of a stack
    with pytest.raises(ValueError, match=r"alpha is \(1, 1, 2\)"):
        FitResult.from_json_dict(doc)


class TestInputChecks:
    """Observations are a finite (N, m) array with N >= 2, and a stacked state a
    finite (N, 2m) array; every estimator entry point checks both."""

    ENTRY_POINTS = {
        "fit": lambda z, x, p: fit(z, PenaltyConfig(), p, x, dt=0.05),
        "value_gradient": lambda z, x, p: value_gradient(
            p, State(x1=[0.0], x2=[0.0]), z, PenaltyConfig(), x, dt=0.05, lam=10.0,
            **FINAL_STAGE),
        "inner_solve": lambda z, x, p: inner_solve(
            p, State(x1=[0.0], x2=[0.0]), z, PenaltyConfig(),
            np.zeros((len(z), 2)) if x is None else x, dt=0.05, lam=10.0, **FINAL_STAGE),
    }

    @pytest.mark.parametrize("z, error, match", [
        (np.array([0.1, 0.2, 0.3]), DimensionError, r"\(N, m\)"),
        (np.array([[0.1], [np.nan], [0.3]]), ValueError, "non-finite"),
        (np.array([[0.1], [np.inf], [0.3]]), ValueError, "non-finite"),
        (np.array([[0.1]]), ValueError, "at least 2 samples, got 1"),
    ], ids=["1-D", "nan", "inf", "one-sample"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_bad_observations(self, rng, entry, z, error, match):
        params = random_params(rng, 1)
        with pytest.raises(error, match=match):
            check_observations(z)
        with pytest.raises(error, match=match):
            self.ENTRY_POINTS[entry](z, None, params)

    @pytest.mark.parametrize("shape", [(10, 1), (9, 2), (10, 4), (20,)])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_a_misshaped_x_init(self, rng, entry, shape):
        params, _, _, z = make_instance(rng, m=1, n=10)
        with pytest.raises(DimensionError, match=r"\(10, 2\)"):
            self.ENTRY_POINTS[entry](z, np.zeros(shape), params)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_a_non_finite_x_init(self, rng, entry, value):
        params, _, traj, z = make_instance(rng, m=1, n=10)
        x = stack_states(traj.x1, traj.x2)
        x[4, 1] = value
        with pytest.raises(ValueError, match="finite"):
            self.ENTRY_POINTS[entry](z, x, params)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("entry", ["fit", "fit_lockstep"])
    def test_rejects_an_init_of_another_size(self, rng, entry, m):
        _, _, _, z = make_instance(rng, m=1, n=10)
        init = random_params(rng, m)
        with pytest.raises(DimensionError, match=rf"init alpha \({m}, 2\) does not match 1 "):
            if entry == "fit":
                fit(z, PenaltyConfig(), init, dt=0.05)
            else:
                fit_lockstep([z, z], PenaltyConfig(), [random_params(rng, 1), init], dt=0.05)

    @pytest.mark.parametrize("lam", [0.0, -10.0])
    def test_inner_solve_rejects_a_non_positive_lam(self, rng, lam):
        params, s0, traj, z = make_instance(rng, m=1, n=10)
        with pytest.raises(ValueError, match="lam > 0"):
            inner_solve(params, s0, z, PenaltyConfig(), stack_states(traj.x1, traj.x2),
                        dt=0.05, lam=lam, **FINAL_STAGE)

    def test_accepts_a_list_of_rows(self):
        z = check_observations([[1, 2], [3, 4], [5, 6]])
        assert z.dtype == np.float64 and z.shape == (3, 2)


def test_default_x_init_uses_observations(rng):
    z = rng.normal(size=(30, 2))
    x = default_x_init(z, 0.1)
    npt.assert_array_equal(x[:, 0::2], z)
    npt.assert_allclose(x[:, 1::2].mean(axis=0), 0.0, atol=1e-12)


@pytest.mark.parametrize("cfg, want", [
    (PenaltyConfig(lam_schedule=(7.0,), inner_tol=1e-6, inner_max_iter=30), [(7.0, 1e-6, 30)]),
    (PenaltyConfig(), [(10.0, 1e-4, 50), (100.0, 1e-6, 125), (1000.0, 1e-8, 200)]),
], ids=["one-stage", "default"])
def test_stages(cfg, want):
    assert cfg.stages() == want


# a non-default value for every PenaltyConfig field, the bounds one by one
NON_DEFAULT = {
    "lam_schedule": (10.0, 100.0),
    "inner_tol": 1e-3,
    "inner_tol_start": 1e-2,
    "inner_max_iter": 3,
    "inner_max_iter_start": 1,
    "outer_max_iter": 2,
    "outer_ftol": 1e-2,
    "outer_gtol": 1.0,
    "armijo_c": 0.5,
    "bounds.alpha1": (0.0, 1.2),
    "bounds.alpha2": (-0.7, 0.7),
    "bounds.coupling": (-0.1, 0.1),
}


def small_series():
    """A fixed noisy m=1 series (dt=0.1) and an init away from its truth."""
    truth = VdpParams(alpha=np.array([[1.5, 1.0]]), coupling=np.array([[0.2]]))
    traj = simulate(truth, State(x1=[1.0], x2=[0.0]), 40, 0.1)
    z = traj.x1 + np.random.default_rng(3).normal(0, 0.02, traj.x1.shape)
    return z, VdpParams(alpha=np.array([[1.0, 0.5]]), coupling=np.array([[0.0]]))


@pytest.fixture(scope="module")
def small_fit():
    """fit(cfg) on `small_series`."""
    z, init = small_series()
    default = fit(z, PenaltyConfig(), init, dt=0.1)
    return lambda cfg: fit(z, cfg, init, dt=0.1), default


@pytest.mark.parametrize("name", [f.name for f in fields(PenaltyConfig) if f.name != "bounds"]
                         + [f"bounds.{f.name}" for f in fields(ParamBounds)])
def test_every_penalty_field_changes_the_fit(small_fit, name):
    run, default = small_fit
    value = NON_DEFAULT[name]
    if name.startswith("bounds."):
        cfg = PenaltyConfig(bounds=replace(ParamBounds(), **{name[len("bounds."):]: value}))
    else:
        cfg = PenaltyConfig(**{name: value})
    res = run(cfg)
    same = (np.array_equal(res.params.to_vector(), default.params.to_vector())
            and np.array_equal(res.states.x1, default.states.x1)
            and np.array_equal(res.states.x2, default.states.x2)
            and res.objective_history == default.objective_history)
    assert not same


def test_damped_step_solve_is_scipys_cholesky_bit_for_bit(rng):
    for p in (1, 8, 15):
        jac = rng.normal(size=(p + 4, p)) * 10.0 ** rng.uniform(-4, 4, p)
        jtj = jac.T @ jac
        a, g = jtj + np.diag(1e-3 * np.diag(jtj)), rng.normal(size=p)
        assert (estimator._cholesky_solve(a, g).tobytes()
                == cho_solve(cho_factor(a), g).tobytes())
    with pytest.raises(np.linalg.LinAlgError):  # a rejected LM trial in `_fits`
        estimator._cholesky_solve(-np.eye(3), np.ones(3))
    with pytest.raises(ValueError):
        estimator._cholesky_solve(np.diag([1.0, math.nan]), np.ones(2))
    with pytest.raises(ValueError):
        estimator._cholesky_solve(np.eye(2), np.array([1.0, math.inf]))


def test_lm_trial_is_accepted_only_when_its_gain_ratio_beats_armijo_c(monkeypatch):
    # the first trial step on small_series at lam = 1000 has a gain ratio near
    # 0.38 under either armijo_c below, though each also sets the inner Armijo test
    z, init = small_series()
    lam = 1000.0
    seen = []

    def spy(params, *args, **kwargs):
        seen.append((params.to_vector(), value_gradient(params, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(estimator, "value_gradient", spy)
    runs = {}
    for c in (0.2, 0.45):
        seen.clear()
        res = fit(z, PenaltyConfig(lam_schedule=(lam,), outer_max_iter=1, armijo_c=c), init,
                  dt=0.1)
        (p0, vg0), (p1, vg1) = seen
        jac, _ = reduced_jacobian(vg0, lam)
        move = p1 - p0
        predicted = -vg0.gradient @ move - 0.5 * move @ jac.T @ jac @ move
        runs[c] = (vg0.value - vg1.value) / predicted, vg1.value, res.objective_history
    (rho_lo, f_trial, accepted), (rho_hi, _, rejected) = runs[0.2], runs[0.45]
    assert 0.2 < rho_lo < 0.45 and 0.2 < rho_hi < 0.45
    assert [f for _, _, f in accepted][1:] == [f_trial]
    assert len(rejected) == 1


def test_a_stage_starts_from_the_damping_the_last_one_ended_with(monkeypatch):
    # on small_series with these settings the lam = 10 stage ends on a step
    # below outer_ftol, so its last damped J'J holds the mu it ends with
    z, init = small_series()
    events = []
    real_jacobian, real_solve = estimator.reduced_jacobian, estimator._cholesky_solve

    def jacobian_spy(vg, lam):
        jac, dx_dp = real_jacobian(vg, lam)
        events.append(("linearize", lam, jac.T @ jac))
        return jac, dx_dp

    def factor_spy(a, *args, **kwargs):
        events.append(("factor", a))
        return real_solve(a, *args, **kwargs)

    def value_spy(*args, **kwargs):
        events.append(("evaluate", kwargs["lam"]))
        return value_gradient(*args, **kwargs)

    monkeypatch.setattr(estimator, "reduced_jacobian", jacobian_spy)
    monkeypatch.setattr(estimator, "_cholesky_solve", factor_spy)
    monkeypatch.setattr(estimator, "value_gradient", value_spy)
    fit(z, PenaltyConfig(lam_schedule=(10.0, 100.0), outer_ftol=1e-4), init, dt=0.1)
    mus = []  # (lam, mu, 1e-3 max diag(J'J)) per damped factorization
    for kind, *rest in events:
        if kind == "linearize":
            lam, jtj = rest
            scale = np.diag(jtj)
        elif kind == "factor":  # the damped matrix is J'J + mu diag(J'J)
            mus.append((lam, float(np.median((np.diag(rest[0]) - scale) / scale)),
                        1e-3 * float(np.max(scale))))
    first_stage = [(mu, restart) for lam, mu, restart in mus if lam == 10.0]
    carried, restart = next((mu, restart) for lam, mu, restart in mus if lam == 100.0)
    stage_2_start = events.index(("evaluate", 100.0))
    assert events[stage_2_start - 1][0] == "factor"  # no trial after the last factorization
    assert first_stage[0][0] == pytest.approx(first_stage[0][1], rel=1e-9)
    assert carried == pytest.approx(first_stage[-1][0], rel=1e-9)
    assert carried != pytest.approx(restart, rel=0.1)


def test_an_early_stage_stops_at_its_inner_tolerance(monkeypatch):
    # the first stage resolves f_tilde only to its inner tolerance (1e-4 at
    # lam = 10), so its projected gradient stops it at max(outer_gtol, 1e-4):
    # 8 value gradients there, where the absolute outer_gtol (1e-6) took 16,
    # with the same history and parameters
    z, init = small_series()
    lams = []

    def counting(*args, **kwargs):
        lams.append(kwargs["lam"])
        return value_gradient(*args, **kwargs)

    monkeypatch.setattr(estimator, "value_gradient", counting)
    res = fit(z, PenaltyConfig(), init, dt=0.1)
    assert [lams.count(lam) for lam in (10.0, 100.0, 1000.0)] == [8, 8, 8]
    assert [lam for _, lam, _ in res.objective_history].count(10.0) == 8
