import warnings

import numpy as np
import numpy.testing as npt
import pytest

from vdpfit.model import (
    DimensionError,
    SimulationDiverged,
    State,
    Trajectory,
    VdpParams,
    batch_param_jacobians,
    batch_state_jacobians,
    jacobians,
    rollout,
    simulate,
    step,
    vector_field,
)

from conftest import random_params, random_state


def p1(a1, a2, w=0.0):
    return VdpParams(alpha=np.array([[a1, a2]]), coupling=np.array([[w]]))


class TestVectorField:
    def test_pure_rotation(self):
        dx1, dx2 = vector_field(p1(0.0, 1.0), State(x1=[1.0], x2=[0.0]))
        npt.assert_array_equal(dx1, [0.0])
        npt.assert_array_equal(dx2, [-1.0])

    def test_cubic_term_hand_value(self):
        # 1 * 0.5 * (1 - 0.25) = 0.375; x2 has zero weight so its value is moot
        dx1, dx2 = vector_field(p1(1.0, 0.0), State(x1=[0.5], x2=[7.0]))
        npt.assert_allclose(dx1, [0.375])
        npt.assert_allclose(dx2, [-0.5])

    def test_coupling_swaps_activities(self):
        params = VdpParams(
            alpha=np.zeros((2, 2)), coupling=np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        dx1, dx2 = vector_field(params, State(x1=[1.0, 2.0], x2=[0.0, 0.0]))
        npt.assert_allclose(dx1, [2.0, 1.0])
        npt.assert_allclose(dx2, [-1.0, -2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            vector_field(p1(1.0, 1.0), State(x1=[1.0, 2.0], x2=[0.0, 0.0]))


class TestStep:
    def test_euler_on_rotation(self):
        s = step(p1(0.0, 1.0), State(x1=[1.0], x2=[0.0]), 0.1)
        npt.assert_allclose(s.x1, [1.0])
        npt.assert_allclose(s.x2, [-0.1])

    def test_hand_euler_step(self):
        s = step(p1(1.0, 0.0), State(x1=[0.5], x2=[7.0]), 0.1)
        npt.assert_allclose(s.x1, [0.5375])
        npt.assert_allclose(s.x2, [6.95])

    def test_small_dt_approaches_identity(self):
        s0 = State(x1=[0.7], x2=[-0.3])
        for dt in (1e-3, 1e-6):
            s = step(p1(2.0, 1.5, -0.4), s0, dt)
            assert abs(s.x1[0] - s0.x1[0]) < 10 * dt
            assert abs(s.x2[0] - s0.x2[0]) < 10 * dt

    def test_substeps_match_manual_composition(self, rng):
        params = random_params(rng, 3)
        s = random_state(rng, 3)
        four = step(params, s, 0.2, substeps=4)
        manual = s
        for _ in range(4):
            manual = step(params, manual, 0.05)
        npt.assert_allclose(four.x1, manual.x1, rtol=1e-14)
        npt.assert_allclose(four.x2, manual.x2, rtol=1e-14)


class TestSimulate:
    def test_two_steps_is_s0_then_step(self):
        params = p1(1.2, 0.8, 0.1)
        s0 = State(x1=[0.4], x2=[-0.2])
        traj = simulate(params, s0, 2, 0.05)
        one = step(params, s0, 0.05)
        npt.assert_array_equal(traj.x1[0], s0.x1)
        npt.assert_array_equal(traj.x2[0], s0.x2)
        npt.assert_allclose(traj.x1[1], one.x1)
        npt.assert_allclose(traj.x2[1], one.x2)

    def test_rotation_dilation_growth_factor(self):
        # with alpha=(0,1), W=0 the Euler map scales x1^2+x2^2 by (1+dt^2)
        dt = 0.1
        traj = simulate(p1(0.0, 1.0), State(x1=[1.0], x2=[0.0]), 50, dt)
        norms = traj.x1[:, 0] ** 2 + traj.x2[:, 0] ** 2
        npt.assert_allclose(norms[1:] / norms[:-1], 1 + dt**2, rtol=1e-12)

    def test_limit_cycle_amplitude_vs_fine_reference(self):
        params = p1(2.0, 2.0)
        s0 = State(x1=[0.1], x2=[0.1])
        coarse = simulate(params, s0, 2000, 0.05)
        amp = np.max(np.abs(coarse.x1[1000:]))
        assert 0.5 <= amp <= 3.0
        fine = simulate(params, s0, 100_000, 0.001)
        amp_ref = np.max(np.abs(fine.x1[50_000:]))
        assert abs(amp - amp_ref) <= 0.1 * amp_ref

    def test_divergence_names_first_bad_step(self):
        params = p1(5.0, 0.0)
        with pytest.raises(SimulationDiverged) as exc:
            simulate(params, State(x1=[2.0], x2=[0.0]), 50, 1.0)
        assert exc.value.step > 0
        # the named step is the first whose state exceeds the guard
        ok = simulate(params, State(x1=[2.0], x2=[0.0]), exc.value.step, 1.0)
        assert np.all(np.abs(ok.x1) <= 1e6)

    def test_deterministic(self, rng):
        params = random_params(rng, 2)
        s0 = random_state(rng, 2)
        a = simulate(params, s0, 200, 0.05)
        b = simulate(params, s0, 200, 0.05)
        npt.assert_array_equal(a.x1, b.x1)
        npt.assert_array_equal(a.x2, b.x2)

    def test_trajectory_needs_two_samples(self):
        with pytest.raises(ValueError):
            simulate(p1(1.0, 1.0), State(x1=[0.1], x2=[0.1]), 1, 0.1)


# (batch, substeps, one parameter set per row)
ROLLOUT_CASES = [(b, s, p) for p in (False, True) for b in (1, 2, 7, 50) for s in (1, 3)]


class TestRollout:
    @pytest.mark.parametrize("batch, substeps, per_row", ROLLOUT_CASES,
                             ids=[f"{b}-{s}" + "-per_row" * p for b, s, p in ROLLOUT_CASES])
    def test_each_row_equals_a_lone_simulate(self, rng, batch, substeps, per_row):
        params = random_params(rng, 3)
        x1 = rng.normal(0, 0.5, (batch, 3))
        x2 = rng.normal(0, 0.5, (batch, 3))
        rows = [params] * batch
        if per_row:
            rows = [random_params(rng, 3) for _ in range(batch)]
            if batch > 1:  # a row that leaves the guard box beside rows that do not
                rows[1] = VdpParams(alpha=np.tile([40.0, 0.0], (3, 1)),
                                    coupling=np.zeros((3, 3)))
                x1[1] = 3.0
        out1, out2, diverged = rollout(rows if per_row else params, x1, x2, 60, 0.1,
                                       substeps)
        assert out1.shape == out2.shape == (60, batch, 3)
        npt.assert_array_equal(diverged > 0, [per_row and k == 1 for k in range(batch)])
        for k in range(batch):
            lone1, lone2, lone_diverged = rollout(rows[k], x1[k], x2[k], 60, 0.1, substeps)
            npt.assert_array_equal(out1[:, k], lone1)
            npt.assert_array_equal(out2[:, k], lone2)
            assert diverged[k] == lone_diverged
            if not lone_diverged:
                want = simulate(rows[k], State(x1=x1[k], x2=x2[k]), 60, 0.1, substeps)
                npt.assert_array_equal(out1[:, k], want.x1)
                npt.assert_array_equal(out2[:, k], want.x2)

    def test_rows_of_strided_starts_equal_lone_rollouts(self, rng):
        params = random_params(rng, 5)
        starts = rng.normal(0, 0.5, (9, 10))
        out1, out2, _ = rollout(params, starts[:, 0::2], starts[:, 1::2], 40, 0.1)
        for k in range(9):
            lone1, lone2, _ = rollout(params, starts[k, 0::2].copy(), starts[k, 1::2].copy(),
                                      40, 0.1)
            npt.assert_array_equal(out1[:, k], lone1)
            npt.assert_array_equal(out2[:, k], lone2)

    def test_mixed_batch_names_each_first_bad_step_without_warnings(self):
        params = p1(5.0, 0.0)
        x1 = np.array([[3.0], [0.1], [2.5], [-0.3], [-4.0], [2.0]])
        x2 = np.zeros_like(x1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, diverged = rollout(params, x1, x2, 50, 0.1)
            steps = []
            for k in range(len(x1)):
                try:
                    simulate(params, State(x1=x1[k], x2=x2[k]), 50, 0.1)
                    steps.append(0)
                except SimulationDiverged as exc:
                    steps.append(exc.step)
        npt.assert_array_equal(diverged, steps)
        assert 0 in steps and sum(s > 0 for s in steps) >= 3

    def test_non_finite_state_is_outside_the_box(self):
        # the start itself is not tested; the NaN it leads to at step 1 is
        _, _, diverged = rollout(p1(1.0, 1.0), np.array([[np.inf], [0.5]]),
                                 np.zeros((2, 1)), 5, 0.1)
        npt.assert_array_equal(diverged, [1, 0])

    def test_lone_start_and_shapes(self, rng):
        params = random_params(rng, 2)
        out1, out2, diverged = rollout(params, np.zeros(2), np.zeros(2), 5, 0.1)
        assert out1.shape == out2.shape == (5, 2)
        assert diverged.shape == () and diverged == 0
        with pytest.raises(DimensionError):
            rollout(params, np.zeros(3), np.zeros(3), 5, 0.1)
        with pytest.raises(DimensionError):
            rollout(params, np.zeros((4, 2)), np.zeros((3, 2)), 5, 0.1)
        with pytest.raises(DimensionError):  # one parameter set per row
            rollout([params] * 3, np.zeros((4, 2)), np.zeros((4, 2)), 5, 0.1)
        with pytest.raises(DimensionError):
            rollout([params], np.zeros(2), np.zeros(2), 5, 0.1)
        with pytest.raises(DimensionError):
            rollout([params, random_params(rng, 3)], np.zeros((2, 2)), np.zeros((2, 2)),
                    5, 0.1)
        with pytest.raises(ValueError):
            rollout(params, np.zeros(2), np.zeros(2), 0, 0.1)
        with pytest.raises(ValueError):
            rollout(params, np.zeros(2), np.zeros(2), 5, 0.1, substeps=0)


class TestParamsVector:
    def test_round_trip_ordering(self):
        params = VdpParams(
            alpha=np.array([[1.0, 2.0], [3.0, 4.0]]),
            coupling=np.array([[5.0, 6.0], [7.0, 8.0]]),
        )
        vec = params.to_vector()
        npt.assert_array_equal(vec, [1.0, 3.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        back = VdpParams.from_vector(vec, 2)
        npt.assert_array_equal(back.alpha, params.alpha)
        npt.assert_array_equal(back.coupling, params.coupling)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            VdpParams(alpha=np.array([[np.nan, 1.0]]), coupling=np.zeros((1, 1)))


class TestStateLayout:
    def test_flat_interleaves_components(self):
        s = State(x1=[1.0, 3.0], x2=[2.0, 4.0])
        npt.assert_array_equal(s.to_flat(), [1.0, 2.0, 3.0, 4.0])
        back = State.from_flat(np.array([1.0, 2.0, 3.0, 4.0]))
        npt.assert_array_equal(back.x1, s.x1)
        npt.assert_array_equal(back.x2, s.x2)


def _fd_state_jacobian(params, s, dt, substeps, h=1e-6):
    m = params.m
    base = s.to_flat()
    out = np.empty((2 * m, 2 * m))
    for j in range(2 * m):
        lo, hi = base.copy(), base.copy()
        lo[j] -= h
        hi[j] += h
        f_hi = step(params, State.from_flat(hi), dt, substeps=substeps).to_flat()
        f_lo = step(params, State.from_flat(lo), dt, substeps=substeps).to_flat()
        out[:, j] = (f_hi - f_lo) / (2 * h)
    return out


def _fd_param_jacobian(params, s, dt, substeps, h=1e-6):
    m = params.m
    vec = params.to_vector()
    out = np.empty((2 * m, vec.size))
    for j in range(vec.size):
        lo, hi = vec.copy(), vec.copy()
        lo[j] -= h
        hi[j] += h
        f_hi = step(VdpParams.from_vector(hi, m), s, dt, substeps=substeps).to_flat()
        f_lo = step(VdpParams.from_vector(lo, m), s, dt, substeps=substeps).to_flat()
        out[:, j] = (f_hi - f_lo) / (2 * h)
    return out


class TestJacobians:
    @pytest.mark.parametrize("substeps", [1, 2, 3])
    def test_matches_finite_differences(self, rng, substeps):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            params = random_params(rng, m)
            s = random_state(rng, m)
            jx, ja, jw = jacobians(params, s, 0.08, substeps=substeps)
            fd_x = _fd_state_jacobian(params, s, 0.08, substeps)
            fd_p = _fd_param_jacobian(params, s, 0.08, substeps)
            npt.assert_allclose(jx, fd_x, rtol=1e-6, atol=1e-8)
            npt.assert_allclose(np.hstack([ja, jw]), fd_p, rtol=1e-6, atol=1e-8)

    def test_linear_case_is_constant_in_state(self, rng):
        # alpha1 = 0 kills the cubic term, so dg/dx is state-independent
        params = VdpParams(
            alpha=np.array([[0.0, 1.0], [0.0, -0.5]]),
            coupling=rng.uniform(-0.5, 0.5, (2, 2)),
        )
        jx_a, _, _ = jacobians(params, random_state(rng, 2), 0.1)
        jx_b, _, _ = jacobians(params, random_state(rng, 2), 0.1)
        npt.assert_allclose(jx_a, jx_b, rtol=1e-14)

    def test_batch_matches_single(self, rng):
        params = random_params(rng, 2)
        traj = simulate(params, random_state(rng, 2, 0.3), 12, 0.05)
        bx = batch_state_jacobians(params, traj.x1, traj.x2, 0.05)
        bp = batch_param_jacobians(params, traj.x1, traj.x2, 0.05)
        for k in range(12):
            jx, ja, jw = jacobians(params, traj.state(k), 0.05)
            npt.assert_allclose(bx[k], jx, rtol=1e-13)
            npt.assert_allclose(bp[k], np.hstack([ja, jw]), rtol=1e-13)
