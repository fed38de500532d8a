import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdpfit import model
from vdpfit.constraints import residual, residual_jacobian_params, residual_jacobian_x
from vdpfit.model import (
    DimensionError,
    SimulationDiverged,
    State,
    Trajectory,
    VdpParams,
    batch_param_jacobians,
    batch_state_jacobians,
    euler_map,
    jacobians,
    rollout,
    simulate,
    step,
    _substep_param_jacobian,
)

from vdpfit.estimator import PenaltyConfig, fit
from vdpfit.search import SearchConfig, search_and_refine

from conftest import random_params, random_state


def p1(a1, a2, w=0.0):
    return VdpParams(alpha=np.array([[a1, a2]]), coupling=np.array([[w]]))


def vector_field(params, s):
    """f(s) as g(s) - s at dt = 1: one unit Euler step of the model's one core."""
    x1, x2 = euler_map(params, np.stack((s.x1, s.x2)), 1.0)
    return x1 - s.x1, x2 - s.x2


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
            step(p1(1.0, 1.0), State(x1=[1.0, 2.0], x2=[0.0, 0.0]), 0.1)


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


# every entry point that takes the time grid, called with one bad dt or substeps
GRID_ENTRY_POINTS = {
    "fit": lambda z, grid: fit(z, PenaltyConfig(), p1(1.0, 1.0), **grid),
    "search_and_refine": lambda z, grid: search_and_refine(
        z, SearchConfig(max_rounds=1, proposals_per_round=2), PenaltyConfig(), **grid),
    "rollout": lambda z, grid: rollout(p1(1.0, 1.0), z[0], np.zeros(1), len(z), **grid),
    "Trajectory": lambda z, grid: Trajectory(x1=z, x2=np.zeros_like(z), **grid),
}
BAD_GRIDS = [({"dt": np.nan}, "dt"), ({"dt": np.inf}, "dt"), ({"dt": 0.0}, "dt"),
             ({"dt": -0.1}, "dt"), ({"dt": 0.1, "substeps": 1.5}, "substeps"),
             ({"dt": 0.1, "substeps": 0}, "substeps")]
GRID_CASES = [(entry, grid, name) for entry in sorted(GRID_ENTRY_POINTS)
              for grid, name in BAD_GRIDS if entry != "Trajectory" or name == "dt"]


@pytest.mark.parametrize("entry, grid, name", GRID_CASES,
                         ids=[f"{e}-{n}={g[n]}" for e, g, n in GRID_CASES])
def test_the_time_grid_has_one_rule(entry, grid, name):
    z = np.sin(0.3 * np.arange(20.0))[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be "):
            GRID_ENTRY_POINTS[entry](z, grid)


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
        out1, out2, diverged = rollout(VdpParams.stack(rows) if per_row else params, x1, x2,
                                       60, 0.1, substeps)
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
            rollout(VdpParams.stack([params] * 3), np.zeros((4, 2)), np.zeros((4, 2)), 5, 0.1)
        with pytest.raises(DimensionError):
            rollout(VdpParams.stack([params]), np.zeros(2), np.zeros(2), 5, 0.1)
        with pytest.raises(DimensionError):
            rollout(VdpParams.stack([random_params(rng, 3)] * 2), np.zeros((2, 2)),
                    np.zeros((2, 2)), 5, 0.1)
        with pytest.raises(ValueError):
            rollout(params, np.zeros(2), np.zeros(2), 0, 0.1)
        with pytest.raises(ValueError):
            rollout(params, np.zeros(2), np.zeros(2), 5, 0.1, substeps=0)


def _reference_core(alpha, coupling, shape, h, substeps):
    """The 13-call Euler core that the stacked one replaced, as the reference
    its maps must equal bit for bit: g(x1, x2, out1, out2)."""
    a1, a2 = alpha[..., 0], alpha[..., 1]
    dx1, tmp, terms = np.empty(shape), np.empty(shape), np.empty(shape + shape[-1:])
    mul, add, sub, add_up = np.multiply, np.add, np.subtract, np.add.reduce

    def g(x1, x2, out1, out2):
        for _ in range(substeps):
            mul(a1, x1, out=dx1)
            mul(dx1, sub(1.0, mul(x1, x1, out=tmp), out=tmp), out=dx1)
            add(dx1, mul(a2, x2, out=tmp), out=dx1)
            add(dx1, add_up(mul(x1[..., None, :], coupling, out=terms), axis=-1, out=tmp),
                out=dx1)
            mul(dx1, h, out=dx1)
            x2 = sub(x2, mul(x1, h, out=tmp), out=out2)
            x1 = add(x1, dx1, out=out1)
        return x1, x2

    return g


def _reference_map(params, x1, x2, dt, substeps):
    g = _reference_core(*model._param_arrays(params, x1), x1.shape, dt / substeps, substeps)
    return g(x1, x2, np.empty(x1.shape), np.empty(x1.shape))


def _reference_rollout(params, x1, x2, n_steps, dt, substeps):
    out1, out2 = np.empty((n_steps,) + x1.shape), np.empty((n_steps,) + x1.shape)
    out1[0], out2[0] = x1, x2
    with np.errstate(over="ignore", invalid="ignore"):
        g = _reference_core(params.alpha, params.coupling, x1.shape, dt / substeps, substeps)
        for k in range(1, n_steps):
            g(out1[k - 1], out2[k - 1], out1[k], out2[k])
        outside = ~((np.abs(out1) <= model.DIVERGENCE_LIMIT)
                    & (np.abs(out2) <= model.DIVERGENCE_LIMIT)).all(axis=-1)
    outside[0] = False
    return out1, out2, outside.argmax(axis=0)


def assert_same_bits(got, want):
    """Equal shapes and equal bits, a NaN matching any NaN (the two cores may
    give a NaN opposite signs)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    npt.assert_array_equal(np.isnan(got), nan)
    npt.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@st.composite
def euler_cases(draw):
    """(params for K rows, the same as K lone sets, x1 and x2 starts (K, m), dt,
    substeps): shared or per-row params, broadcast starts, and rows that leave
    the guard box or start at inf/NaN."""
    m, k, substeps = draw(st.integers(1, 4)), draw(st.integers(1, 30)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 3.0, 40.0]))  # 40 drives most rows out of the box
    rows = [VdpParams(alpha=rng.uniform(-scale, scale, (m, 2)),
                      coupling=rng.uniform(-1.0, 1.0, (m, m)))
            for _ in range(k if draw(st.booleans()) else 1)]
    x2 = rng.normal(0.0, 1.0, (k, m))
    x1 = (np.broadcast_to(rng.normal(0.0, 1.0, m), (k, m)) if draw(st.booleans())
          else rng.normal(0.0, 1.0, (k, m)))
    if draw(st.booleans()):
        x1 = x1.copy()
        x1[rng.integers(0, k)] = rng.choice([np.inf, -np.inf, np.nan], m)
    params = VdpParams.stack(rows) if len(rows) > 1 else rows[0]
    return params, rows * k if len(rows) == 1 else rows, x1, x2, 0.1, substeps


@settings(max_examples=120, deadline=None)
@given(euler_cases())
def test_the_stacked_core_equals_the_13_call_reference_bit_for_bit(case):
    params, rows, x1, x2, dt, substeps = case
    n = 12
    got = rollout(params, x1, x2, n, dt, substeps)
    want = _reference_rollout(params, x1, x2, n, dt, substeps)
    for a, b in zip(got, want):
        assert_same_bits(a, b)
    with np.errstate(all="ignore"):
        assert_same_bits(euler_map(params, np.stack((x1, x2)), dt, substeps),
                         _reference_map(params, x1, x2, dt, substeps))
        for k in (0, len(rows) - 1):  # a lone state, through `step` and `simulate`
            s = State(x1=x1[k], x2=x2[k])
            lone_step = step(rows[k], s, dt, substeps)
            want = _reference_map(rows[k], s.x1, s.x2, dt, substeps)
            assert_same_bits(lone_step.x1, want[0])
            assert_same_bits(lone_step.x2, want[1])
            lone = _reference_rollout(rows[k], s.x1, s.x2, n, dt, substeps)
            if lone[2]:
                with pytest.raises(SimulationDiverged, match=f"at step {lone[2]}$"):
                    simulate(rows[k], s, n, dt, substeps)
            else:
                traj = simulate(rows[k], s, n, dt, substeps)
                assert_same_bits(traj.x1, lone[0])
                assert_same_bits(traj.x2, lone[1])
        # the residual maps the strided x[..., :-1, 0::2] views of a stacked
        # state: the rollout's rows as S = K problems, and the first as a lone one
        x = np.empty((len(rows), n, 2 * x1.shape[-1]))
        x[..., 0::2], x[..., 1::2] = np.swapaxes(got[0], 0, 1), np.swapaxes(got[1], 0, 1)
        stacked = VdpParams.stack(rows)
        anchors = State(x1=x2, x2=x1)
        g1, g2 = _reference_map(stacked, x[..., :-1, 0::2], x[..., :-1, 1::2], dt, substeps)
        want = x.copy()
        want[..., 0, 0::2] -= anchors.x1
        want[..., 0, 1::2] -= anchors.x2
        want[..., 1:, 0::2] -= g1
        want[..., 1:, 1::2] -= g2
        assert_same_bits(residual(x, stacked, anchors, dt, substeps), want.reshape(len(rows), -1))
        assert_same_bits(residual(x[0], rows[0], anchors[0], dt, substeps), want[0].ravel())


def _scalar_map(params, x1, x2, h, substeps):
    """The sample map of one state, one Python float at a time, with the
    coupling sum W x1 added j = 0, 1, ..., m - 1 in order."""
    a, w = params.alpha.tolist(), params.coupling.tolist()
    x1, x2 = list(x1), list(x2)
    for _ in range(substeps):
        dx1 = []
        for i in range(len(x1)):
            coupled = 0.0
            for j in range(len(x1)):
                coupled += w[i][j] * x1[j]
            dx1.append((a[i][0] * x1[i] * (1.0 - x1[i] * x1[i]) + a[i][1] * x2[i]) + coupled)
        x1, x2 = [u + h * d for u, d in zip(x1, dx1)], [v + h * -u for u, v in zip(x1, x2)]
    return x1, x2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_the_core_adds_the_coupling_terms_in_order_as_a_scalar_loop(m, k, substeps, shared,
                                                                    seed):
    rng = np.random.default_rng(seed)
    rows = [VdpParams(alpha=rng.uniform([0.5, -2.0], [2.0, 2.0], (m, 2)),
                      coupling=rng.uniform(-1.0, 1.0, (m, m)))
            for _ in range(1 if shared else k)]
    params = rows[0] if shared else VdpParams.stack(rows)
    x1, x2 = rng.normal(0.0, 0.5, (k, m)), rng.normal(0.0, 0.5, (k, m))
    n, dt = 5, 0.1
    out1, out2, _ = rollout(params, x1, x2, n, dt, substeps)
    mapped = euler_map(params, np.stack((x1, x2)), dt, substeps)
    for row in range(k):
        lone = rows[0 if shared else row]
        want = x1[row].tolist(), x2[row].tolist()
        for sample in range(1, n):
            want = _scalar_map(lone, *want, dt / substeps, substeps)
            assert_same_bits(out1[sample, row], want[0])
            assert_same_bits(out2[sample, row], want[1])
            if sample == 1:
                assert_same_bits(mapped[:, row], want)


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

    def test_stacked_rows_round_trip_and_equal_the_lone_vectors(self, rng):
        lone = [random_params(rng, 3) for _ in range(4)]
        stacked = VdpParams.stack(lone)
        vec = stacked.to_vector()
        assert vec.shape == (4, 15)
        for k, params in enumerate(lone):
            npt.assert_array_equal(vec[k], params.to_vector())
        back = VdpParams.from_vector(vec, 3)
        npt.assert_array_equal(back.alpha, stacked.alpha)
        npt.assert_array_equal(back.coupling, stacked.coupling)
        with pytest.raises(DimensionError):
            VdpParams.from_vector(vec[:, :-1], 3)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            VdpParams(alpha=np.array([[np.nan, 1.0]]), coupling=np.zeros((1, 1)))


class TestProblemIndexing:
    """Indexing stacked params or states slices their arrays; the public
    constructors still check what they are given."""

    @pytest.mark.parametrize("idx", [0, 2, -1, None, [0, 2], [1], slice(1, 3),
                                     np.array([True, False, True])])
    def test_an_indexed_item_holds_the_sliced_arrays(self, rng, idx):
        params = VdpParams.stack([random_params(rng, 2) for _ in range(3)])
        anchors = State.from_flat(rng.normal(size=(3, 4)))
        p, a = params[idx], anchors[idx]
        assert type(p) is VdpParams and type(a) is State
        for got, arr in [(p.alpha, params.alpha), (p.coupling, params.coupling),
                         (a.x1, anchors.x1), (a.x2, anchors.x2)]:
            assert got.shape == arr[idx].shape
            assert got.tobytes() == arr[idx].tobytes()
        assert p.m == a.m == 2

    def test_a_lone_item_gains_a_problem_axis(self, rng):
        params, s = random_params(rng, 3), random_state(rng, 3)
        npt.assert_array_equal(params[None].alpha, params.alpha[None])
        npt.assert_array_equal(params[None].coupling, params.coupling[None])
        npt.assert_array_equal(s[None].x1, s.x1[None])
        npt.assert_array_equal(s[None].x2, s.x2[None])

    @pytest.mark.parametrize("alpha, coupling, error", [
        (np.array([[1.0, np.inf]]), np.zeros((1, 1)), ValueError),
        (np.ones((1, 2)), np.array([[np.nan]]), ValueError),
        (np.ones((2, 2, 2)), np.array([[[0.0, np.nan], [0.0, 0.0]]] * 2), ValueError),
        (np.ones((2, 3)), np.zeros((2, 2)), DimensionError),
        (np.ones((2, 2)), np.zeros((2, 3)), DimensionError),
        (np.ones((3, 2, 2)), np.zeros((2, 2, 2)), DimensionError),
    ])
    def test_constructors_reject_bad_params(self, alpha, coupling, error):
        with pytest.raises(error):
            VdpParams(alpha=alpha, coupling=coupling)

    def test_stack_and_from_vector_reject_bad_input(self, rng):
        with pytest.raises(ValueError):  # parameter sets of different sizes
            VdpParams.stack([random_params(rng, 1), random_params(rng, 2)])
        with pytest.raises(ValueError):
            VdpParams.from_vector(np.array([1.0, np.nan, 0.0]), 1)
        with pytest.raises(DimensionError):
            VdpParams.from_vector(np.ones((2, 7)), 2)

    def test_constructors_reject_bad_states(self):
        with pytest.raises(DimensionError):
            State(x1=np.zeros((2, 3)), x2=np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            State.from_flat(np.zeros((2, 3)))


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


def _fancy_param_jacobian(x1, x2, h):
    """`_substep_param_jacobian` written with fancy-index assignments: the oracle
    for its strided-slice writes."""
    m = x1.shape[-1]
    r1 = 2 * np.arange(m)
    cols = np.arange(m)
    out = np.zeros(x1.shape[:-1] + (2 * m, 2 * m + m * m))
    out[..., r1, cols] = h * x1 * (1.0 - x1 * x1)
    out[..., r1, m + cols] = h * x2
    out[..., r1[:, None], 2 * m + m * cols[:, None] + cols] = (h * x1)[..., None, :]
    return out


@pytest.mark.parametrize("lead", [(7,), (3, 5)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_substep_param_jacobian_equals_its_fancy_index_form(rng, m, lead):
    x1, x2 = rng.normal(size=lead + (m,)), rng.normal(size=lead + (m,))
    got = _substep_param_jacobian(np.stack((x1, x2)), 0.07)
    want = _fancy_param_jacobian(x1, x2, 0.07)
    assert got.shape == want.shape == lead + (2 * m, 2 * m + m * m)
    assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("substeps", [1, 2, 3])
    def test_batch_matches_single(self, rng, substeps):
        params = random_params(rng, 2)
        traj = simulate(params, random_state(rng, 2, 0.3), 12, 0.05, substeps)
        s = np.stack((traj.x1, traj.x2))
        bx = batch_state_jacobians(params, s, 0.05, substeps)
        bp = batch_param_jacobians(params, s, 0.05, substeps)
        for k in range(12):
            jx, ja, jw = jacobians(params, traj.state(k), 0.05, substeps)
            npt.assert_allclose(bx[k], jx, rtol=1e-13)
            npt.assert_allclose(bp[k], np.hstack([ja, jw]), rtol=1e-13)
        # S problems as one strided (S, N, 2m) stack, through the constraints'
        # stacked-state view: each slice is its problem's own call, bit for bit
        stack = VdpParams.stack([params, random_params(rng, 2), random_params(rng, 2)])
        x = np.swapaxes(rng.normal(0, 0.5, (9, 3, 4)), 0, 1)
        jx = residual_jacobian_x(x, stack, 0.05, substeps)
        jp = residual_jacobian_params(x, stack, 0.05, substeps)
        for k in range(3):
            lone = np.ascontiguousarray(x[k])
            assert jx[k].tobytes() == residual_jacobian_x(lone, stack[k], 0.05,
                                                          substeps).tobytes()
            assert jp[k].tobytes() == residual_jacobian_params(lone, stack[k], 0.05,
                                                               substeps).tobytes()
