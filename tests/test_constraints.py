import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import cho_factor, cho_solve

from vdpfit.constraints import (
    residual,
    residual_jacobian_params,
    residual_jacobian_x,
    solve_block_tridiagonal,
    stack_states,
)
from vdpfit.model import DimensionError, State, VdpParams, simulate

from conftest import dense_state_jacobian, random_params, random_state


def stacked_from(traj):
    return stack_states(traj.x1, traj.x2)


def test_simulated_trajectory_has_zero_residual(rng):
    params = random_params(rng, 2)
    s0 = random_state(rng, 2, 0.4)
    traj = simulate(params, s0, 15, 0.05)
    r = residual(stacked_from(traj), params, s0, 0.05)
    npt.assert_allclose(r, 0.0, atol=1e-14)


@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_residual_is_exactly_zero_on_a_simulated_trajectory(rng, m, substeps):
    # the stacked state's x1/x2 are strided views; the map must round each
    # transition exactly as the lone rollout did
    params = random_params(rng, m)
    s0 = random_state(rng, m, 0.3)
    traj = simulate(params, s0, 25, 0.05, substeps)
    r = residual(stacked_from(traj), params, s0, 0.05, substeps)
    npt.assert_array_equal(r, 0.0)


def test_perturbation_is_banded(rng):
    params = random_params(rng, 2)
    s0 = random_state(rng, 2, 0.4)
    traj = simulate(params, s0, 10, 0.05)
    x = stacked_from(traj)
    k = 4
    flat = x.ravel().copy()
    flat[2 * 2 * k] += 0.1  # x1 of component 0 at time k
    r = residual(flat.reshape(x.shape), params, s0, 0.05)
    blocks = r.reshape(10, 4)
    nonzero = np.where(np.any(blocks != 0.0, axis=1))[0]
    npt.assert_array_equal(nonzero, [k, k + 1])


def test_hand_residual_linear_map():
    # alpha=0, W=0, dt=1: g((1,0)) = (1,-1); anchor cancels the first block
    params = VdpParams(alpha=np.zeros((1, 2)), coupling=np.zeros((1, 1)))
    x = stack_states(np.array([[1.0], [1.0]]), np.array([[0.0], [-1.0]]))
    anchor = State(x1=[0.0], x2=[0.0])
    r = residual(x, params, anchor, 1.0)
    npt.assert_array_equal(r, [1.0, 0.0, 0.0, 0.0])


def test_jacobian_x_structure(rng):
    params = random_params(rng, 2)
    traj = simulate(params, random_state(rng, 2, 0.3), 6, 0.05)
    dense = dense_state_jacobian(residual_jacobian_x(stacked_from(traj), params, 0.05))
    n, m = 6, 2
    for k in range(n):
        npt.assert_array_equal(
            dense[4 * k : 4 * k + 4, 4 * k : 4 * k + 4], np.eye(2 * m)
        )
    # everything above the diagonal blocks is zero
    upper = np.triu(dense, k=1)
    npt.assert_array_equal(upper, np.zeros_like(upper))


@pytest.mark.parametrize("m, n, substeps", [(1, 2, 1), (2, 6, 3), (3, 9, 2)])
def test_jacobian_x_is_its_subdiagonal_blocks(rng, m, n, substeps):
    params = random_params(rng, m)
    traj = simulate(params, random_state(rng, m, 0.3), n, 0.05, substeps)
    sub = residual_jacobian_x(stacked_from(traj), params, 0.05, substeps)
    assert type(sub) is np.ndarray and sub.dtype == np.float64
    assert sub.shape == (n - 1, 2 * m, 2 * m)


def test_linear_case_constant_subdiagonal(rng):
    params = VdpParams(
        alpha=np.array([[0.0, 1.0], [0.0, -0.3]]),
        coupling=rng.uniform(-0.4, 0.4, (2, 2)),
    )
    traj = simulate(params, random_state(rng, 2, 0.3), 8, 0.05)
    sub = residual_jacobian_x(stacked_from(traj), params, 0.05)
    for k in range(1, sub.shape[0]):
        npt.assert_allclose(sub[k], sub[0], rtol=1e-13)


def _fd_residual_jacobian(x, params, anchor, dt, wrt, substeps=1, h=1e-6):
    if wrt == "x":
        base = x.ravel()
        cols = base.size
    else:
        base = params.to_vector()
        cols = base.size
    out = np.empty((x.size, cols))
    for j in range(cols):
        hi, lo = base.copy(), base.copy()
        hi[j] += h
        lo[j] -= h
        if wrt == "x":
            r_hi = residual(hi.reshape(x.shape), params, anchor, dt, substeps)
            r_lo = residual(lo.reshape(x.shape), params, anchor, dt, substeps)
        else:
            r_hi = residual(x, VdpParams.from_vector(hi, params.m), anchor, dt, substeps)
            r_lo = residual(x, VdpParams.from_vector(lo, params.m), anchor, dt, substeps)
        out[:, j] = (r_hi - r_lo) / (2 * h)
    return out


@pytest.mark.parametrize(
    "trial, substeps",
    [pytest.param(t, 1, id=str(t)) for t in range(5)]
    + [pytest.param(t, k, id=f"{t}-substeps{k}") for k in (2, 3) for t in range(5)],
)
def test_jacobians_match_finite_differences(trial, substeps):
    rng = np.random.default_rng(100 + trial)
    m = int(rng.integers(1, 3))
    params = random_params(rng, m)
    s0 = random_state(rng, m, 0.5)
    traj = simulate(params, s0, 5, 0.07, substeps)
    x = stacked_from(traj) + rng.normal(0, 0.05, (5, 2 * m))
    anchor = s0
    # G uses the same substepped map as simulate, so it vanishes on its trajectory
    npt.assert_allclose(residual(stacked_from(traj), params, anchor, 0.07, substeps),
                        0.0, atol=1e-14)
    jx = dense_state_jacobian(residual_jacobian_x(x, params, 0.07, substeps))
    jp = residual_jacobian_params(x, params, 0.07, substeps)
    npt.assert_allclose(jx, _fd_residual_jacobian(x, params, anchor, 0.07, "x", substeps),
                        rtol=1e-6, atol=1e-8)
    npt.assert_allclose(jp, _fd_residual_jacobian(x, params, anchor, 0.07, "p", substeps),
                        rtol=1e-6, atol=1e-8)


def test_alpha1_column_hand_value():
    # block k=1 rows differentiate -g(x^0); d(g_1)/d(alpha1) = -dt * x1 (1 - x1^2)
    params = VdpParams(alpha=np.array([[1.0, 0.0]]), coupling=np.zeros((1, 1)))
    x = stack_states(np.array([[0.5], [0.0]]), np.array([[0.0], [0.0]]))
    jp = residual_jacobian_params(x, params, 0.1)
    npt.assert_allclose(jp[2, 0], -0.1 * 0.375)
    npt.assert_allclose(jp[3, 0], 0.0)
    # the first time block never depends on parameters
    npt.assert_array_equal(jp[:2], np.zeros((2, 3)))


def _block_cholesky_reference(diag, sub, rhs):
    """Block Cholesky recursion, one cho_factor/cho_solve per block: the oracle."""
    n = diag.shape[0]
    factors = [cho_factor(diag[0], lower=True)]
    v = np.empty_like(rhs)
    gains = np.empty_like(sub)  # gains[k] = C_k^{-1} sub_k^T
    v[0] = cho_solve(factors[0], rhs[0])
    for k in range(1, n):
        gains[k - 1] = cho_solve(factors[k - 1], sub[k - 1].T)
        c = diag[k] - sub[k - 1] @ gains[k - 1]
        factors.append(cho_factor(c, lower=True))
        v[k] = cho_solve(factors[k], rhs[k] - sub[k - 1] @ v[k - 1])
    out = np.empty_like(rhs)
    out[n - 1] = v[n - 1]
    for k in range(n - 2, -1, -1):
        out[k] = v[k] - gains[k] @ out[k + 1]
    return out


def _dense_block_tridiagonal(diag, sub):
    n, b = diag.shape[:2]
    dense = np.zeros((n * b, n * b))
    for k in range(n):
        dense[k * b : (k + 1) * b, k * b : (k + 1) * b] = diag[k]
    for k in range(n - 1):
        dense[(k + 1) * b : (k + 2) * b, k * b : (k + 1) * b] = sub[k]
        dense[k * b : (k + 1) * b, (k + 1) * b : (k + 2) * b] = sub[k].T
    return dense


def _normal_system(rng, n, b, lam):
    """(diag, sub, rhs) shaped as inner_solve builds them: lam I + H'H + lam J'J, lam J."""
    jac = -(np.eye(b) + 0.1 * rng.normal(size=(n - 1, b, b)))  # -(Euler state Jacobian)
    diag = np.empty((n, b, b))
    diag[:] = lam * np.eye(b)
    diag[:, np.arange(0, b, 2), np.arange(0, b, 2)] += 1.0  # H'H: x1 is observed
    diag[:-1] += lam * np.einsum("kji,kjl->kil", jac, jac)
    return diag, lam * jac, rng.normal(size=(n, b))


class TestBlockTridiagonalSolve:
    @pytest.mark.parametrize("n", [1, 2, 150])
    @pytest.mark.parametrize("lam", [10.0, 1000.0])
    @pytest.mark.parametrize("b", [2, 4, 6])
    def test_normal_equations_match_reference_and_dense(self, b, lam, n):
        diag, sub, rhs = _normal_system(np.random.default_rng(b * n), n, b, lam)
        got = solve_block_tridiagonal(diag, sub, rhs)
        assert got.shape == (n, b)
        dense = np.linalg.solve(_dense_block_tridiagonal(diag, sub), rhs.ravel())
        for want in (dense, _block_cholesky_reference(diag, sub, rhs).ravel()):
            assert np.linalg.norm(got.ravel() - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_k_columns_equal_one_column_solves_and_dense(self, m):
        # k = 2m + m^2 columns, as for the reduced Jacobian's dx*/dp
        n, b, k = 30, 2 * m, 2 * m + m * m
        rng = np.random.default_rng(m)
        diag, sub, _ = _normal_system(rng, n, b, 100.0)
        rhs = rng.normal(size=(n, b, k))
        got = solve_block_tridiagonal(diag, sub, rhs)
        assert got.shape == (n, b, k)
        for c in range(k):
            npt.assert_array_equal(got[:, :, c], solve_block_tridiagonal(diag, sub, rhs[:, :, c]))
        dense = np.linalg.solve(_dense_block_tridiagonal(diag, sub), rhs.reshape(n * b, k))
        assert np.linalg.norm(got.reshape(n * b, k) - dense) <= 1e-9 * np.linalg.norm(dense)

    def test_not_positive_definite_raises(self, rng):
        diag, sub, rhs = _normal_system(rng, 5, 4, 10.0)
        diag[3] -= 100.0 * np.eye(4)
        with pytest.raises(np.linalg.LinAlgError):
            solve_block_tridiagonal(diag, sub, rhs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "where, index",
        [("diag", (2, 0, 1)), ("diag", (2, 1, 0)), ("sub", (3, 2, 1)), ("rhs", (4, 3))],
        ids=["diag-upper", "diag-lower", "sub", "rhs"],
    )
    def test_nonfinite_input_raises_value_error(self, rng, where, index, bad):
        system = dict(zip(("diag", "sub", "rhs"), _normal_system(rng, 5, 4, 10.0)))
        system[where][index] = bad
        with pytest.raises(ValueError):
            solve_block_tridiagonal(system["diag"], system["sub"], system["rhs"])

    def test_matches_dense_solve(self, rng):
        n, b = 7, 4
        sub = rng.normal(size=(n - 1, b, b)) * 0.3
        diag = np.empty((n, b, b))
        for k in range(n):
            a = rng.normal(size=(b, b))
            diag[k] = a @ a.T + b * np.eye(b)  # SPD blocks
        rhs = rng.normal(size=(n, b))
        # assemble the symmetric block tridiagonal system densely
        dense = np.zeros((n * b, n * b))
        for k in range(n):
            dense[k * b : (k + 1) * b, k * b : (k + 1) * b] = diag[k]
        for k in range(n - 1):
            dense[(k + 1) * b : (k + 2) * b, k * b : (k + 1) * b] = sub[k]
            dense[k * b : (k + 1) * b, (k + 1) * b : (k + 2) * b] = sub[k].T
        got = solve_block_tridiagonal(diag, sub, rhs)
        npt.assert_allclose(
            got.ravel(), np.linalg.solve(dense, rhs.ravel()), rtol=1e-9, atol=1e-12
        )

    def test_scalar_blocks_reduce_to_thomas(self):
        diag = np.array([[[2.0]], [[2.0]], [[2.0]]])
        sub = np.array([[[-1.0]], [[-1.0]]])
        rhs = np.array([[1.0], [0.0], [1.0]])
        dense = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        npt.assert_allclose(
            solve_block_tridiagonal(diag, sub, rhs).ravel(),
            np.linalg.solve(dense, rhs.ravel()),
        )


class TestStackStates:
    def test_round_trip(self, rng):
        x1 = rng.normal(size=(5, 3))
        x2 = rng.normal(size=(5, 3))
        x = stack_states(x1, x2)
        assert x.shape == (5, 2 * 3) and x.dtype == np.float64
        npt.assert_array_equal(x[:, 0::2], x1)
        npt.assert_array_equal(x[:, 1::2], x2)

    def test_component_major_layout(self):
        # component i sits at columns (2i, 2i+1), as in State.to_flat
        x = stack_states(np.array([[1.0, 3.0], [5.0, 7.0]]), np.array([[2.0, 4.0], [6.0, 8.0]]))
        npt.assert_array_equal(x, [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        npt.assert_array_equal(x[1], State(x1=[5.0, 7.0], x2=[6.0, 8.0]).to_flat())

    @pytest.mark.parametrize("x1, x2", [
        (np.zeros((4, 2)), np.zeros((4, 3))),
        (np.zeros((4, 2)), np.zeros((5, 2))),
        (np.zeros(4), np.zeros(4)),
    ], ids=["components", "samples", "1-D"])
    def test_rejects_mismatched_or_1d_tracks(self, x1, x2):
        with pytest.raises(DimensionError):
            stack_states(x1, x2)

    def test_residual_rejects_a_state_of_the_wrong_width(self, rng):
        params = random_params(rng, 2)
        with pytest.raises(DimensionError):
            residual(np.zeros((5, 3)), params, random_state(rng, 2, 0.1), 0.05)
        with pytest.raises(DimensionError):
            residual_jacobian_x(np.zeros(20), params, 0.05)
