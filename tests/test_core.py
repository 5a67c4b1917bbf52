"""State operations: velocity, fluxes, Jacobian, symmetrizer, projection."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sgswe.linalg
from sgswe.basis import build_basis, p_operator
from sgswe.core import (
    GHOST_MODES,
    Field,
    _p_eig,
    project_bottom,
    symmetrizer_eig,
    velocity,
)
from sgswe.errors import HyperbolicityError, PositivityError
from sgswe.linalg import _mv, _run_starts, sym_eig
from sgswe.schemes import SchemeKind, semidiscrete_rhs
from sgswe.timestep import _speed_bound

from conftest import (
    exact_u,
    flux_jacobian,
    physical_flux,
    random_hyperbolic_state,
    random_state_batch,
    velocity_every_cell,
)


def _assert_same_grid(out, field):
    """out is field with, at most, a new discharge."""
    assert out.h is field.h and out.bottom is field.bottom
    assert (out.dx, out.x_left, out.ghost_policy) == (field.dx, field.x_left, field.ghost_policy)


def test_velocity_exact_inverse(basis9):
    rng = np.random.default_rng(0)
    h, q = random_state_batch(rng, 20, 9)
    fld = Field(h=h, q=q, bottom=np.zeros_like(h), dx=0.05, x_left=-1.0, ghost_policy="periodic")
    vel, out = velocity(basis9, fld)
    resid = np.einsum("bij,bj->bi", p_operator(basis9, h), vel.u) - q
    assert np.max(np.abs(resid)) <= 1e-12
    assert vel.desingularized.shape == (20,) and not vel.desingularized.any()
    _assert_same_grid(out, fld)
    assert out.q.tobytes() == fld.q.tobytes()  # exact path leaves the discharge untouched


def _k1_field(h, q, eps):
    """Three K = 1 cells on a grid with dx = eps: P(h) is the scalar h, so
    each cell's eigenvalue is its height."""
    h, q = np.array(h, dtype=float)[:, None], np.array(q, dtype=float)[:, None]
    return Field(h=h, q=q, bottom=np.zeros_like(h), dx=eps, x_left=0.0)


def test_velocity_regularization_formula_value():
    basis = build_basis(1)
    eps = 0.01
    fld = _k1_field([eps / 2.0, 0.5, 0.5], [1.0, 0.3, 0.3], eps)
    vel, out = velocity(basis, fld)
    pi_reg = eps * math.sqrt(34.0) / 4.0  # sqrt(pi^4 + eps^4)/(sqrt(2) pi) at pi = eps/2
    assert vel.u[0, 0] == pytest.approx(1.0 / pi_reg, rel=1e-14)
    assert vel.desingularized.tolist() == [True, False, False]
    # discharge recomputed as P(h) u in the regularized cell only
    assert out.q[0, 0] == pytest.approx((eps / 2.0) * vel.u[0, 0], rel=1e-14)
    assert np.array_equal(out.q[1:], fld.q[1:])
    assert fld.q[0, 0] == 1.0  # the input field is not modified
    _assert_same_grid(out, fld)


def test_velocity_threshold_inactive_above_eps():
    basis = build_basis(1)
    fld = _k1_field([0.5, 0.5, 0.5], [0.3, 0.3, 0.3], 0.01)
    vel, out = velocity(basis, fld)
    assert np.all(vel.u == 0.3 / 0.5)
    assert not vel.desingularized.any()
    assert out.q.tobytes() == fld.q.tobytes()
    # the threshold is the grid's: the same cells on a grid with dx > h are lifted
    coarse = _k1_field([0.5, 0.5, 0.5], [0.3, 0.3, 0.3], 0.6)
    assert velocity(basis, coarse)[0].desingularized.all()


def test_velocity_raises_on_hyperbolicity_loss(basis4, factorized):
    # a cell whose node heights are all -1: velocity rejects it by its node
    # heights before any P(h) is factorized; the P(h) solve itself would
    # find a negative eigenvalue in the same cell
    rng = np.random.default_rng(6)
    h, q = random_state_batch(rng, 8, 4)
    h[5] = [-1.0, 0.0, 0.0, 0.0]
    fld = Field(h=h, q=q, bottom=np.zeros_like(h), dx=0.01, x_left=0.0)
    with pytest.raises(PositivityError) as info:
        velocity(basis4, fld)
    assert (info.value.cell, info.value.node) == (5, 0)  # the interior cell of the 8-cell field
    assert factorized == []
    with pytest.raises(HyperbolicityError) as info:
        _p_eig(basis4, h)
    assert info.value.cell == 5 and info.value.detail < 0.0


def _runs_of(fld):
    """velocity's run starts of fld and the cells they index."""
    new = _run_starts(np.concatenate([fld.h, fld.q, fld.bottom], axis=1))
    return new, np.flatnonzero(new)


def _field_with_runs(rng, K, lengths, dx=0.05):
    """Random (h, q) rows, each repeated over as many cells as lengths says."""
    h, q = (np.repeat(a, lengths, axis=0) for a in random_state_batch(rng, len(lengths), K))
    return Field(h=h, q=q, bottom=np.zeros_like(h), dx=dx, x_left=0.0)


def _assert_solved_like(solved, ref):
    """velocity's result is byte for byte the per-cell oracle's."""
    (vel, out), (ref_vel, ref_out) = solved, ref
    for a, b in [(vel.u, ref_vel.u), (vel.desingularized, ref_vel.desingularized),
                 (vel.Phu, ref_vel.Phu), (vel.node_h, ref_vel.node_h), (out.q, ref_out.q)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("K", [1, 3, 9])
def test_velocity_solves_each_run_once(factorized, K):
    fld = _field_with_runs(np.random.default_rng(30 + K), K, [5, 1, 1, 3, 1, 4])  # runs at both ends
    fld.h[5] = fld.h[0]  # the h of run 0 with another q: still a run of its own
    fld.h[7:10] *= 0.01  # P(h) eigenvalues below eps = dx: desingularized
    split = replace(fld, bottom=fld.bottom.copy())
    split.bottom[13:] = 0.5  # only B changes inside the last run, 11-14: it splits
    basis = build_basis(K)
    for case, runs in ((split, 7), (fld, 6)):
        ref = velocity_every_cell(basis, case)
        factorized.clear()
        solved = velocity(basis, case)
        _assert_solved_like(solved, ref)
        assert solved[0].runs.tolist() == _runs_of(case)[0].tolist()
        assert sum(factorized) == runs
        assert np.flatnonzero(solved[0].desingularized).tolist() == [7, 8, 9]
    # Phu is the q~ of the CFL bound: the solved discharge where desingularized
    vel, out = solved
    assert vel.Phu[7:10].tobytes() == out.q[7:10].tobytes()
    Phu = _mv(p_operator(basis, fld.h), vel.u)
    assert _speed_bound(basis, vel, 1.0).tobytes() == \
        _speed_bound(basis, replace(vel, Phu=Phu), 1.0).tobytes()


@pytest.mark.parametrize("offset", [0, 1])
def test_velocity_run_at_a_chunk_boundary(monkeypatch, pool, factorized, offset):
    # 2m + 1 distinct cells make two chunks of P(h) solves, m + 1 and m; the
    # run of 9 cells is solved as the last of the first chunk or the first
    # of the second
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 2)
    basis = build_basis(6)
    m = -(-sgswe.linalg._MIN_CHUNK // 36)
    fld = _field_with_runs(np.random.default_rng(40 + offset), 6,
                           [1] * (m + offset) + [9] + [1] * (m - offset))
    ref = velocity_every_cell(basis, fld)
    factorized.clear()
    pool.sizes.clear()
    _assert_solved_like(velocity(basis, fld), ref)
    assert pool.sizes == [m]
    assert sorted(factorized) == [m, m + 1]


def test_velocity_solves_signed_zeros_and_ulps_apart(factorized):
    basis = build_basis(3)
    h, q = random_state_batch(np.random.default_rng(41), 1, 3)
    q[0, 1] = 0.0
    neg, ulp = q.copy(), h.copy()
    neg[0, 1] = -0.0
    ulp[0, 2] = np.nextafter(ulp[0, 2], 1.0)
    h, q = np.concatenate([h, h, h, ulp, ulp]), np.concatenate([q, neg, q, q, q])
    fld = Field(h=h, q=q, bottom=np.zeros_like(h), dx=0.05, x_left=0.0)
    ref = velocity_every_cell(basis, fld)
    factorized.clear()
    _assert_solved_like(velocity(basis, fld), ref)
    assert factorized == [4]


def test_velocity_nan_run_raises_like_per_cell(basis4, factorized):
    # a NaN node height is not positive: velocity raises before any solve,
    # as the per-cell oracle does; the P(h) solve of the runs fails on the
    # NaN run as the solve of every cell does
    fld = _field_with_runs(np.random.default_rng(42), 4, [1, 1, 1, 4, 1, 1, 1, 1, 1])
    fld.h[3:7] = np.nan
    errors = []
    for solve in (velocity, velocity_every_cell):
        with pytest.raises(PositivityError) as info:
            solve(basis4, fld)
        errors.append((str(info.value), info.value.cell, info.value.node))
    assert errors[0] == errors[1] and errors[0][1:] == (3, 0)
    assert factorized == []
    new, cells = _runs_of(fld)
    with pytest.raises(np.linalg.LinAlgError) as per_cell:
        _p_eig(basis4, fld.h)
    factorized.clear()
    with pytest.raises(np.linalg.LinAlgError) as per_run:
        _p_eig(basis4, fld.h[new], cells)
    assert str(per_run.value) == str(per_cell.value)
    assert factorized == [9]


def test_velocity_error_names_the_first_cell_of_its_run(basis4, factorized):
    # velocity names the first bad cell, 7, by its node heights before any
    # solve.  The P(h) solve of the runs, where run 0 is solved once and
    # the bad run is row 3 of the batch, names the same cell through its
    # cells map, as the solve of every cell does
    fld = _field_with_runs(np.random.default_rng(43), 4, [5, 1, 1, 4, 1])
    fld.h[7:11] = [-1.0, 0.0, 0.0, 0.0]
    errors = []
    for solve in (velocity, velocity_every_cell):
        with pytest.raises(PositivityError) as info:
            solve(basis4, fld)
        errors.append((str(info.value), info.value.cell, info.value.node))
    assert errors[0] == errors[1] and errors[0][1:] == (7, 0)
    assert factorized == []
    new, cells = _runs_of(fld)
    assert cells[3] == 7
    errors = []
    for args in ((fld.h[new], cells), (fld.h,)):
        with pytest.raises(HyperbolicityError) as info:
            _p_eig(basis4, *args)
        errors.append((str(info.value), info.value.cell, info.value.detail))
    assert errors[0] == errors[1] and errors[0][1] == 7


def test_physical_flux_blocks(basis4):
    rng = np.random.default_rng(1)
    h, q = random_hyperbolic_state(rng, 4)
    F = physical_flux(basis4, h, q, 2.0)
    assert np.array_equal(F[:4], q)
    u = exact_u(basis4, h, q)
    expected = p_operator(basis4, q) @ u + 0.5 * 2.0 * p_operator(basis4, h) @ h
    assert np.max(np.abs(F[4:] - expected)) <= 1e-13


def test_flux_jacobian_matches_finite_differences(basis4):
    rng = np.random.default_rng(2)
    g = 1.3
    h, q = random_hyperbolic_state(rng, 4)
    J = flux_jacobian(basis4, h, q, g)
    U = np.concatenate([h, q])
    fd = np.empty((8, 8))
    delta = 1e-7
    for j in range(8):
        up, dn = U.copy(), U.copy()
        up[j] += delta
        dn[j] -= delta
        Fp = physical_flux(basis4, up[:4], up[4:], g)
        Fm = physical_flux(basis4, dn[:4], dn[4:], g)
        fd[:, j] = (Fp - Fm) / (2.0 * delta)
    assert np.max(np.abs(J - fd)) / np.max(np.abs(J)) <= 1e-6


def test_symmetrizer_diagonalizes_jacobian(basis9):
    rng = np.random.default_rng(3)
    g = 1.0
    for _ in range(10):
        h, q = random_hyperbolic_state(rng, 9)
        u = exact_u(basis9, h, q)
        T, lam = symmetrizer_eig(basis9, h, u, g)
        # Jacobian at the intermediate state (h, P(h) u)
        q_tilde = p_operator(basis9, h) @ u
        J = flux_jacobian(basis9, h, q_tilde, g)
        rec = (T * lam) @ np.linalg.inv(T)
        assert np.max(np.abs(rec - J)) / np.max(np.abs(J)) <= 1e-9


def test_symmetrizer_diffusion_operator_psd(basis4):
    rng = np.random.default_rng(4)
    h, q = random_hyperbolic_state(rng, 4)
    T, lam = symmetrizer_eig(basis4, h, exact_u(basis4, h, q), 1.0)
    Q = (T * np.abs(lam)) @ T.T
    assert np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) >= -1e-12


def test_symmetrizer_batched_matches_single(monkeypatch, pool):
    # cfl_dt's dt is bitwise that of solving every cell only if a cell's
    # eigenpairs do not depend on the batch: not on its size, on the (1, K)
    # rows that cfl_dt passes, on the pool's chunks, or on the batch's layout:
    # a (2, n // 2, K) stack goes through np.block with 4-D blocks
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 2)
    rng = np.random.default_rng(5)
    for K in (1, 4, 5, 9):
        basis = build_basis(K)
        h, q = random_state_batch(rng, 120, K)
        u = exact_u(basis, h, q)
        for n in (6, 120):
            T, lam = symmetrizer_eig(basis, h[:n], u[:n], 1.0)
            T2, lam2 = symmetrizer_eig(basis, *(a[:n].reshape(2, n // 2, K) for a in (h, u)), 1.0)
            assert T2.shape == (2, n // 2, 2 * K, 2 * K) and lam2.shape == (2, n // 2, 2 * K)
            assert T2.tobytes() == T.tobytes() and lam2.tobytes() == lam.tobytes()
            for i in range(n):
                for rows in (i, [i]):
                    Ti, lami = symmetrizer_eig(basis, h[rows], u[rows], 1.0)
                    assert T[rows].tobytes() == Ti.tobytes()
                    assert lam[rows].tobytes() == lami.tobytes()
    assert pool.sizes


def _symmetrizer_by_np_block(basis, h_bar, u_bar, g):
    """symmetrizer_eig as np.block assembles D and R, with the column signs
    flipped out of place: the layout that builds fresh 2K x 2K stacks."""
    Ph, pi, Q = _p_eig(basis, h_bar)
    Qt = np.swapaxes(Q, -1, -2)
    sq = np.sqrt(g * pi)
    G = (Q * sq[..., None, :]) @ Qt
    Ginv = (Q / sq[..., None, :]) @ Qt
    Pu = p_operator(basis, u_bar)
    C = g * (Ginv @ p_operator(basis, _mv(Ph, u_bar)) @ Ginv)
    off = 0.5 * (Pu - C)
    D = np.block([[0.5 * (2.0 * G + Pu + C), off], [off, 0.5 * (Pu + C - 2.0 * G)]])
    lam, L = sym_eig(0.5 * (D + np.swapaxes(D, -1, -2)))
    idx = np.argmax(np.abs(L), axis=-2)
    lead = np.take_along_axis(L, idx[..., None, :], axis=-2)[..., 0, :]
    L = L * np.where(lead < 0.0, -1.0, 1.0)[..., None, :]
    I = np.broadcast_to(np.eye(basis.K), G.shape)
    R = np.block([[I, I], [Pu + G, Pu - G]]) / np.sqrt(2.0 * g)
    return R @ L, lam


@pytest.mark.parametrize("K", [1, 3, 5, 9])
@pytest.mark.parametrize("g", [1.0, 9.81])
def test_symmetrizer_bitwise_equals_np_block_layout(K, g):
    # one buffer for S, |L| and R changes no bit of T or Lambda, on random
    # states in batches of 1, 7 and 300 and a (2, 150, K) stack, and on a
    # degenerate state: equal deterministic heights at rest, whose 2K
    # eigenvalues are +-sqrt(g h) K times each
    basis = build_basis(K)
    h, q = random_state_batch(np.random.default_rng(20 + K), 300, K)
    u = exact_u(basis, h, q)
    rest_h = np.zeros((7, K))
    rest_h[:, 0] = 1.5
    cases = [(h[:n], u[:n]) for n in (1, 7, 300)]
    cases += [(h.reshape(2, 150, K), u.reshape(2, 150, K)), (rest_h, np.zeros((7, K)))]
    for h_bar, u_bar in cases:
        T, lam = symmetrizer_eig(basis, h_bar, u_bar, g)
        T_ref, lam_ref = _symmetrizer_by_np_block(basis, h_bar, u_bar, g)
        assert T.shape == T_ref.shape and lam.shape == lam_ref.shape
        assert T.tobytes() == T_ref.tobytes() and lam.tobytes() == lam_ref.tobytes()


def test_symmetrizer_working_set(basis9):
    # K = 9 at 300 interfaces, a dambreak-es2 flux window: the call may hold
    # at most four (300, 18, 18) float64 stacks at once (np.block's layout
    # held 6.9); more fresh pages per call are handed back to the kernel and
    # faulted in again at the next
    h, q = random_state_batch(np.random.default_rng(21), 300, 9)
    u = exact_u(basis9, h, q)
    symmetrizer_eig(basis9, h, u, 1.0)
    tracemalloc.start()
    try:
        symmetrizer_eig(basis9, h, u, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 300 * 18 * 18 * 8


# the two ghost layers per side that semidiscrete_rhs gives its cell indices,
# through GHOST_MODES: outflow repeats the edge cell, periodic wraps
def _ghost_cells(policy):
    return np.take(np.arange(4), np.arange(-2, 6), mode=GHOST_MODES[policy])


def test_pad_ghosts_outflow():
    assert _ghost_cells("outflow").tolist() == [0, 0, 0, 1, 2, 3, 3, 3]


def test_pad_ghosts_periodic():
    assert _ghost_cells("periodic").tolist() == [2, 3, 0, 1, 2, 3, 0, 1]


def test_project_bottom_exact_for_polynomial(basis4):
    x = np.linspace(0.05, 0.95, 10)
    coeffs = project_bottom(lambda xx, xi: 2.0 + 0.5 * xx + 0.3 * xi, basis4, x)
    assert np.max(np.abs(coeffs[:, 0] - (2.0 + 0.5 * x))) <= 1e-14
    assert np.max(np.abs(coeffs[:, 1] - 0.3 / np.sqrt(3.0))) <= 1e-14
    assert np.max(np.abs(coeffs[:, 2:])) <= 1e-14


def test_field_validation():
    h = np.ones((4, 3))
    with pytest.raises(ValueError):
        Field(h=h, q=np.ones((4, 2)), bottom=np.zeros((4, 3)), dx=0.1, x_left=0.0)
    with pytest.raises(ValueError):
        Field(h=np.ones((2, 3)), q=np.ones((2, 3)), bottom=np.zeros((2, 3)), dx=0.1, x_left=0.0)
    for dx, x_left in ((0.0, 0.0), (-0.1, 0.0), (np.nan, 0.0), (np.inf, 0.0),
                       (0.1, np.nan), (0.1, -np.inf)):
        with pytest.raises(ValueError, match="finite dx > 0 and x_left"):
            Field(h=h, q=np.zeros((4, 3)), bottom=np.zeros((4, 3)), dx=dx, x_left=x_left)
    with pytest.raises(ValueError, match="ghost policy"):
        Field(h=h, q=h, bottom=h, dx=0.1, x_left=0.0, ghost_policy="reflect")
    fld = Field(h=h, q=np.zeros((4, 3)), bottom=np.zeros((4, 3)), dx=0.25, x_left=-1.0)
    assert np.array_equal(fld.x_centers, np.array([-0.875, -0.625, -0.375, -0.125]))


@pytest.mark.parametrize("policy", sorted(GHOST_MODES))
def test_float32_field_solves_as_its_float64_twin(policy):
    # Field stores float64: a float32 K = 1 field (rows of 12 bytes) gives
    # the velocity and right-hand side bytes of its float64 twin
    basis = build_basis(1)
    h32 = np.array([[2.0], [2.0], [1.0], [1.5], [1.5]], dtype=np.float32)
    q32 = np.array([[0.1], [0.1], [0.0], [-0.2], [-0.2]], dtype=np.float32)
    fields = [Field(h=h, q=q, bottom=np.zeros_like(h), dx=0.2, x_left=0.0, ghost_policy=policy)
              for h, q in ((h32, q32), (h32.astype(float), q32.astype(float)))]
    assert all(f.h.dtype == f.q.dtype == f.bottom.dtype == np.float64 for f in fields)
    out = []
    for fld in fields:
        solved = velocity(basis, fld)
        out.append([solved[0].u.tobytes(), solved[1].q.tobytes()]
                   + [a.tobytes() for scheme in SchemeKind
                      for a in semidiscrete_rhs(basis, solved, scheme, 1.0)])
    assert out[0] == out[1]
