"""State operations: velocity, fluxes, Jacobian, symmetrizer, projection."""

import math

import numpy as np
import pytest

from sgswe.basis import build_basis, p_operator
from sgswe.core import (
    CellState,
    Field,
    pad_ghosts,
    project_bottom,
    symmetrizer_eig,
    velocity,
)
from sgswe.errors import HyperbolicityError

from conftest import flux_jacobian, physical_flux, random_hyperbolic_state, random_state_batch


def test_velocity_exact_inverse(basis9):
    rng = np.random.default_rng(0)
    st = random_state_batch(rng, 20, 9)
    vel, out = velocity(basis9, st, 0.0)
    resid = np.einsum("bij,bj->bi", p_operator(basis9, st.h), vel.u) - st.q
    assert np.max(np.abs(resid)) <= 1e-12
    assert not vel.desingularized.any()
    assert out.q is st.q  # exact path leaves the discharge untouched


def test_velocity_regularization_formula_value():
    # K = 1: P(h) is the scalar h, so the eigenvalue is pi = h directly.
    basis = build_basis(1)
    eps = 0.01
    st = CellState(h=np.array([eps / 2.0]), q=np.array([1.0]))
    vel, out = velocity(basis, st, eps)
    pi_reg = eps * math.sqrt(34.0) / 4.0  # sqrt(pi^4 + eps^4)/(sqrt(2) pi) at pi = eps/2
    assert vel.u[0] == pytest.approx(1.0 / pi_reg, rel=1e-14)
    assert vel.desingularized.all()
    # discharge recomputed as P(h) u
    assert out.q[0] == pytest.approx((eps / 2.0) * vel.u[0], rel=1e-14)


def test_velocity_threshold_inactive_above_eps():
    basis = build_basis(1)
    st = CellState(h=np.array([0.5]), q=np.array([0.3]))
    vel, out = velocity(basis, st, 0.01)
    assert vel.u[0] == 0.3 / 0.5
    assert not vel.desingularized.any()
    assert out.q[0] == 0.3


def test_velocity_raises_on_hyperbolicity_loss(basis4):
    st = CellState(h=np.array([-1.0, 0.0, 0.0, 0.0]), q=np.zeros(4))
    with pytest.raises(HyperbolicityError):
        velocity(basis4, st, 0.0)


def test_physical_flux_blocks(basis4):
    rng = np.random.default_rng(1)
    st = random_hyperbolic_state(rng, 4)
    F = physical_flux(basis4, st, 2.0)
    assert np.array_equal(F[:4], st.q)
    u = velocity(basis4, st, 0.0)[0].u
    expected = p_operator(basis4, st.q) @ u + 0.5 * 2.0 * p_operator(basis4, st.h) @ st.h
    assert np.max(np.abs(F[4:] - expected)) <= 1e-13


def test_flux_jacobian_matches_finite_differences(basis4):
    rng = np.random.default_rng(2)
    g = 1.3
    st = random_hyperbolic_state(rng, 4)
    J = flux_jacobian(basis4, st, g)
    U = np.concatenate([st.h, st.q])
    fd = np.empty((8, 8))
    delta = 1e-7
    for j in range(8):
        up, dn = U.copy(), U.copy()
        up[j] += delta
        dn[j] -= delta
        Fp = physical_flux(basis4, CellState(up[:4], up[4:]), g)
        Fm = physical_flux(basis4, CellState(dn[:4], dn[4:]), g)
        fd[:, j] = (Fp - Fm) / (2.0 * delta)
    assert np.max(np.abs(J - fd)) / np.max(np.abs(J)) <= 1e-6


def test_symmetrizer_diagonalizes_jacobian(basis9):
    rng = np.random.default_rng(3)
    g = 1.0
    for _ in range(10):
        st = random_hyperbolic_state(rng, 9)
        u = velocity(basis9, st, 0.0)[0].u
        T, lam = symmetrizer_eig(basis9, st.h, u, g)
        # Jacobian at the intermediate state (h, P(h) u)
        q_tilde = p_operator(basis9, st.h) @ u
        J = flux_jacobian(basis9, CellState(st.h, q_tilde), g)
        rec = (T * lam) @ np.linalg.inv(T)
        assert np.max(np.abs(rec - J)) / np.max(np.abs(J)) <= 1e-9


def test_symmetrizer_diffusion_operator_psd(basis4):
    rng = np.random.default_rng(4)
    st = random_hyperbolic_state(rng, 4)
    u = velocity(basis4, st, 0.0)[0].u
    T, lam = symmetrizer_eig(basis4, st.h, u, 1.0)
    Q = (T * np.abs(lam)) @ T.T
    assert np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) >= -1e-12


def test_symmetrizer_batched_matches_single(basis4):
    rng = np.random.default_rng(5)
    st = random_state_batch(rng, 6, 4)
    u = velocity(basis4, st, 0.0)[0].u
    T, lam = symmetrizer_eig(basis4, st.h, u, 1.0)
    for i in range(6):
        Ti, lami = symmetrizer_eig(basis4, st.h[i], u[i], 1.0)
        assert np.max(np.abs(T[i] - Ti)) <= 1e-12
        assert np.max(np.abs(lam[i] - lami)) <= 1e-12


def test_pad_ghosts_outflow():
    arr = np.arange(8.0).reshape(4, 2)
    padded = pad_ghosts(arr, "outflow")
    assert padded.shape == (8, 2)
    assert np.array_equal(padded[0], arr[0])
    assert np.array_equal(padded[1], arr[0])
    assert np.array_equal(padded[-1], arr[-1])
    assert np.array_equal(padded[-2], arr[-1])


def test_pad_ghosts_periodic():
    arr = np.arange(8.0).reshape(4, 2)
    padded = pad_ghosts(arr, "periodic")
    assert np.array_equal(padded[0], arr[-2])
    assert np.array_equal(padded[1], arr[-1])
    assert np.array_equal(padded[-2], arr[0])
    assert np.array_equal(padded[-1], arr[1])


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
    fld = Field(h=h, q=np.zeros((4, 3)), bottom=np.zeros((4, 3)), dx=0.25, x_left=-1.0)
    assert np.array_equal(fld.x_centers, np.array([-0.875, -0.625, -0.375, -0.125]))
