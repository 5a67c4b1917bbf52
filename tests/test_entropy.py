"""Energy, and the test oracles for the energy pair, entropic variables and
Hessian quadratic form that the interface-flux tests rely on."""

import numpy as np
import pytest

from sgswe.basis import p_operator

from conftest import (
    energy_flux,
    exact_u,
    energy_potential,
    entropy_variables,
    flux_jacobian,
    hessian_quadform,
    physical_flux,
    random_hyperbolic_state,
    state_energy,
)


def _fd_gradient(fun, U, delta=1e-6):
    grad = np.empty_like(U)
    for j in range(U.size):
        up, dn = U.copy(), U.copy()
        up[j] += delta
        dn[j] -= delta
        grad[j] = (fun(up) - fun(dn)) / (2.0 * delta)
    return grad


def test_entropy_variables_are_energy_gradient(basis9):
    rng = np.random.default_rng(0)
    g = 1.0
    K = 9
    for _ in range(10):
        h, q = random_hyperbolic_state(rng, K)
        B = 0.1 * rng.standard_normal(K)

        def E_of(U):
            return float(state_energy(basis9, U[:K], U[K:], B, g))

        U = np.concatenate([h, q])
        V = entropy_variables(basis9, h, q, B, g)
        fd = _fd_gradient(E_of, U)
        assert np.max(np.abs(V - fd)) / np.max(np.abs(V)) <= 1e-6


def test_hessian_quadform_matches_fd(basis9):
    rng = np.random.default_rng(1)
    g = 1.0
    K = 9
    h, q = random_hyperbolic_state(rng, K)
    w1 = rng.standard_normal(K)
    w2 = rng.standard_normal(K)
    quad = float(hessian_quadform(basis9, h, q, g, w1, w2))
    w = np.concatenate([w1, w2])
    U = np.concatenate([h, q])
    delta = 1e-4
    zero = np.zeros(K)

    def E_of(U_):
        return float(state_energy(basis9, U_[:K], U_[K:], zero, g))

    fd = (E_of(U + delta * w) - 2.0 * E_of(U) + E_of(U - delta * w)) / delta**2
    assert quad == pytest.approx(fd, rel=1e-4)
    assert quad > 0.0


def test_hessian_quadform_strictly_positive(basis4):
    rng = np.random.default_rng(2)
    for _ in range(30):
        h, q = random_hyperbolic_state(rng, 4)
        w1 = rng.standard_normal(4)
        w2 = rng.standard_normal(4)
        assert float(hessian_quadform(basis4, h, q, 1.0, w1, w2)) > 0.0


def test_potential_identity(basis9):
    rng = np.random.default_rng(3)
    g = 1.0
    for _ in range(20):
        h, q = random_hyperbolic_state(rng, 9)
        B = 0.2 * rng.standard_normal(9)
        V = entropy_variables(basis9, h, q, B, g)
        F = physical_flux(basis9, h, q, g)
        H = energy_flux(basis9, h, q, B, g)
        Psi = energy_potential(basis9, h, q, g)
        assert abs(float(V @ F) - float(H) - float(Psi)) <= 1e-11
        # closed form of the potential
        u = exact_u(basis9, h, q)
        closed = 0.5 * g * float(u @ (p_operator(basis9, h) @ h))
        assert float(Psi) == pytest.approx(closed, rel=1e-13)


def test_flat_bottom_compatibility(basis9):
    # gradient of E1 contracted with the flux Jacobian equals gradient of H1
    rng = np.random.default_rng(4)
    g = 1.0
    K = 9
    for _ in range(5):
        h, q = random_hyperbolic_state(rng, K)
        U = np.concatenate([h, q])
        zero = np.zeros(K)

        def H1_of(U_):
            return float(energy_flux(basis9, U_[:K], U_[K:], zero, g))

        V1 = entropy_variables(basis9, h, q, zero, g)
        J = flux_jacobian(basis9, h, q, g)
        lhs = V1 @ J
        fd = _fd_gradient(H1_of, U)
        assert np.max(np.abs(lhs - fd)) / np.max(np.abs(lhs)) <= 1e-5


def test_flat_variants_drop_bottom_terms(basis4):
    rng = np.random.default_rng(5)
    h, q = random_hyperbolic_state(rng, 4)
    B = 0.3 * rng.standard_normal(4)
    g = 1.0
    zero = np.zeros(4)
    dE = float(state_energy(basis4, h, q, B, g) - state_energy(basis4, h, q, zero, g))
    assert dE == pytest.approx(g * float(h @ B), rel=1e-14)
    dV = entropy_variables(basis4, h, q, B, g) - entropy_variables(basis4, h, q, zero, g)
    assert np.max(np.abs(dV[:4] - g * B)) <= 1e-14
    assert np.max(np.abs(dV[4:])) == 0.0


def test_energy_batched(basis4):
    rng = np.random.default_rng(6)
    h = np.tile(np.array([1.2, 0.05, 0.0, -0.01]), (5, 1))
    q = 0.1 * rng.standard_normal((5, 4))
    B = 0.1 * rng.standard_normal((5, 4))
    E = state_energy(basis4, h, q, B, 1.0)
    assert E.shape == (5,)
    for i in range(5):
        Ei = state_energy(basis4, h[i], q[i], B[i], 1.0)
        assert float(E[i]) == pytest.approx(float(Ei), rel=1e-13)
