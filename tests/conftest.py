"""Shared fixtures and random state helpers for the test suite."""

import numpy as np
import pytest

import sgswe.linalg
from sgswe.basis import build_basis, p_operator
from sgswe.core import pad_ghosts, symmetrizer_eig
from sgswe.entropy import _entropy_vars, energy
from sgswe.linalg import _mtv, sym_eig
from sgswe.schemes import SchemeKind, _es2_pi, interface_flux


@pytest.fixture(scope="session")
def basis9():
    return build_basis(9)


@pytest.fixture(scope="session")
def basis4():
    return build_basis(4)


def _cap_fluctuations(h, margin=0.3):
    """Shrink modes k >= 2 until sum |h_k| sup|phi_k| fits under h_1 - margin.

    sup of the k-th orthonormal Legendre polynomial on [-1, 1] is
    sqrt(2k - 1), so this guarantees a positive surrogate everywhere.
    """
    K = h.shape[-1]
    sup = np.sqrt(2.0 * np.arange(2, K + 1) - 1.0)
    total = np.sum(np.abs(h[..., 1:]) * sup, axis=-1)
    budget = h[..., 0] - margin
    scale = np.where(total > budget, budget / np.maximum(total, 1e-300), 1.0)
    h[..., 1:] *= scale[..., None]
    return h


def random_hyperbolic_state(rng, K, h_mean=1.5, spread=0.1, q_scale=0.3):
    """Random (h, q) whose height surrogate is positive for every xi."""
    h = np.empty(K)
    h[0] = h_mean + 0.2 * rng.random()
    h[1:] = spread * rng.standard_normal(K - 1)
    q = q_scale * rng.standard_normal(K)
    return _cap_fluctuations(h), q


def random_state_batch(rng, n, K, h_mean=1.5, spread=0.1, q_scale=0.3):
    """n random states as (h, q) arrays of shape (n, K)."""
    h = np.empty((n, K))
    h[:, 0] = h_mean + 0.2 * rng.random(n)
    h[:, 1:] = spread * rng.standard_normal((n, K - 1))
    q = q_scale * rng.standard_normal((n, K))
    return _cap_fluctuations(h), q


class CountingPool:
    """Stands in for the solver pool and records the size of each chunk
    handed to it."""

    def __init__(self, pool):
        self.pool, self.sizes = pool, []

    def submit(self, fn, part):
        self.sizes.append(len(part))
        return self.pool.submit(fn, part)


@pytest.fixture
def pool(monkeypatch):
    counting = CountingPool(sgswe.linalg._executor())
    monkeypatch.setattr(sgswe.linalg, "_executor", lambda: counting)
    return counting


def distinct_eyes(n, count):
    """count multiples 1, 2, ..., count of the n x n identity: a batch in
    which no two neighbours are equal, so sym_eig solves every matrix."""
    return np.eye(n) * (1.0 + np.arange(count))[:, None, None]


# Test-only oracles: SPD helpers, the state-level physical flux and energy
# pair, the interface energy flux, the flux Jacobian and the energy Hessian.
# The solver needs none of them; the tests check its eigen-path and its
# interface fluxes against them.  The state-level ones take height and
# discharge coefficients (h, q) of shape (..., K) and the exact velocity
# u = P(h)^{-1} q; each is written from the formula, not from the solver's
# helpers.


class NotSPDError(np.linalg.LinAlgError):
    """Matrix expected to be SPD has a non-positive eigenvalue."""


def _mv(A, x):
    return np.einsum("...ij,...j->...i", A, x)


def spd_solve(A, b):
    """Solve A x = b for SPD A; raises NotSPDError if A is not SPD.

    b may be a vector (..., n) or a stack of right-hand sides (..., n, k).
    """
    A = np.asarray(A, dtype=float)
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    try:
        np.linalg.cholesky(A)  # SPD gate; cheap at the sizes used here
    except np.linalg.LinAlgError as exc:
        raise NotSPDError("matrix is not SPD") from exc
    b = np.asarray(b, dtype=float)
    if b.ndim == A.ndim - 1:
        return np.linalg.solve(A, b[..., None])[..., 0]
    return np.linalg.solve(A, b)


def spd_sqrt(A):
    """Symmetric positive definite square root G with G @ G = A."""
    values, vectors = sym_eig(A)
    if np.any(values <= 0.0):
        raise NotSPDError(f"matrix is not SPD (min eigenvalue {np.min(values):.6e})")
    root = vectors * np.sqrt(values)[..., None, :]
    return root @ np.swapaxes(vectors, -1, -2)


def exact_u(basis, h, q):
    """Velocity from the exact inverse of P(h), u = P(h)^{-1} q."""
    return spd_solve(p_operator(basis, h), q)


def physical_flux(basis, h, q, g):
    """Exact flux F(U) = (q; P(q) u + (g/2) P(h) h), shape (..., 2K)."""
    u = exact_u(basis, h, q)
    Fq = _mv(p_operator(basis, q), u) + 0.5 * g * _mv(p_operator(basis, h), h)
    return np.concatenate([q, Fq], axis=-1)


def entropy_vars_at(basis, h, u, bottom, g):
    """V = (-P(u)u/2 + g(h + B); u) at the velocity u, shape (..., 2K)."""
    V1 = -0.5 * _mv(p_operator(basis, u), u) + g * (h + bottom)
    return np.concatenate([V1, u], axis=-1)


def entropy_variables(basis, h, q, bottom, g):
    """V = dE/dU = (-P(u)u/2 + g(h + B); u), shape (..., 2K)."""
    return entropy_vars_at(basis, h, exact_u(basis, h, q), bottom, g)


def energy_flux(basis, h, q, bottom, g):
    """H = u^T P(q) u / 2 + g q.h + g q.B, the flux paired with E."""
    u = exact_u(basis, h, q)
    kinetic = 0.5 * np.sum(u * _mv(p_operator(basis, q), u), axis=-1)
    return kinetic + g * np.sum(q * (h + bottom), axis=-1)


def energy_potential(basis, h, q, g):
    """Psi = V.F - H = (g/2) u^T P(h) h; the bottom drops out."""
    u = exact_u(basis, h, q)
    return 0.5 * g * np.sum(u * _mv(p_operator(basis, h), h), axis=-1)


def interface_energy_flux(basis, h, u, B, F, g):
    """Numerical energy flux H = avg(V) . F - avg(Psi) - (g/4) [[B]] . P(h_bar) [[u]]
    at the n-1 interfaces of cells stacked along axis -2 (h, u, B of shape
    (..., n, K)), given their interface fluxes F (..., n-1, 2K)."""
    V = entropy_vars_at(basis, h, u, B, g)
    psi = 0.5 * g * np.sum(u * _mv(p_operator(basis, h), h), axis=-1)
    Ph_bar = p_operator(basis, 0.5 * (h[..., :-1, :] + h[..., 1:, :]))
    jB, ju = np.diff(B, axis=-2), np.diff(u, axis=-2)
    return (
        np.sum(0.5 * (V[..., :-1, :] + V[..., 1:, :]) * F, axis=-1)
        - 0.5 * (psi[..., :-1] + psi[..., 1:])
        - 0.25 * g * np.sum(jB * _mv(Ph_bar, ju), axis=-1)
    )


def diffused_everywhere(basis, h, u, B, scheme, g):
    """interface_flux(...).flux of the es1 or es2 scheme with the diffusion
    T |Lambda| Pi T^T [[V]] assembled and subtracted at every interface,
    [[V]] = 0 or not.  interface_flux skips the interfaces with [[V]] = 0;
    this oracle, built from the same helpers, checks that the skip is
    exact."""
    F = interface_flux(basis, h, u, B, SchemeKind.EC, g).flux
    V = _entropy_vars(basis, h, u, B, g)
    T, lam = symmetrizer_eig(
        basis, 0.5 * (h[..., :-1, :] + h[..., 1:, :]), 0.5 * (u[..., :-1, :] + u[..., 1:, :]), g
    )
    w_left, w_right = _mtv(T, V[..., :-1, :]), _mtv(T, V[..., 1:, :])
    wjump = w_right - w_left
    weight = np.abs(lam)
    if scheme is SchemeKind.ES2:
        Pi = np.ones_like(wjump)
        Pi[..., 1:-1, :] = _es2_pi(wjump[..., :-2, :], wjump[..., 1:-1, :], wjump[..., 2:, :],
                                   w_left[..., 1:-1, :], w_right[..., 1:-1, :])
        weight = weight * Pi
    return F - 0.5 * _mv(T, weight * wjump)


def grid_energy_pair(basis, solved, r, g):
    """Entropy variables V of the cells 1 .. nx+2 of the ghost-padded grid
    (interior cells are V[1:-1]) and the energy flux at the nx+1 interior
    interfaces, for solved = velocity(basis, field) and
    r = semidiscrete_rhs(basis, solved, scheme, g)."""
    vel, field = solved
    hp, up, Bp = (
        pad_ghosts(a, field.ghost_policy)[1 : field.nx + 3]
        for a in (field.h, vel.u, field.bottom)
    )
    V = entropy_vars_at(basis, hp, up, Bp, g)
    return V, interface_energy_flux(basis, hp, up, Bp, r.fluxes, g)


def state_energy(basis, h, q, bottom, g):
    """sgswe.entropy.energy at the exact velocity of (h, q)."""
    return energy(h, q, bottom, g, exact_u(basis, h, q))


def flux_jacobian(basis, h, q, g):
    """Flux Jacobian dF/dU in K x K blocks:

        [ O                                I                    ]
        [ g P(h) - P(q) P^{-1}(h) P(u)     P(q) P^{-1}(h) + P(u)]

    with P^{-1}(h) built from the eigenpairs of P(h).
    """
    Ph = p_operator(basis, h)
    pi, Q = np.linalg.eigh(Ph)
    Pinv = (Q / pi[..., None, :]) @ np.swapaxes(Q, -1, -2)
    u = _mv(Pinv, q)
    Pq = p_operator(basis, q)
    Pu = p_operator(basis, u)
    PqPinv = Pq @ Pinv
    K = basis.K
    J = np.zeros(h.shape[:-1] + (2 * K, 2 * K))
    J[..., :K, K:] = np.eye(K)
    J[..., K:, :K] = g * Ph - PqPinv @ Pu
    J[..., K:, K:] = PqPinv + Pu
    return J


def hessian_quadform(basis, h, q, g, w1, w2):
    """w^T (d2E/dU2) w = g |w1|^2 + r^T P(h)^{-1} r with r = P(u) w1 - w2.

    Strictly positive for w != 0 whenever P(h) is SPD, so E is strictly
    convex there.
    """
    r = _mv(p_operator(basis, exact_u(basis, h, q)), w1) - w2
    x = spd_solve(p_operator(basis, h), r)
    return g * np.sum(w1 * w1, axis=-1) + np.sum(r * x, axis=-1)
