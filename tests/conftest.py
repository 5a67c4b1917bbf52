"""Shared fixtures and random state helpers for the test suite."""

from dataclasses import replace

import numpy as np
import pytest

import sgswe.core
import sgswe.linalg
from sgswe.basis import build_basis, eval_basis, mean_variance, p_operator
from sgswe.core import Velocity, _p_eig, positivity_check, symmetrizer_eig
from sgswe.entropy import energy
from sgswe.linalg import _mtv, sym_eig
from sgswe.schemes import interface_flux


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


@pytest.fixture
def factorized(monkeypatch):
    """The number of matrices each np.linalg.eigh call receives."""
    sizes, eigh = [], np.linalg.eigh

    def counting(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes


def lose_hyperbolicity(monkeypatch, K, index):
    """Make core's sym_eig report -1 as the smallest eigenvalue of matrix
    index of every K x K batch of more than index matrices, as a P(h) that
    lost positive definiteness there would give; 2K x 2K solves are left
    alone."""
    real = sgswe.core.sym_eig

    def losing(A):
        values, vectors = real(A)
        if A.shape[-1] == K and values.size > index * K:
            values = values.copy()
            values.reshape(-1, K)[index, 0] = -1.0
        return values, vectors

    monkeypatch.setattr(sgswe.core, "sym_eig", losing)


def distinct_eyes(n, count):
    """count multiples 1, 2, ..., count of the n x n identity: a batch whose
    eigenvalues are known and differ from one matrix to the next."""
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


def velocity_every_cell(basis, field):
    """sgswe.core.velocity with one P(h) solve per cell, equal neighbours or
    not: the oracle its per-run solves must match byte for byte.  Every
    cell starts a run of its own."""
    node_h = positivity_check(basis, field.h)
    eps = field.dx
    Ph, pi, Q = _p_eig(basis, field.h)
    small = pi < eps
    pi_reg = np.where(
        small, np.sqrt(pi**4 + np.maximum(pi**4, eps**4)) / (np.sqrt(2.0) * pi), pi
    )
    activated = np.any(small, axis=-1)
    u = _mv(Q, _mtv(Q, field.q) / pi_reg)
    q_new = np.where(activated[..., None], _mv(Ph, u), field.q) if np.any(activated) else field.q
    runs = np.ones(field.nx, dtype=bool)
    return Velocity(u, activated, _mv(Ph, u), node_h, runs), replace(field, q=q_new)


# np.pad's mode for each boundary policy: the oracle's own table, so that it
# does not read the np.take modes of sgswe.core.GHOST_MODES
_PAD_MODES = {"outflow": "edge", "periodic": "wrap"}


def ghost_padded(a, policy):
    """a with two ghost layers per side along axis 0, filled by np.pad:
    outflow repeats the edge cell, periodic wraps."""
    return np.pad(a, [(2, 2)] + [(0, 0)] * (a.ndim - 1), mode=_PAD_MODES[policy])


def rhs_every_interface(basis, solved, scheme, g):
    """sgswe.schemes.semidiscrete_rhs with interface_flux on the whole padded
    stack: the oracle its window of jumps must match byte for byte."""
    vel, field = solved
    nx = field.nx
    hp, up, Bp = (ghost_padded(a, field.ghost_policy) for a in (field.h, vel.u, field.bottom))
    flux, Ph_bar = interface_flux(basis, hp, up, Bp, scheme, g)
    fluxes = flux[1 : nx + 2]
    PhjB = _mv(Ph_bar, Bp[1:] - Bp[:-1])
    Sq = -(0.5 * g / field.dx) * (PhjB[2 : nx + 2] + PhjB[1 : nx + 1])
    rhs = -(fluxes[1:] - fluxes[:-1]) / field.dx
    rhs[:, basis.K :] += Sq
    return rhs, fluxes


def grid_energy_pair(basis, solved, fluxes, g):
    """Entropy variables V of the cells 1 .. nx+2 of the ghost-padded grid
    (interior cells are V[1:-1]) and the energy flux at the nx+1 interior
    interfaces, for solved = velocity(basis, field) and the fluxes of
    semidiscrete_rhs(basis, solved, scheme, g)."""
    vel, field = solved
    hp, up, Bp = (
        ghost_padded(a, field.ghost_policy)[1 : field.nx + 3]
        for a in (field.h, vel.u, field.bottom)
    )
    V = entropy_vars_at(basis, hp, up, Bp, g)
    return V, interface_energy_flux(basis, hp, up, Bp, fluxes, g)


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


def roe_equivalence_errors(basis, L, R, g):
    """Criterion 5's two identities between the (h, q) states L and R over a
    flat bottom, as (diffusion, rescaling) errors.

    diffusion: the es1 diffusion T|Lambda|T^T [[V]] against the Roe form
    T|Lambda|T^-1 [[U]] on the rescaled jump [[U]] = R R^T [[V]], relative
    to the former's largest entry.  rescaling: max |R R^T H - I| for the
    energy Hessian H at the averaged state (h_bar, u_bar).
    """
    K, zero = basis.K, np.zeros(basis.K)
    eye = np.eye(K)
    h_bar = 0.5 * (L[0] + R[0])
    u_bar = 0.5 * (exact_u(basis, *L) + exact_u(basis, *R))
    jV = entropy_variables(basis, *R, zero, g) - entropy_variables(basis, *L, zero, g)

    A = p_operator(basis, u_bar)
    Ph = p_operator(basis, h_bar)
    Gm = spd_sqrt(g * Ph)
    Rm = np.block([[eye, eye], [A + Gm, A - Gm]]) / np.sqrt(2.0 * g)
    RRt = Rm @ Rm.T

    T, lam = symmetrizer_eig(basis, h_bar, u_bar, g)
    q_es1 = T @ (np.abs(lam) * (T.T @ jV))
    q_roe = T @ (np.abs(lam) * np.linalg.solve(T, RRt @ jV))
    diffusion = float(np.max(np.abs(q_roe - q_es1)) / np.max(np.abs(q_es1)))

    Phinv_A = np.linalg.solve(Ph, A)
    Phinv = np.linalg.solve(Ph, eye)
    hess = np.block([[g * eye + A @ Phinv_A, -A @ Phinv], [-Phinv_A, Phinv]])
    return diffusion, float(np.max(np.abs(RRt @ hess - np.eye(2 * K))))


# Oracles of the CSV writers: per-cell quantiles from np.quantile over every
# cell and rows formatted by np.savetxt.  The tests pin write_snapshot and
# write_energy_series to their bytes.  The node values are formed as
# write_snapshot forms them, by np.einsum against a C-contiguous (K, 1001)
# table: a BLAS product, or the same einsum on a transposed view, rounds some
# of them differently.  einsum gives each row the same bits whatever the
# batch, so evaluating every cell here checks write_snapshot's runs.


def _savetxt_csv(path, header, columns):
    with open(path, "w", newline="") as handle:
        np.savetxt(handle, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   newline="\r\n", header=",".join(header), comments="")


def snapshot_oracle(basis, field, path):
    """The snapshot CSV that sgswe.cli.write_snapshot must write, byte for byte."""
    table_t = np.ascontiguousarray(eval_basis(np.linspace(-1.0, 1.0, 1001), basis.K).T)

    def stats(coeffs):
        mean, var = mean_variance(coeffs)
        vals = np.einsum("ik,kj->ij", coeffs, table_t)
        q005, q995 = np.quantile(vals, [0.005, 0.995], axis=-1)
        return mean, np.sqrt(var), q005, q995

    b_mean, b_var = mean_variance(field.bottom)
    header = ["x_center", "w_mean", "w_std", "w_q005", "w_q995",
              "q_mean", "q_std", "q_q005", "q_q995", "B_mean", "B_std"]
    _savetxt_csv(path, header, [field.x_centers, *stats(field.h + field.bottom),
                                *stats(field.q), b_mean, np.sqrt(b_var)])


def energy_series_oracle(records, path):
    """The energy CSV that sgswe.cli.write_energy_series must write, byte for byte."""
    cols = {name: [getattr(rec, name) for rec in records]
            for name in ("t", "energy", "min_node_height", "restarts", "dt", "lam")}
    e = np.array(cols["energy"])
    header = ["t", "E_total", "relative_energy", "min_node_height", "restarts", "dt", "lam"]
    _savetxt_csv(path, header, [cols["t"], e, (e - e[0]) / e, cols["min_node_height"],
                                cols["restarts"], cols["dt"], cols["lam"]])
