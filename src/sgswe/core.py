"""The stochastic Galerkin shallow water system in PCE coefficient form.

State per cell is U = (h, q) in R^{2K}: the chaos coefficients of water
height and discharge.  The system is hyperbolic while P(h) stays SPD, which
is what every operation here assumes and checks.  All operations accept
batched coefficient arrays with shape (..., K); matrices come back as
(..., n, n) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .basis import PceBasis, p_operator
from .errors import HyperbolicityError, PositivityError
from .linalg import _mtv, _mv, _run_starts, sym_eig

__all__ = [
    "Velocity",
    "Field",
    "positivity_check",
    "velocity",
    "symmetrizer_eig",
    "project_bottom",
    "pad_ghosts",
]


@dataclass(frozen=True)
class Velocity:
    """Velocity coefficients u, per-cell flags telling where the regularized
    inverse deviated from the exact one, the P(h) that the solve inverted,
    the positive node heights h(xi_m) and the starts of the runs of
    byte-equal (h, q) rows it solved once each."""

    u: np.ndarray = dc_field(repr=False)
    desingularized: np.ndarray = dc_field(repr=False)  # bool, shape (nx,)
    Ph: np.ndarray = dc_field(repr=False)
    node_h: np.ndarray = dc_field(repr=False)  # shape (nx, 2K)
    runs: np.ndarray = dc_field(repr=False)  # bool, shape (nx,)


@dataclass
class Field:
    """Uniform 1D grid of cell-averaged PCE coefficients.

    h, q, bottom have shape (nx, K); bottom is time-independent.
    ghost_policy selects how pad_ghosts fills the two ghost layers.
    """

    h: np.ndarray
    q: np.ndarray
    bottom: np.ndarray
    dx: float
    x_left: float
    ghost_policy: str = "outflow"

    def __post_init__(self):
        if self.h.shape != self.q.shape or self.h.shape != self.bottom.shape:
            raise ValueError("h, q, bottom must share one (nx, K) shape")
        if self.h.ndim != 2 or self.h.shape[0] < 3:
            raise ValueError("need at least 3 cells (ES2 stencils)")
        if self.ghost_policy not in ("outflow", "periodic"):
            raise ValueError(f"unknown ghost policy {self.ghost_policy!r}")

    @property
    def nx(self) -> int:
        return self.h.shape[0]

    @property
    def K(self) -> int:
        return self.h.shape[1]

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_left + self.dx * (np.arange(self.nx) + 0.5)


def pad_ghosts(arr: np.ndarray, policy: str) -> np.ndarray:
    """Prepend/append two ghost layers along axis 0.

    outflow copies the nearest interior cell into both layers; periodic wraps.
    """
    if policy == "outflow":
        return np.concatenate([arr[:1], arr[:1], arr, arr[-1:], arr[-1:]], axis=0)
    if policy == "periodic":
        return np.concatenate([arr[-2:], arr, arr[:2]], axis=0)
    raise ValueError(f"unknown ghost policy {policy!r}")


def positivity_check(basis: PceBasis, h: np.ndarray) -> np.ndarray:
    """Node heights h_i(xi_m), shape (nx, M); raises PositivityError naming
    the first cell and node whose height is not positive."""
    node_h = h @ basis.basis_table.T
    bad = ~(node_h > 0.0)
    if np.any(bad):
        i, m = map(int, np.argwhere(bad)[0])
        raise PositivityError(f"nonpositive node height {node_h[i, m]:.6e}", cell=i, node=m)
    return node_h


def _p_eig(basis: PceBasis, h: np.ndarray, cells=None):
    """P(h) with its eigenvalues and eigenvectors; raises HyperbolicityError
    naming the batch index with the smallest eigenvalue, or cells[index]
    when cells is given, when P(h) is not positive definite."""
    Ph = p_operator(basis, h)
    pi, Q = sym_eig(Ph)
    if np.any(pi <= 0.0):
        flat = np.min(pi, axis=-1).reshape(-1)
        idx = int(np.argmin(flat))
        cell = idx if cells is None else int(cells[idx])
        raise HyperbolicityError(
            f"P(h) not positive definite (min eigenvalue {flat[idx]:.6e} at batch index {cell})",
            cell=cell,
            detail=float(flat[idx]),
        )
    return Ph, pi, Q


def velocity(basis: PceBasis, field: Field) -> tuple[Velocity, Field]:
    """Velocity u of every cell from the (regularized) inverse of P(h)
    applied to q, with the field whose discharge matches it.  A node height
    that is not positive raises PositivityError, naming cell and node,
    before any P(h) is factorized; positive ones make P(h) SPD.

    Eigenvalues pi of P(h) below eps are replaced by
    sqrt(pi^4 + max(pi^4, eps^4)) / (sqrt(2) pi), which leaves pi >= eps
    untouched (Kurganov & Petrova, 2007); in a cell where any eigenvalue
    was regularized the discharge is recomputed as q <- P(h) u so that u
    and q stay consistent.  The threshold is the grid's, eps = field.dx,
    and this is the one place that sets it.  It compares an eigenvalue of
    P(h), a height, with a length, so it is not dimensionally consistent.
    It is documented rather than changed: any other value changes the
    outputs of every run that desingularizes, such as the hump configs
    under perfbench/configs/smoke/.  Each run of byte-equal (h, q) rows is
    solved once and copied; a cell's solve does not depend on the batch, so
    the copies are bitwise exact.
    """
    node_h = positivity_check(basis, field.h)
    eps = field.dx
    new = _run_starts(np.concatenate([field.h, field.q], axis=1))
    owner = np.cumsum(new) - 1
    Ph, pi, Q = _p_eig(basis, field.h[new], np.flatnonzero(new))
    small = pi < eps
    pi_reg = np.where(
        small, np.sqrt(pi**4 + np.maximum(pi**4, eps**4)) / (np.sqrt(2.0) * pi), pi
    )
    activated = np.any(small, axis=-1)
    u = _mv(Q, _mtv(Q, field.q[new]) / pi_reg)
    if np.any(activated):
        q_new = np.where(activated[..., None], _mv(Ph, u), field.q[new])[owner]
    else:
        q_new = field.q
    return Velocity(u[owner], activated[owner], Ph[owner], node_h, new), replace(field, q=q_new)


def _normalize_columns(L: np.ndarray) -> np.ndarray:
    """Flip eigenvector column signs so the largest-|entry| component is > 0.

    Makes the decomposition deterministic and spatially coherent, which the
    ES2 scaled-variable ratios rely on; symmetric products T |L| T^T are
    unaffected.
    """
    idx = np.argmax(np.abs(L), axis=-2)
    lead = np.take_along_axis(L, idx[..., None, :], axis=-2)[..., 0, :]
    signs = np.where(lead < 0.0, -1.0, 1.0)
    return L * signs[..., None, :]


def symmetrizer_eig(
    basis: PceBasis, h_bar: np.ndarray, u_bar: np.ndarray, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the flux Jacobian at the intermediate state
    (h_bar, P(h_bar) u_bar), returned as (T, Lambda) with J = T Lambda T^{-1}.

    Built from the symmetrizer: G = sqrt(g P(h)), the symmetric matrix D
    assembled from G, P(u) and g G^{-1} P(q) G^{-1} is diagonalized as
    D = L Lambda L^T, and T = R L with R the scaled eigenvector matrix
    (1/sqrt(2g)) [I, I; P(u)+G, P(u)-G].  T Lambda T^T is then the
    positive semi-definite Roe-type diffusion operator.
    """
    Ph, pi, Q = _p_eig(basis, h_bar)
    Qt = np.swapaxes(Q, -1, -2)
    sq = np.sqrt(g * pi)
    G = (Q * sq[..., None, :]) @ Qt
    Ginv = (Q / sq[..., None, :]) @ Qt

    Pu = p_operator(basis, u_bar)
    q_tilde = _mv(Ph, u_bar)
    Pq = p_operator(basis, q_tilde)
    C = g * (Ginv @ Pq @ Ginv)

    K = basis.K
    shape = u_bar.shape[:-1]
    D = np.empty(shape + (2 * K, 2 * K))
    D[..., :K, :K] = 0.5 * (2.0 * G + Pu + C)
    D[..., :K, K:] = 0.5 * (Pu - C)
    D[..., K:, :K] = 0.5 * (Pu - C)
    D[..., K:, K:] = 0.5 * (Pu + C - 2.0 * G)
    lam, L = sym_eig(D)
    L = _normalize_columns(L)

    R = np.empty_like(D)
    R[..., :K, :K] = np.eye(K)
    R[..., :K, K:] = np.eye(K)
    R[..., K:, :K] = Pu + G
    R[..., K:, K:] = Pu - G
    R /= np.sqrt(2.0 * g)
    return R @ L, lam


def project_bottom(B, basis: PceBasis, x_centers: np.ndarray) -> np.ndarray:
    """Project B(x, xi) onto the basis at each cell midpoint.

    Coefficients are (B_i)_k = sum_m w_m phi_k(xi_m) B(x_i, xi_m), shape
    (nx, K).  B is called once, on the (nx, 1) cell midpoints and the
    (1, n) quadrature nodes, so it must broadcast over (x, xi) like a numpy
    ufunc.
    """
    x_centers = np.asarray(x_centers, dtype=float)
    xi = basis.quad_nodes
    vals = np.asarray(B(x_centers[:, None], xi[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (x_centers.size, xi.size))
    return vals @ (basis.quad_weights[:, None] * basis.basis_table)
