"""Orthonormal polynomial chaos basis for a uniform random variable on [-1, 1].

The basis functions are the orthonormal Legendre polynomials with respect to
the probability density rho(xi) = 1/2, so phi_1 = 1 and <phi_k, phi_l> =
delta_kl.  The module also builds the Gauss-Legendre quadrature used for all
stochastic integrals and the triple-product tensor that defines the quadratic
form operator P(.).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "PceBasis",
    "build_basis",
    "eval_basis",
    "p_operator",
    "mean_variance",
]

_ORTHO_TOL = 1e-13


def eval_basis(xi, K: int) -> np.ndarray:
    """Evaluate the K orthonormal Legendre basis functions at points xi.

    Returns an array of shape xi.shape + (K,) with column k holding
    phi_{k+1}(xi) = sqrt(2k+1) * P_k(xi).
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty(xi.shape + (K,))
    p_prev = np.ones_like(xi)
    out[..., 0] = p_prev
    if K == 1:
        return out
    p_cur = xi.copy()
    out[..., 1] = np.sqrt(3.0) * p_cur
    for n in range(2, K):
        # P_n = ((2n-1) x P_{n-1} - (n-1) P_{n-2}) / n
        p_next = ((2 * n - 1) * xi * p_cur - (n - 1) * p_prev) / n
        out[..., n] = np.sqrt(2 * n + 1) * p_next
        p_prev, p_cur = p_cur, p_next
    return out


@dataclass(frozen=True)
class PceBasis:
    """Immutable basis data: quadrature, evaluation table, triple tensor.

    quad_weights are probability-normalized (they sum to 1).  triple_tensor[k]
    is the symmetric K x K matrix M_k with (M_k)_{lm} = <phi_k, phi_l phi_m>.
    """

    K: int
    quad_nodes: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)
    basis_table: np.ndarray = field(repr=False)
    triple_tensor: np.ndarray = field(repr=False)


def build_basis(K: int) -> PceBasis:
    """Build the orthonormal Legendre PCE basis of dimension K.

    The 2K Gauss-Legendre nodes integrate degree 4K-1 exactly and therefore
    all triple products (degree <= 3K-3).
    """
    if K < 1:
        raise ConfigError(f"basis dimension K must be >= 1, got {K}")
    nodes, weights = np.polynomial.legendre.leggauss(2 * K)
    weights = weights / 2.0  # uniform density rho = 1/2 on [-1, 1]
    table = eval_basis(nodes, K)

    gram = table.T @ (weights[:, None] * table)
    resid = np.max(np.abs(gram - np.eye(K)))
    assert resid <= _ORTHO_TOL, f"basis orthonormality residual {resid:.3e}"

    triple = np.einsum("j,jk,jl,jm->klm", weights, table, table, table)
    # copy each entry from its index-sorted representative so permutation
    # symmetry holds exactly, not just up to einsum rounding
    idx = np.sort(np.stack(np.meshgrid(*(np.arange(K),) * 3, indexing="ij")), axis=0)
    triple = triple[idx[0], idx[1], idx[2]]
    return PceBasis(
        K=K,
        quad_nodes=nodes,
        quad_weights=weights,
        basis_table=table,
        triple_tensor=triple,
    )


def p_operator(basis: PceBasis, a: np.ndarray) -> np.ndarray:
    """Quadratic form matrix P(a) = sum_k a_k M_k.

    Accepts batched coefficients of shape (..., K) and returns (..., K, K).
    P is symmetric and linear in a, and P(a) b = P(b) a for all a, b.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != basis.K:
        raise ValueError(f"expected trailing dimension {basis.K}, got {a.shape}")
    return np.einsum("...k,klm->...lm", a, basis.triple_tensor)


def mean_variance(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the PCE surrogate: (c_1, sum_{k>=2} c_k^2).

    Operates on the trailing axis, so batched coefficient arrays work.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    mean = coeffs[..., 0]
    var = np.sum(coeffs[..., 1:] ** 2, axis=-1)
    return mean, var
