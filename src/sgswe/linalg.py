"""Dense symmetric eigensolver and batched products.

All inputs are symmetrized as (A + A^T)/2 before factorization so that
accumulated rounding in assembled P(.) products cannot trip the solver.
Every function accepts stacked operands with shape (..., n, n).
"""

from __future__ import annotations

import numpy as np

__all__ = ["sym_eig"]


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product for (..., n, n) @ (..., n)."""
    return np.einsum("...ij,...j->...i", A, x)


def _mtv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched transposed product A^T x for (..., n, n) and (..., n)."""
    return np.einsum("...ji,...j->...i", A, x)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched inner product over the trailing axis."""
    return np.sum(a * b, axis=-1)


def _symmetrize(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def sym_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = vectors @ diag(values) @ vectors^T of a
    symmetric matrix as (values, vectors), eigenvalues ascending."""
    return np.linalg.eigh(_symmetrize(A))
