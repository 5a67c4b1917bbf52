"""Dense symmetric eigen/SPD kernels and batched products.

All inputs are symmetrized as (A + A^T)/2 before factorization so that
accumulated rounding in assembled P(.) products cannot trip the solver.
Every function accepts stacked operands with shape (..., n, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SymEig", "NotSPDError", "sym_eig", "spd_solve"]


class NotSPDError(np.linalg.LinAlgError):
    """Matrix expected to be SPD has a non-positive eigenvalue."""


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition A = vectors @ diag(values) @ vectors^T."""

    values: np.ndarray = field(repr=False)  # (..., n), ascending
    vectors: np.ndarray = field(repr=False)  # (..., n, n), orthogonal


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product for (..., n, n) @ (..., n)."""
    return np.einsum("...ij,...j->...i", A, x)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched inner product over the trailing axis."""
    return np.sum(a * b, axis=-1)


def _symmetrize(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def sym_eig(A: np.ndarray) -> SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    values, vectors = np.linalg.eigh(_symmetrize(A))
    return SymEig(values=values, vectors=vectors)


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for SPD A; raises NotSPDError if A is not SPD.

    b may be a vector (..., n) or a stack of right-hand sides (..., n, k).
    """
    A = _symmetrize(A)
    try:
        np.linalg.cholesky(A)  # SPD gate; cheap at the sizes used here
    except np.linalg.LinAlgError as exc:
        raise NotSPDError("matrix is not SPD") from exc
    b = np.asarray(b, dtype=float)
    if b.ndim == A.ndim - 1:
        return np.linalg.solve(A, b[..., None])[..., 0]
    return np.linalg.solve(A, b)
