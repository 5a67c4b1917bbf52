"""Shared fixtures and random state helpers for the test suite."""

import numpy as np
import pytest

from sgswe.basis import build_basis
from sgswe.core import CellState
from sgswe.linalg import NotSPDError, sym_eig


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
    """Random state whose height surrogate is positive for every xi."""
    h = np.empty(K)
    h[0] = h_mean + 0.2 * rng.random()
    h[1:] = spread * rng.standard_normal(K - 1)
    q = q_scale * rng.standard_normal(K)
    return CellState(h=_cap_fluctuations(h), q=q)


def random_state_batch(rng, n, K, h_mean=1.5, spread=0.1, q_scale=0.3):
    h = np.empty((n, K))
    h[:, 0] = h_mean + 0.2 * rng.random(n)
    h[:, 1:] = spread * rng.standard_normal((n, K - 1))
    q = q_scale * rng.standard_normal((n, K))
    return CellState(h=_cap_fluctuations(h), q=q)


def spd_sqrt(A):
    """Symmetric positive definite square root G with G @ G = A."""
    eig = sym_eig(A)
    if np.any(eig.values <= 0.0):
        raise NotSPDError(
            f"matrix is not SPD (min eigenvalue {np.min(eig.values):.6e})"
        )
    root = eig.vectors * np.sqrt(eig.values)[..., None, :]
    return root @ np.swapaxes(eig.vectors, -1, -2)
