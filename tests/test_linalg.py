"""Batched symmetric eigen/SPD helpers."""

import numpy as np
import pytest

from sgswe.linalg import sym_eig

from conftest import NotSPDError, spd_solve, spd_sqrt


def _random_spd(rng, n, batch=()):
    A = rng.standard_normal(batch + (n, n))
    return A @ np.swapaxes(A, -1, -2) + n * np.eye(n)


def test_sym_eig_reconstructs():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 6, 6))
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    values, vectors = sym_eig(A)
    rec = (vectors * values[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    assert np.max(np.abs(rec - A)) <= 1e-12
    assert np.all(np.diff(values, axis=-1) >= -1e-14)


def test_sym_eig_orthogonal_vectors():
    rng = np.random.default_rng(1)
    A = _random_spd(rng, 7)
    _, vectors = sym_eig(A)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(7))) <= 1e-13


def test_spd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    A = _random_spd(rng, 6, batch=(4,))
    G = spd_sqrt(A)
    assert np.max(np.abs(G @ G - A)) <= 1e-10
    assert np.max(np.abs(G - np.swapaxes(G, -1, -2))) <= 1e-12


def test_spd_sqrt_rejects_indefinite():
    A = np.diag([1.0, -0.5, 2.0])
    with pytest.raises(NotSPDError):
        spd_sqrt(A)


def test_spd_solve_matches_direct():
    rng = np.random.default_rng(3)
    A = _random_spd(rng, 5, batch=(3,))
    b = rng.standard_normal((3, 5))
    x = spd_solve(A, b)
    assert np.max(np.abs(np.einsum("bij,bj->bi", A, x) - b)) <= 1e-10


def test_spd_solve_matrix_rhs():
    rng = np.random.default_rng(4)
    A = _random_spd(rng, 5)
    B = rng.standard_normal((5, 2))
    X = spd_solve(A, B)
    assert np.max(np.abs(A @ X - B)) <= 1e-10


def test_spd_solve_rejects_indefinite():
    with pytest.raises(NotSPDError):
        spd_solve(np.diag([1.0, -1.0]), np.ones(2))
