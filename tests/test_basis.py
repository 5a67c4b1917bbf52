"""Orthonormal basis, quadrature and triple-product tensor."""

import numpy as np
import pytest

from sgswe.basis import (
    PceBasis,
    build_basis,
    eval_basis,
    mean_variance,
    p_operator,
)
from sgswe.errors import ConfigError


def test_eval_basis_matches_closed_forms():
    xi = np.linspace(-1.0, 1.0, 41)
    table = eval_basis(xi, 4)
    expected = np.stack(
        [
            np.ones_like(xi),
            np.sqrt(3.0) * xi,
            np.sqrt(5.0) * 0.5 * (3.0 * xi**2 - 1.0),
            np.sqrt(7.0) * 0.5 * (5.0 * xi**3 - 3.0 * xi),
        ],
        axis=-1,
    )
    assert np.max(np.abs(table - expected)) <= 1e-13


def test_orthonormal_under_independent_quadrature():
    K = 7
    nodes, weights = np.polynomial.legendre.leggauss(40)
    weights = weights / 2.0  # density 1/2 on [-1, 1]
    table = eval_basis(nodes, K)
    gram = table.T @ (weights[:, None] * table)
    assert np.max(np.abs(gram - np.eye(K))) <= 1e-13


def test_build_basis_defaults():
    basis = build_basis(5)
    assert basis.K == 5
    assert basis.quad_nodes.size == 10
    assert basis.quad_weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(basis.quad_nodes) > 0)


def test_build_basis_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        build_basis(0)


def test_triple_tensor_first_slice_is_identity(basis4):
    assert np.max(np.abs(basis4.triple_tensor[0] - np.eye(4))) <= 1e-14


def test_triple_tensor_spot_value():
    # integral of phi_2^2 phi_3 with density 1/2 equals 2/sqrt(5)
    basis = build_basis(3)
    assert basis.triple_tensor[2, 1, 1] == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-14)
    assert basis.triple_tensor[1, 1, 2] == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-14)


def test_triple_tensor_fully_symmetric():
    basis = build_basis(6)
    t = basis.triple_tensor
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        assert np.array_equal(t, np.transpose(t, perm))


def test_triple_tensor_against_high_order_quadrature():
    K = 5
    basis = build_basis(K)
    nodes, weights = np.polynomial.legendre.leggauss(60)
    weights = weights / 2.0
    table = eval_basis(nodes, K)
    oracle = np.einsum("j,jk,jl,jm->klm", weights, table, table, table)
    assert np.max(np.abs(basis.triple_tensor - oracle)) <= 5e-13


def test_p_operator_commutes(basis4):
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        assert np.max(
            np.abs(p_operator(basis4, a) @ b - p_operator(basis4, b) @ a)
        ) <= 1e-13


def test_p_operator_batched_matches_loop():
    # bitwise: velocity copies one run's solve to all its cells
    rng = np.random.default_rng(5)
    for K in (1, 4, 5, 9):
        basis = build_basis(K)
        batch = rng.standard_normal((7, K))
        stacked = p_operator(basis, batch)
        for i in range(7):
            assert stacked[i].tobytes() == p_operator(basis, batch[i]).tobytes()


@pytest.mark.parametrize("K", range(1, 12))
def test_p_operator_is_bitwise_symmetric(K):
    # sym_eig factorizes P(h) as it is, reading only its lower triangle
    basis = build_basis(K)
    rng = np.random.default_rng(40 + K)
    for shape in [(1,), (403,), (3, 5)]:
        a = rng.standard_normal(shape + (K,)) * 10.0 ** rng.uniform(-8.0, 8.0, shape + (K,))
        P = p_operator(basis, a)
        assert P.tobytes() == np.swapaxes(P, -1, -2).copy().tobytes()


def test_p_operator_shape_mismatch(basis4):
    with pytest.raises(ValueError):
        p_operator(basis4, np.zeros(5))


def test_mean_variance_against_dense_sampling(basis4):
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(4)
    mean, var = mean_variance(coeffs)
    xi = np.linspace(-1.0, 1.0, 200001)
    vals = eval_basis(xi, 4) @ coeffs
    assert mean == pytest.approx(np.trapezoid(vals, xi) / 2.0, abs=1e-8)
    second = np.trapezoid(vals**2, xi) / 2.0
    assert var == pytest.approx(second - mean**2, abs=1e-7)
