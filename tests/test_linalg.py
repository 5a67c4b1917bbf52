"""Batched symmetric eigen/SPD helpers."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import sgswe.linalg
from sgswe.linalg import _MIN_CHUNK, _run_starts, sym_eig

from conftest import NotSPDError, distinct_eyes, spd_solve, spd_sqrt


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


def _fill(n):
    """Fewest n x n matrices that fill one chunk."""
    return -(-_MIN_CHUNK // (n * n))


_EIGH = np.linalg.eigh


def _serial(A):
    return _EIGH(A)


def _assert_bitwise(A):
    (w, v), (ws, vs) = sym_eig(A), _serial(A)
    assert w.shape == ws.shape and v.shape == vs.shape
    assert w.tobytes() == ws.tobytes() and v.tobytes() == vs.tobytes()


_M8 = _fill(8)


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("batch", [_M8, 2 * _M8 - 1, 2 * _M8, 2 * _M8 + 1, 7 * _M8 + 3])
def test_chunked_sym_eig_is_bitwise(monkeypatch, pool, width, batch):
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", width)
    _assert_bitwise(np.random.default_rng(batch).standard_normal((batch, 8, 8)))
    chunks = min(width, batch // _M8)
    assert len(pool.sizes) == (chunks - 1 if chunks > 1 else 0)
    assert all(size >= _M8 for size in pool.sizes)


@pytest.mark.parametrize("K", [1, 5, 9, 18])
def test_chunked_sym_eig_is_bitwise_per_size(monkeypatch, pool, K):
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 2)
    rng = np.random.default_rng(K)
    n = 2 * _fill(K) + 7
    _assert_bitwise(rng.standard_normal((n, K, K)))
    _assert_bitwise(rng.standard_normal((n, 2, K, K)))
    _assert_bitwise(np.swapaxes(rng.standard_normal((2, n, K, K)), 0, 1))
    _assert_bitwise(rng.standard_normal((K, K)))
    assert len(pool.sizes) == 3


def test_chunked_sym_eig_raises_like_serial(monkeypatch, pool):
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 3)
    A = distinct_eyes(5, 3 * _fill(5))
    A[-1] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as serial:
        _serial(A)
    with pytest.raises(np.linalg.LinAlgError) as chunked:
        sym_eig(A)
    assert str(chunked.value) == str(serial.value)
    assert len(pool.sizes) == 2


@pytest.fixture
def solved(monkeypatch):
    """The number of matrices each np.linalg.eigh call receives."""
    sizes = []

    def counting(a):
        sizes.append(len(a))
        return _EIGH(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes


def _with_runs(rng, n, lengths):
    """Random n x n matrices, each repeated as often as lengths says."""
    return np.repeat(rng.standard_normal((len(lengths), n, n)), lengths, axis=0)


# sym_eig factorizes every matrix it is passed, repeats included; the callers
# in core, schemes and timestep drop repeated cells before building them.


@pytest.mark.parametrize("offset", [0, 1])
def test_sym_eig_run_at_a_chunk_boundary(monkeypatch, pool, solved, offset):
    # 2m + 9 matrices make two chunks, m + 5 and m + 4; the run of 9 equal
    # matrices straddles the boundary, and each side solves its copies
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 2)
    m = _fill(6)
    A = _with_runs(np.random.default_rng(40 + offset), 6, [1] * (m + offset) + [9] + [1] * (m - offset))
    _assert_bitwise(A)
    assert pool.sizes == [m + 4]
    assert sorted(solved) == [m + 4, m + 5]


def test_sym_eig_solves_signed_zeros_and_ulps_apart(solved):
    base = np.diag([2.0, 1.0, 3.0])
    neg = base.copy()
    neg[0, 1] = neg[1, 0] = -0.0
    ulp = base.copy()
    ulp[2, 2] = np.nextafter(3.0, 4.0)
    A = np.stack([base, neg, base, ulp, ulp])
    _assert_bitwise(A)
    assert solved == [5]


def test_run_starts_compares_bytes():
    # -0.0 starts a run of its own, NaN rows with one payload share one
    rows = np.array([[0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [np.nan, 1.0], [np.nan, 1.0],
                     [np.nan, np.nextafter(1.0, 2.0)]])
    assert _run_starts(rows).tolist() == [True, False, True, True, False, True]
    assert _run_starts(rows[:1]).tolist() == [True]
    assert _run_starts(rows[:0]).tolist() == []


def test_sym_eig_nan_run_raises_like_serial(solved):
    A = distinct_eyes(4, 12)
    A[3:7] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as serial:
        _serial(A)
    with pytest.raises(np.linalg.LinAlgError) as batched:
        sym_eig(A)
    assert str(batched.value) == str(serial.value)
    assert solved == [12]


def test_concurrent_callers_share_the_pool(monkeypatch):
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 2)
    rng = np.random.default_rng(7)
    batches = [rng.standard_normal((3 * _fill(6), 6, 6)) for _ in range(4)]
    expected = [_serial(A) for A in batches]
    mismatches = []

    def solve(i):
        for _ in range(10):
            w, v = sym_eig(batches[i])
            if w.tobytes() != expected[i][0].tobytes() or v.tobytes() != expected[i][1].tobytes():
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_import_starts_no_thread():
    code = "import threading, sgswe; print(threading.active_count())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "1"
