"""Dense symmetric eigensolver and batched products.

sym_eig factorizes its input as it is: every P(a) is bitwise symmetric
(build_basis), and symmetrizer_eig symmetrizes its D block by block.
Every function accepts stacked operands with shape (..., n, n).

sym_eig factorizes every matrix it is passed.  Only core calls it, and the
step drops repeated cells first, by the _run_starts runs velocity finds.

The batch is split into contiguous chunks, one per CPU of the process's
affinity mask: the calling thread solves the first chunk and a thread pool
the others.  LAPACK factorizes each matrix on its own, so both
steps give results bitwise equal to one serial np.linalg.eigh of the whole
batch.  Limit the CPUs with the affinity mask (``taskset``).
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = ["sym_eig"]

# Fewest matrix entries a chunk holds.  A solve costs about 0.12 us per
# entry for n >= 2 and a hand-off to the pool about 60 us (2-vCPU x86 host,
# OpenBLAS 0.3.31), so a smaller chunk gains too little to pay for it.
_MIN_CHUNK = 2048
_WIDTH = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The solver thread pool, created on first use so that importing
    sgswe starts no thread.  concurrent.futures is imported here too: it
    adds about 5 ms to every process start."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, _WIDTH - 1), thread_name_prefix="sgswe-eigh")
        return _pool


def _forget_pool():
    """A forked child has none of the parent's pool threads; work queued on
    the inherited pool would wait forever, so the child starts its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product for (..., n, n) @ (..., n)."""
    return np.einsum("...ij,...j->...i", A, x)


def _mtv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched transposed product A^T x for (..., n, n) and (..., n)."""
    return np.einsum("...ji,...j->...i", A, x)


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """True at row 0 of an (N, m) float array and at each row whose bytes differ
    from the row before; == would merge -0.0 with 0.0 and split a NaN run."""
    bits, new = rows.view(np.int64), np.ones(len(rows), dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
    return new


def sym_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = vectors @ diag(values) @ vectors^T of a
    symmetric matrix (eigh reads only its lower triangle) as (values,
    vectors), eigenvalues ascending."""
    chunks = min(_WIDTH, A.size // _MIN_CHUNK)
    if chunks < 2:
        return np.linalg.eigh(A)
    first, *rest = np.array_split(A.reshape(-1, *A.shape[-2:]), chunks)
    pool = _executor()
    futures = [pool.submit(np.linalg.eigh, part) for part in rest]
    try:
        solved = [np.linalg.eigh(first)]
    finally:
        for f in futures:
            f.exception()  # waits, so no chunk is still running when an error propagates
    solved += [f.result() for f in futures]
    values, vectors = (np.concatenate(parts) for parts in zip(*solved))
    return values.reshape(A.shape[:-1]), vectors.reshape(A.shape)
