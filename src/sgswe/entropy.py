"""Energy, energy flux, entropic variables and the potential.

Total energy E(U) = (kinetic + potential) acts as a strictly convex entropy
for the coefficient system as long as P(h) is SPD.  Everything here is
batched over leading axes, with one scalar per state for E, H, Psi and a
2K-vector per state for V.  Pass bottom = 0 for the flat-bottom pair.
"""

from __future__ import annotations

import numpy as np

from .basis import PceBasis, p_operator
from .core import CellState, velocity
from .linalg import _dot, _mv

__all__ = [
    "energy",
    "energy_flux",
    "entropy_variables",
    "energy_potential",
]


def _resolve_u(basis, state, u):
    if u is None:
        vel, state = velocity(basis, state, 0.0)
        u = vel.u
    return u, state


def _entropy_vars(basis, h, u, bottom, g):
    """V = (-P(u)u/2 + g(h + B); u) from height and velocity coefficients."""
    V1 = -0.5 * _mv(p_operator(basis, u), u) + g * (h + bottom)
    return np.concatenate([V1, u], axis=-1)


def energy(
    basis: PceBasis,
    state: CellState,
    bottom: np.ndarray,
    g: float,
    u: np.ndarray | None = None,
) -> np.ndarray:
    """E = (q.u + g |h|^2)/2 + g h.B."""
    u, state = _resolve_u(basis, state, u)
    return 0.5 * (_dot(state.q, u) + g * _dot(state.h, state.h)) + g * _dot(
        state.h, bottom
    )


def energy_flux(
    basis: PceBasis,
    state: CellState,
    bottom: np.ndarray,
    g: float,
    u: np.ndarray | None = None,
) -> np.ndarray:
    """H = u^T P(q) u / 2 + g q.h + g q.B, the flux paired with E."""
    u, state = _resolve_u(basis, state, u)
    Pq = p_operator(basis, state.q)
    return 0.5 * _dot(u, _mv(Pq, u)) + g * _dot(state.q, state.h) + g * _dot(
        state.q, bottom
    )


def entropy_variables(
    basis: PceBasis,
    state: CellState,
    bottom: np.ndarray,
    g: float,
    u: np.ndarray | None = None,
) -> np.ndarray:
    """V = dE/dU = (-P(u)u/2 + g(h + B); u), shape (..., 2K)."""
    u, state = _resolve_u(basis, state, u)
    return _entropy_vars(basis, state.h, u, bottom, g)


def energy_potential(
    basis: PceBasis,
    state: CellState,
    g: float,
    u: np.ndarray | None = None,
) -> np.ndarray:
    """Psi = V.F - H = (g/2) u^T P(h) h; the bottom drops out."""
    u, state = _resolve_u(basis, state, u)
    return 0.5 * g * _dot(u, _mv(p_operator(basis, state.h), state.h))
