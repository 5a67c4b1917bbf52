"""Total energy and the entropic variables.

Total energy E(U) = (kinetic + potential) acts as a strictly convex entropy
for the coefficient system as long as P(h) is SPD.  Both are batched over
leading axes, with one scalar per state for E and a 2K-vector per state for
V.  schemes.interface_flux takes V at the cells; the solver never
assembles the energy flux paired with E.
"""

from __future__ import annotations

import numpy as np

from .basis import p_operator
from .linalg import _mv

__all__ = ["energy"]


def _entropy_vars(basis, h, u, bottom, g):
    """V = (-P(u)u/2 + g(h + B); u) from height and velocity coefficients."""
    V1 = -0.5 * _mv(p_operator(basis, u), u) + g * (h + bottom)
    return np.concatenate([V1, u], axis=-1)


def energy(
    h: np.ndarray, q: np.ndarray, bottom: np.ndarray, g: float, u: np.ndarray
) -> np.ndarray:
    """E = (q.u + g |h|^2)/2 + g h.B, with u the velocity solved from (h, q)."""
    qu, hh, hB = (np.sum(a * b, axis=-1) for a, b in ((q, u), (h, h), (h, bottom)))
    return 0.5 * (qu + g * hh) + g * hB
