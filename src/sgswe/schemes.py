"""Well-balanced energy-conservative and energy-stable interface fluxes.

Three two-point schemes share one skeleton:

  EC   central flux whose discrete energy balance telescopes exactly,
  ES1  EC minus a full Roe-type diffusion T |Lambda| T^T [[V]],
  ES2  EC minus the same diffusion scaled per scaled-variable component by
       Pi in [0, 1], built from minmod ratios of neighboring jumps.

interface_flux evaluates that skeleton on any stack of cells;
semidiscrete_rhs runs it on the ghost-padded grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import PceBasis, p_operator
from .core import Field, Velocity, pad_ghosts, symmetrizer_eig
from .entropy import _entropy_vars
from .linalg import _mtv, _mv

__all__ = [
    "SchemeKind",
    "minmod_phi",
    "InterfaceFlux",
    "interface_flux",
    "RhsResult",
    "semidiscrete_rhs",
]

# Relative floor under which a scaled-variable jump counts as zero when it
# appears as a minmod denominator.
_THETA_GUARD = 1e-14


class SchemeKind(str, Enum):
    EC = "ec"
    ES1 = "es1"
    ES2 = "es2"

    @classmethod
    def from_string(cls, name: str) -> "SchemeKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown scheme {name!r}; expected ec, es1 or es2") from None


def minmod_phi(theta: np.ndarray) -> np.ndarray:
    """Minmod limiter phi(theta) = clip(theta, 0, 1)."""
    return np.clip(theta, 0.0, 1.0)


def _es2_pi(wj_prev, wj_mid, wj_next, w_left, w_right):
    """Componentwise diffusion scaling Pi = 1 - phi(th-)/2 - phi(th+)/2.

    th+ compares the upwind jump wj_prev to wj_mid, th- the downwind jump
    wj_next to wj_mid.  Denominator components below _THETA_GUARD relative
    to the one-sided scaled variables are treated as phi = 0 (full
    diffusion), which keeps flat regions free of 0/0.
    """
    scale = (
        np.max(np.abs(w_left), axis=-1) + np.max(np.abs(w_right), axis=-1)
    )[..., None]
    small = np.abs(wj_mid) <= _THETA_GUARD * scale
    safe = np.where(small, 1.0, wj_mid)
    theta_plus = np.where(small, 0.0, wj_prev / safe)
    theta_minus = np.where(small, 0.0, wj_next / safe)
    return 1.0 - 0.5 * minmod_phi(theta_minus) - 0.5 * minmod_phi(theta_plus)


@dataclass(frozen=True)
class InterfaceFlux:
    """Interface quantities of a stack of n cells.

    flux (..., n-1, 2K) is the total flux, diffusion included; Ph_bar
    (..., n-1, K, K) is P(h_bar), which the well-balanced source reuses.
    """

    flux: np.ndarray
    Ph_bar: np.ndarray


def interface_flux(
    basis: PceBasis,
    h: np.ndarray,
    u: np.ndarray,
    B: np.ndarray,
    scheme: SchemeKind,
    g: float,
) -> InterfaceFlux:
    """Fluxes at the n-1 interfaces of cells stacked along axis -2.

    h, u, B are height, velocity and bottom coefficients of shape
    (..., n, K); interface j sits between cells j and j+1.  The flux is

      F = (P(h_bar) u_bar ; (g/2) avg(P(h) h) + P(u_bar) P(h_bar) u_bar)
          - diff / 2,   diff = T |Lambda| Pi T^T [[V]],

    with (T, Lambda) the symmetrizer at (h_bar, u_bar), Pi = 0 for EC and
    Pi = 1 for ES1.  ES2 limits only interfaces that have a neighbour on
    each side; the outermost two keep Pi = 1.

    diff is evaluated only at the active interfaces, those with
    V_L != V_R; a still far field or a lake at rest has none.  This is
    exact: with V_L == V_R the same T maps equal values, so T^T [[V]] and
    diff are 0 at that interface, and ES2's neighbour ratios read the same
    0 from the zero-filled jumps.  NaN compares unequal, so a non-finite
    state stays active and still reaches the solver.  The P(h_bar)
    definiteness check of symmetrizer_eig therefore runs only at active
    interfaces; every cell's P(h) is still checked in core.velocity.
    """
    Phh = _mv(p_operator(basis, h), h)
    h_bar = 0.5 * (h[..., :-1, :] + h[..., 1:, :])
    u_bar = 0.5 * (u[..., :-1, :] + u[..., 1:, :])
    Ph_bar = p_operator(basis, h_bar)
    Fh = _mv(Ph_bar, u_bar)
    Fq = 0.25 * g * (Phh[..., :-1, :] + Phh[..., 1:, :]) + _mv(p_operator(basis, u_bar), Fh)
    F = np.concatenate([Fh, Fq], axis=-1)

    if scheme is not SchemeKind.EC:
        V = _entropy_vars(basis, h, u, B, g)
        V_left, V_right = V[..., :-1, :], V[..., 1:, :]
        act = np.any(V_right != V_left, axis=-1)
        T, lam = symmetrizer_eig(basis, h_bar[act], u_bar[act], g)
        w_left, w_right = np.zeros_like(F), np.zeros_like(F)
        w_left[act], w_right[act] = _mtv(T, V_left[act]), _mtv(T, V_right[act])
        wjump = w_right - w_left
        weight = np.abs(lam)
        if scheme is SchemeKind.ES2:
            Pi = np.ones_like(wjump)
            Pi[..., 1:-1, :] = _es2_pi(
                wjump[..., :-2, :],
                wjump[..., 1:-1, :],
                wjump[..., 2:, :],
                w_left[..., 1:-1, :],
                w_right[..., 1:-1, :],
            )
            weight = weight * Pi[act]
        F[act] -= 0.5 * _mv(T, weight * wjump[act])
    return InterfaceFlux(flux=F, Ph_bar=Ph_bar)


@dataclass(frozen=True)
class RhsResult:
    """Semidiscrete right-hand side with the stage state it was built from.

    fluxes holds the nx+1 interior interface fluxes (total, diffusion
    included).  field is the solved field, whose discharge carries any
    desingularization recompute; time integrators must advance this state.
    """

    rhs: np.ndarray
    fluxes: np.ndarray
    field: Field


def semidiscrete_rhs(
    basis: PceBasis, solved: tuple[Velocity, Field], scheme: SchemeKind, g: float
) -> RhsResult:
    """Finite volume right-hand side dU_i/dt = -(F_+ - F_-)/dx + S_i.

    solved is velocity(basis, field): the velocity of the interior cells
    and the field it was solved from.  h, u and B get two ghost layers per
    side following field.ghost_policy.  The well-balanced source has a zero
    height block and
    S_q = -(g / 2 dx) (P(h_bar+) [[B]]+ + P(h_bar-) [[B]]-) over the right
    (+) and left (-) interfaces of the cell.
    """
    vel, field = solved
    nx = field.nx
    hp, up, Bp = (pad_ghosts(a, field.ghost_policy) for a in (field.h, vel.u, field.bottom))
    k = interface_flux(basis, hp, up, Bp, scheme, g)

    # padded interface j sits between padded cells j and j+1; the interior
    # interfaces are j = 1 .. nx+1
    fluxes = k.flux[1 : nx + 2]
    PhjB = _mv(k.Ph_bar, Bp[1:] - Bp[:-1])
    Sq = -(0.5 * g / field.dx) * (PhjB[2 : nx + 2] + PhjB[1 : nx + 1])
    rhs = -(fluxes[1:] - fluxes[:-1]) / field.dx
    rhs[:, basis.K :] += Sq

    return RhsResult(rhs=rhs, fluxes=fluxes, field=field)
