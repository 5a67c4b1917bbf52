"""Well-balanced energy-conservative and energy-stable interface fluxes.

Three two-point schemes share one skeleton:

  EC   central flux whose discrete energy balance telescopes exactly,
  ES1  EC minus a full Roe-type diffusion T |Lambda| T^T [[V]],
  ES2  EC minus the same diffusion scaled per scaled-variable component by
       Pi in [0, 1], built from minmod ratios of neighboring jumps.

interface_flux evaluates that skeleton on any stack of cells and returns
the fluxes with the P(h_bar) the source reuses; semidiscrete_rhs runs it on
the ghost-padded grid and returns the right-hand side with its fluxes.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .basis import PceBasis, p_operator
from .core import GHOST_MODES, Field, Velocity, _cells_named, symmetrizer_eig
from .entropy import _entropy_vars
from .linalg import _mtv, _mv

__all__ = [
    "SchemeKind",
    "interface_flux",
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


def _es2_pi(wj_prev, wj_mid, wj_next, w_left, w_right):
    """Componentwise diffusion scaling Pi = 1 - phi(th-)/2 - phi(th+)/2,
    with phi(theta) = clip(theta, 0, 1) the minmod limiter.

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
    return 1.0 - 0.5 * np.clip(theta_minus, 0.0, 1.0) - 0.5 * np.clip(theta_plus, 0.0, 1.0)


def interface_flux(
    basis: PceBasis,
    h: np.ndarray,
    u: np.ndarray,
    B: np.ndarray,
    scheme: SchemeKind,
    g: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fluxes at the n-1 interfaces of cells stacked along axis -2.

    h, u, B are height, velocity and bottom coefficients of shape
    (..., n, K); interface j sits between cells j and j+1.  Returns the
    total flux, diffusion included, of shape (..., n-1, 2K) and P(h_bar),
    which the well-balanced source reuses, of shape (..., n-1, K, K).
    The flux is

      F = (P(h_bar) u_bar ; (g/2) avg(P(h) h) + P(u_bar) P(h_bar) u_bar)
          - diff / 2,   diff = T |Lambda| Pi T^T [[V]],

    with (T, Lambda) the symmetrizer at (h_bar, u_bar), Pi = 0 for EC and
    Pi = 1 for ES1.  ES2 limits only interfaces that have a neighbour on
    each side; the outermost two keep Pi = 1.

    Where V_L == V_R the same T maps equal values, so T^T [[V]] is 0 and
    diff is +-0: the ES flux there is the EC flux bit for bit, but for
    the sign of a zero component.
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
        T, lam = symmetrizer_eig(basis, h_bar, u_bar, g)
        w_left, w_right = _mtv(T, V[..., :-1, :]), _mtv(T, V[..., 1:, :])
        wjump = w_right - w_left
        weight = np.abs(lam)
        if scheme is SchemeKind.ES2:
            weight[..., 1:-1, :] *= _es2_pi(
                wjump[..., :-2, :],
                wjump[..., 1:-1, :],
                wjump[..., 2:, :],
                w_left[..., 1:-1, :],
                w_right[..., 1:-1, :],
            )
        F = F - 0.5 * _mv(T, weight * wjump)
    return F, Ph_bar


def semidiscrete_rhs(
    basis: PceBasis, solved: tuple[Velocity, Field], scheme: SchemeKind, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """Finite volume right-hand side dU_i/dt = -(F_+ - F_-)/dx + S_i, of
    shape (nx, 2K), and the nx+1 interior interface fluxes (total,
    diffusion included) it differences, of shape (nx+1, 2K).

    solved is velocity(basis, field): the velocity of the interior cells
    and the field it was solved from.  np.take maps the cell indices
    -2 .. nx+1, two ghost layers per side, to interior cells in the
    GHOST_MODES mode of field.ghost_policy.
    The well-balanced source has a zero height block and S_q = -(g / 2 dx)
    (P(h_bar+) [[B]]+ + P(h_bar-) [[B]]-) over the right (+) and left (-)
    interfaces of the cell.

    interface_flux runs on the padded cells from one before the first
    interface between two of velocity's runs (vel.runs) to two after the
    last.  (h, u, B) are copies within a run, so an interface outside lies
    between equal cells, [[V]] = 0 there and it copies the window's edge.
    """
    vel, field = solved
    nx = field.nx
    cells = np.take(np.arange(nx), np.arange(-2, nx + 2), mode=GHOST_MODES[field.ghost_policy])
    jumps = np.flatnonzero(np.diff(np.cumsum(vel.runs)[cells]))
    lo, hi = (max(jumps[0] - 1, 0), min(jumps[-1] + 2, nx + 3)) if jumps.size else (0, 1)
    h, u, B = (a[cells[lo : hi + 1]] for a in (field.h, vel.u, field.bottom))
    with _cells_named(cells[lo:]):  # window interface j lies right of cell cells[lo + j]
        flux, Ph_bar = interface_flux(basis, h, u, B, scheme, g)

    # padded interface j sits between padded cells j and j+1; the interior
    # interfaces are j = 1 .. nx+1
    take = np.clip(np.arange(1, nx + 2), lo, hi - 1) - lo
    fluxes = flux[take]
    PhjB = _mv(Ph_bar, B[1:] - B[:-1])[take]
    Sq = -(0.5 * g / field.dx) * (PhjB[1:] + PhjB[:-1])
    rhs = -(fluxes[1:] - fluxes[:-1]) / field.dx
    rhs[:, basis.K :] += Sq

    return rhs, fluxes
