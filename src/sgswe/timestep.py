"""Positivity-aware adaptive SSP-RK3 time integration.

Each Shu-Osher stage is an Euler step, so keeping dt below the positivity
bound lambda of every stage state keeps all node heights positive.  lambda
is recomputed per stage; if a stage reveals a tighter bound than the dt in
flight, the whole step restarts from the accepted state with dt shrunk to
0.9 of that bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import PceBasis
from .core import Field, Velocity, symmetrizer_eig, velocity
from .entropy import energy
from .errors import BlowUpError, DtUnderflowError, SolverError
from .linalg import _mv
from .schemes import RhsResult, SchemeKind, semidiscrete_rhs

__all__ = [
    "positivity_lambda",
    "cfl_dt",
    "total_energy",
    "StepResult",
    "StepRecord",
    "ssp_rk3_step",
    "integrate",
]

# Accepted dt below this fraction of the horizon aborts the run.
_DT_FLOOR_FRAC = 1e-14


def positivity_lambda(
    basis: PceBasis, node_h: np.ndarray, fluxes: np.ndarray, dx: float
) -> float:
    """Largest Euler step that keeps all node heights nonnegative.

    lambda = min over cells i and nodes m of |dx h_i(xi_m) / (F+ - F-)(xi_m)|
    evaluated on the height block of the interface fluxes; vanishing flux
    differences contribute +inf.  node_h is Velocity.node_h, checked positive.
    """
    node_F = fluxes[:, : basis.K] @ basis.basis_table.T
    dF = node_F[1:] - node_F[:-1]
    ratio = np.where(dF != 0.0, np.abs(dx * node_h / np.where(dF == 0.0, 1.0, dF)), np.inf)
    return float(ratio.min())


def _speed_bound(basis: PceBasis, vel: Velocity, g: float) -> np.ndarray:
    """Upper bound on each cell's flux-Jacobian spectral radius, from the
    velocity solve vel and its positive node heights vel.node_h.

    With the 2K Gauss nodes of build_basis, P(a) = A^T diag(a(xi_m)) A with
    A^T A = I, so the spectrum of P(a) lies between a's node values.  D of
    symmetrizer_eig is orthogonally similar to [[P(u), G], [G, C]] with
    G = sqrt(g P(h)), C = P(h)^(-1/2) P(q~) P(h)^(-1/2) and q~ = P(h) u, and
    the norms of its blocks are at most a = max|u(xi_m)|,
    c = sqrt(g max h(xi_m)) and w = max|q~(xi_m) / h(xi_m)|.  The bound is
    the norm of [[a, c], [c, w]].  For K = 1 it is |u| + sqrt(g h).
    """
    table = basis.basis_table
    node_q = _mv(vel.Ph, vel.u) @ table.T
    a = np.max(np.abs(vel.u @ table.T), axis=-1)
    c = np.sqrt(g * np.max(vel.node_h, axis=-1))
    w = np.max(np.abs(node_q / vel.node_h), axis=-1)
    return 0.5 * (a + w) + np.sqrt((0.5 * (a - w)) ** 2 + c**2)


def cfl_dt(basis: PceBasis, solved: tuple[Velocity, Field], g: float, cfl: float) -> float:
    """dt = cfl dx / max spectral radius of the flux Jacobian over the cells
    of solved = velocity(basis, field).

    Only the cells that can hold the maximum are solved.  _speed_bound
    bounds each cell's radius from above by node values.  The cell with the
    largest bound is solved first; its radius r is at most the maximum, so
    a cell whose bound is below (1 - 1e-12) r cannot set dt.  The slack
    absorbs the bound's rounding, so every cell holding the maximum stays,
    as does every cell whose bound is not finite.  The others left, one per
    run of velocity's solve (vel.runs; its (h, u) rows are copies), go to a
    second symmetrizer_eig call if any.  A cell's eigenvalues do not depend
    on the rest of the batch, so dt is bitwise the dt of solving every cell.
    """
    vel, field = solved

    def radius(cells) -> float:
        return np.max(np.abs(symmetrizer_eig(basis, field.h[cells], vel.u[cells], g)[1]))

    upper = _speed_bound(basis, vel, g)
    top = np.argmax(upper)
    r = radius([top])
    keep = ~(upper < (1.0 - 1e-12) * r) & vel.runs
    keep[top] = False
    return cfl * field.dx / float(np.maximum(r, radius(keep)) if keep.any() else r)


def total_energy(solved: tuple[Velocity, Field], g: float) -> float:
    """dx-weighted sum of cell energies of solved = velocity(basis, field)."""
    vel, field = solved
    e = energy(field.h, field.q, field.bottom, g, vel.u)
    return field.dx * float(np.sum(e))


def _check_finite(h: np.ndarray, q: np.ndarray, t: float):
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(q))):
        raise BlowUpError("non-finite state encountered", t=t)


@dataclass(frozen=True)
class StepResult:
    field: Field
    t: float
    dt: float
    lam: float
    restarts: int


@dataclass(frozen=True)
class StepRecord:
    """Per accepted step diagnostics; restarts counts cumulatively."""

    t: float
    dt: float
    lam: float
    restarts: int
    energy: float
    min_node_height: float


def _shu_osher_stage(r0: RhsResult, r: RhsResult, dt: float, k: int) -> Field:
    """State after stage k = 0, 1, 2 of Shu-Osher SSP-RK3: an Euler step of
    size dt from r's state, blended with the step's start state r0.field."""
    K = r.rhs.shape[1] // 2
    h = r.field.h + dt * r.rhs[:, :K]
    q = r.field.q + dt * r.rhs[:, K:]
    if k == 1:
        h, q = 0.75 * r0.field.h + 0.25 * h, 0.75 * r0.field.q + 0.25 * q
    elif k == 2:
        h, q = r0.field.h / 3.0 + (2.0 / 3.0) * h, r0.field.q / 3.0 + (2.0 / 3.0) * q
    return replace(r.field, h=h, q=q)


def ssp_rk3_step(
    basis: PceBasis,
    solved: tuple[Velocity, Field],
    scheme: SchemeKind,
    g: float,
    cfl: float,
    t: float,
    t_final: float,
    t_target: float,
) -> StepResult:
    """One adaptive SSP-RK3 step from time t and the state solved =
    velocity(basis, field), which stage 0 and the CFL bound use.

    dt starts at min(CFL bound, 0.9 lambda, clamp to t_target); stages that
    expose a smaller lambda shrink dt and restart the step.  Raises
    DtUnderflowError once dt falls below 1e-14 t_final, BlowUpError on
    non-finite states, and lets positivity/hyperbolicity errors propagate.
    """
    field = solved[1]
    _check_finite(field.h, field.q, t)
    r0 = semidiscrete_rhs(basis, solved, scheme, g)
    lam0 = positivity_lambda(basis, solved[0].node_h, r0.fluxes, field.dx)
    dt = min(cfl_dt(basis, solved, g, cfl), 0.9 * lam0, t_target - t)
    floor = _DT_FLOOR_FRAC * t_final
    restarts = 0

    while True:
        if dt < floor:
            raise DtUnderflowError(
                f"dt {dt:.3e} fell below {floor:.3e}", t=t, dt=dt
            )
        r = r0
        for k in range(3):
            stage = _shu_osher_stage(r0, r, dt, k)
            _check_finite(stage.h, stage.q, t)
            if k == 2:
                return StepResult(field=stage, t=t + dt, dt=dt, lam=lam0, restarts=restarts)
            solved = velocity(basis, stage)
            r = semidiscrete_rhs(basis, solved, scheme, g)
            lam = positivity_lambda(basis, solved[0].node_h, r.fluxes, field.dx)
            if 0.9 * lam < dt:
                dt = 0.9 * lam
                restarts += 1
                break


def integrate(
    basis: PceBasis,
    field: Field,
    scheme: SchemeKind,
    g: float,
    cfl: float,
    t_final: float,
    snapshot_times: tuple[float, ...] = (),
    on_snapshot=None,
    records: list | None = None,
) -> tuple[Field, list[StepRecord]]:
    """March to t_final, clamping steps onto snapshot times.

    on_snapshot(t, field) fires exactly at each requested time (including 0
    or t_final when listed); a time within 1e-12 max(1, t_final) of 0 fires
    with the initial field.  Returns the final field and one StepRecord per
    accepted step, plus the initial record at t = 0.  Passing a records list
    makes it fill in place, so partial histories survive mid-run failures.
    Each accepted state's velocity is solved once: the solve gives the
    record's energy and is the next step's stage-0 velocity.  A non-finite
    initial field raises BlowUpError at t = 0.  A SolverError raised with no
    t gets the time of the state its step or record started from.
    """
    if not 0.0 < t_final < np.inf:
        raise ValueError(f"t_final must be finite and positive, got {t_final}")
    for ts in snapshot_times:
        if not 0.0 <= ts <= t_final:
            raise ValueError(f"snapshot time {ts} outside [0, {t_final}]")
    wanted = set(float(ts) for ts in snapshot_times)
    targets = sorted(wanted | {float(t_final)})
    tol = 1e-12 * max(1.0, t_final)

    t = 0.0
    restarts_total = 0
    if records is None:
        records = []

    def record(field, t, dt, lam, restarts):
        """Append field's StepRecord and return its velocity solve."""
        solved = velocity(basis, field)
        e_total = total_energy(solved, g)
        records.append(StepRecord(t, dt, lam, restarts, e_total, float(solved[0].node_h.min())))
        return solved

    try:
        _check_finite(field.h, field.q, 0.0)  # before velocity's solve can fail on it
        solved = record(field, 0.0, 0.0, np.inf, 0)
        for ts in targets:
            if ts <= tol and ts in wanted and on_snapshot is not None:
                on_snapshot(ts, field)
        targets = [ts for ts in targets if ts > tol]

        while targets:
            target = targets[0]
            step = ssp_rk3_step(basis, solved, scheme, g, cfl, t, t_final, target)
            field, t = step.field, step.t
            restarts_total += step.restarts
            if t >= target - tol:
                t = target
                if on_snapshot is not None and target in wanted:
                    on_snapshot(target, field)
                targets.pop(0)
            solved = record(field, t, step.dt, step.lam, restarts_total)
    except SolverError as exc:
        if exc.t is None:
            exc.t = t
        raise
    return field, records
