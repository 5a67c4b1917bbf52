"""Positivity bound, CFL step, adaptive SSP-RK3 and the driver."""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgswe.core
import sgswe.linalg
import sgswe.timestep
from sgswe.basis import build_basis, p_operator
from sgswe.cli import SolverConfig, build_experiment
from sgswe.core import Field, positivity_check, symmetrizer_eig, velocity
from sgswe.errors import BlowUpError, DtUnderflowError, PositivityError
from sgswe.schemes import SchemeKind, semidiscrete_rhs
from sgswe.timestep import (
    _speed_bound,
    cfl_dt,
    integrate,
    positivity_lambda,
    ssp_rk3_step,
    total_energy,
)

from conftest import (
    CountingPool,
    distinct_eyes,
    random_state_batch,
    rhs_every_interface,
    velocity_every_cell,
)


def _sine_field(basis, nx, amp=0.1, policy="periodic"):
    K = basis.K
    dx = 1.0 / nx
    x = dx * (np.arange(nx) + 0.5)
    h = np.zeros((nx, K))
    h[:, 0] = 1.0 + amp * np.sin(2.0 * np.pi * x)
    if K > 1:
        h[:, 1] = 0.02 * amp * np.cos(2.0 * np.pi * x)
    return Field(h=h, q=np.zeros((nx, K)), bottom=np.zeros((nx, K)), dx=dx,
                 x_left=0.0, ghost_policy=policy)


def _dam_break_field(basis, nx):
    K = basis.K
    dx = 1.0 / nx
    left = np.arange(nx) < nx // 2
    h = np.zeros((nx, K))
    h[:, 0] = np.where(left, 1.0, 0.5)
    h[:, 1] = np.where(left, 0.05, 0.0)
    return Field(h=h, q=np.zeros((nx, K)), bottom=np.zeros((nx, K)), dx=dx, x_left=0.0)


def _lake_field(basis, nx):
    K = basis.K
    dx = 1.0 / nx
    x = dx * (np.arange(nx) + 0.5)
    B = np.zeros((nx, K))
    B[:, 0] = 0.2 + 0.1 * np.sin(2.0 * np.pi * x)
    if K > 1:
        B[:, 1] = 0.05
    h = -B.copy()
    h[:, 0] += 1.5
    return Field(h=h, q=np.zeros((nx, K)), bottom=B, dx=dx, x_left=0.0)


def test_positivity_check_reports_first_violation():
    basis = build_basis(2)
    h = np.array([[1.0, 0.0], [1.0, 0.9]])  # second cell dips negative at node 0
    with pytest.raises(PositivityError) as err:
        positivity_check(basis, h)
    assert (err.value.cell, err.value.node) == (1, 0)
    with pytest.raises(PositivityError) as err:
        positivity_check(basis, np.array([[1.0, 0.0], [np.nan, 0.0]]))
    assert (err.value.cell, err.value.node) == (1, 0)
    wet = np.array([[1.0, 0.0], [1.0, 0.5]])
    np.testing.assert_array_equal(positivity_check(basis, wet), wet @ basis.basis_table.T)


def test_positivity_lambda_single_cell_value():
    # K = 1: one cell with h = 1, flux difference 2, dx = 0.5 gives 0.25
    basis = build_basis(1)
    node_h = positivity_check(basis, np.array([[1.0]]))
    fluxes = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert positivity_lambda(basis, node_h, fluxes, 0.5) == pytest.approx(0.25, rel=1e-14)


def test_positivity_lambda_zero_difference_is_unbounded():
    basis = build_basis(1)
    node_h = positivity_check(basis, np.array([[1.0]]))
    fluxes = np.array([[3.0, 0.0], [3.0, 0.0]])
    assert positivity_lambda(basis, node_h, fluxes, 0.5) == np.inf


def test_cfl_dt_still_water_value():
    # K = 1, h = 1, u = 0, g = 1: wave speeds +-1, dt = cfl dx
    basis = build_basis(1)
    fld = Field(h=np.ones((8, 1)), q=np.zeros((8, 1)), bottom=np.zeros((8, 1)),
                dx=0.01, x_left=0.0)
    assert cfl_dt(basis, velocity(basis, fld), 1.0, 0.45) == pytest.approx(0.0045, rel=1e-12)


def test_lake_at_rest_is_a_fixed_point():
    basis = build_basis(3)
    fld = _lake_field(basis, 24)
    step = ssp_rk3_step(basis, velocity(basis, fld), SchemeKind.ES2, 1.0, 0.45, 0.0, 1.0, 1.0)
    assert np.max(np.abs(step.field.h - fld.h)) <= 1e-12
    assert np.max(np.abs(step.field.q)) <= 1e-12
    assert step.restarts == 0


def test_rk3_fixed_third_order_in_time():
    basis = build_basis(2)
    fld = _sine_field(basis, 32)
    dt0 = 0.002
    T = 0.064

    def march(n):
        # cfl = inf lifts the CFL bound, so the targets T k / n set every dt
        out, t = fld, 0.0
        for k in range(1, n + 1):
            solved = velocity(basis, out)
            step = ssp_rk3_step(basis, solved, SchemeKind.EC, 1.0, np.inf, t, T, T * k / n)
            assert step.restarts == 0
            out, t = step.field, step.t
        return out

    # reference with a much smaller step
    ref = march(16 * int(T / dt0))
    errs = []
    for refine in (1, 2, 4):
        out = march(refine * int(T / dt0))
        errs.append(np.max(np.abs(out.h - ref.h)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 2.5), orders


def test_adaptive_step_respects_cfl_and_positivity():
    basis = build_basis(3)
    fld = _sine_field(basis, 32)
    solved = velocity(basis, fld)
    step = ssp_rk3_step(basis, solved, SchemeKind.ES2, 1.0, 0.45, 0.0, 1.0, 1.0)
    assert step.dt <= cfl_dt(basis, solved, 1.0, 0.45) + 1e-15
    assert step.dt <= 0.9 * step.lam
    positivity_check(basis, step.field.h)  # raises on a node height <= 0


def test_step_clamps_to_target():
    basis = build_basis(2)
    fld = _sine_field(basis, 16)
    target = 1e-4
    step = ssp_rk3_step(basis, velocity(basis, fld), SchemeKind.EC, 1.0, 0.45, 0.0, 1.0, target)
    assert step.t == pytest.approx(target, abs=1e-18)


def _shu_osher_by_hand(basis, fld, scheme, g, dt):
    """One SSP-RK3 step of size dt written out stage by stage: each Euler
    step starts from the field velocity returns.  Also returns, per inner
    stage, whether velocity changed the discharge it was given."""
    K = basis.K
    solved = velocity(basis, fld)
    start = field = solved[1]
    changed = []
    for k in range(3):
        rhs, _ = semidiscrete_rhs(basis, solved, scheme, g)
        h = field.h + dt * rhs[:, :K]
        q = field.q + dt * rhs[:, K:]
        if k == 1:
            h, q = 0.75 * start.h + 0.25 * h, 0.75 * start.q + 0.25 * q
        elif k == 2:
            return start.h / 3.0 + (2.0 / 3.0) * h, start.q / 3.0 + (2.0 / 3.0) * q, changed
        solved = velocity(basis, replace(field, h=h, q=q))
        field = solved[1]
        changed.append(field.q.tobytes() != q.tobytes())


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_step_advances_the_desingularized_stage_fields(scheme):
    # velocity recomputes q <- P(h) u where it desingularizes, and each
    # stage's rhs is built from that field, so the step must advance it and
    # not the stage state velocity was given.  A restart starts over from
    # the same state, so the hand-written step takes the accepted dt.
    basis, nx = build_basis(3), 16
    rng = np.random.default_rng(5)
    h = _near_eps_heights(rng, nx, basis, (1.0 / nx) * 10.0 ** rng.uniform(-1.5, 1.0, nx))
    q = rng.standard_normal((nx, 3)) * h[:, :1]
    fld = Field(h=h, q=q, bottom=np.zeros((nx, 3)), dx=1.0 / nx, x_left=0.0)
    step = ssp_rk3_step(basis, velocity(basis, fld), scheme, 1.0, 0.45, 0.0, 1.0, 1.0)
    h, q, changed = _shu_osher_by_hand(basis, fld, scheme, 1.0, step.dt)
    assert changed == [True, True]
    assert step.field.h.tobytes() == h.tobytes()
    assert step.field.q.tobytes() == q.tobytes()


def test_dt_underflow_raises():
    basis = build_basis(2)
    fld = _sine_field(basis, 16)
    # huge horizon makes the floor 1e-14 t_final exceed any feasible dt
    with pytest.raises(DtUnderflowError):
        ssp_rk3_step(basis, velocity(basis, fld), SchemeKind.EC, 1.0, 0.45, 0.0, 1e20, 1e20)


def test_blow_up_detected():
    basis = build_basis(2)
    fld = _sine_field(basis, 16)
    fld.q[5, 0] = np.inf
    with pytest.raises(BlowUpError):
        ssp_rk3_step(basis, velocity(basis, fld), SchemeKind.EC, 1.0, 0.45, 0.0, 1.0, 1.0)


def test_integrate_non_finite_initial_height_blows_up():
    basis = build_basis(3)
    fld = _dam_break_field(basis, 8)
    fld.h[4, 0] = np.nan
    with pytest.raises(BlowUpError) as err:
        integrate(basis, fld, SchemeKind.ES2, 1.0, 0.45, 0.01)
    assert err.value.t == 0.0


@pytest.mark.parametrize(
    "name, call, start",
    [("velocity", 1, 0), ("velocity", 8, 2), ("velocity", 10, 3), ("positivity_check", 8, 2)],
)
def test_integrate_errors_name_the_time(monkeypatch, name, call, start):
    # without restarts, an ec step solves 2 stage velocities, then the
    # record's velocity; call 1 of velocity is the initial record.  Each
    # velocity checks its node heights first, so positivity_check is called
    # as often.  The call-th call gets negated heights and raises
    # PositivityError with no time; integrate names the time of
    # records[start], the state that the failing step or record started
    # from.
    basis = build_basis(3)
    fld = _sine_field(basis, 16)
    _, records = integrate(basis, fld, SchemeKind.EC, 1.0, 0.45, 0.2)
    assert len(records) > 4 and records[-1].restarts == 0
    real, calls = getattr(sgswe.core, name), []

    def failing(basis, arg):
        calls.append(arg)
        if len(calls) == call:
            arg = replace(arg, h=-arg.h) if name == "velocity" else -arg
        return real(basis, arg)

    monkeypatch.setattr(sgswe.timestep if name == "velocity" else sgswe.core, name, failing)
    with pytest.raises(PositivityError) as err:
        integrate(basis, fld, SchemeKind.EC, 1.0, 0.45, 0.2)
    assert err.value.t == records[start].t


def test_integrate_hits_snapshots_exactly():
    basis = build_basis(2)
    fld = _sine_field(basis, 16)
    seen = []
    final, records = integrate(
        basis, fld, SchemeKind.ES2, 1.0, 0.45, 0.02,
        snapshot_times=(0.0, 0.011, 0.02),
        on_snapshot=lambda t, f: seen.append(t),
    )
    assert seen == [0.0, 0.011, 0.02]
    times = [r.t for r in records]
    assert 0.011 in times and times[-1] == 0.02
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


@pytest.mark.parametrize(
    "t_final, snapshot_times",
    [(0.01, (1e-13, 0.01)), (0.01, (0.0, 1e-13)), (1e-13, (1e-13,)), (1e-13, ())],
)
def test_integrate_snapshots_inside_the_time_tolerance(t_final, snapshot_times):
    # times within 1e-12 of 0 are written from the initial field under their
    # own time, and only when requested
    basis = build_basis(2)
    fld = _sine_field(basis, 16)
    seen = []
    integrate(basis, fld, SchemeKind.EC, 1.0, 0.45, t_final, snapshot_times=snapshot_times,
              on_snapshot=lambda t, f: seen.append((t, f)))
    assert [t for t, _ in seen] == sorted(snapshot_times)
    assert all(f is fld for t, f in seen if t <= 1e-12)


@pytest.mark.parametrize("t_final", [0.02, 3.0])
def test_integrate_reaches_targets_closer_than_the_dt_floor(t_final):
    # a step that reaches a target also reaches the next ones within
    # 1e-12 max(1, t_final) of it, chained; they fire with its field, so no
    # step is clamped below the 1e-14 t_final floor, and the run still ends
    # at exactly t_final
    basis = build_basis(2)
    fld = _sine_field(basis, 16)
    tol = 1e-12 * max(1.0, t_final)
    near = np.nextafter(t_final, 0.0)
    half = 0.5 * t_final
    chain = (half, half + 0.6 * tol, half + 1.2 * tol, half + 1.2 * tol + 1e-16 * t_final)
    for snapshot_times in ((near,), chain + (near,)):
        seen = []
        final, records = integrate(basis, fld, SchemeKind.EC, 1.0, 0.45, t_final,
                                   snapshot_times=snapshot_times,
                                   on_snapshot=lambda t, f: seen.append((t, f)))
        assert [t for t, _ in seen] == sorted(snapshot_times)
        assert seen[-1][1] is final
        if len(seen) > 1:
            assert all(f is seen[0][1] for _, f in seen[:4])
        times = [r.t for r in records]
        assert times[-1] == t_final and all(b > a for a, b in zip(times, times[1:]))
        assert t_final not in times[:-1] and near not in times
        if len(seen) > 1:
            assert chain[-1] in times and not set(chain[:-1]) & set(times)


def test_integrate_record_invariants():
    basis = build_basis(3)
    fld = _sine_field(basis, 24)
    final, records = integrate(basis, fld, SchemeKind.ES1, 1.0, 0.45, 0.03)
    assert records[0].t == 0.0 and records[0].dt == 0.0
    assert all(r.min_node_height > 0.0 for r in records)
    assert all(np.isfinite(r.energy) for r in records)
    assert records[-1].t == pytest.approx(0.03, abs=1e-15)
    # ES1 dissipates on non-trivial data
    assert records[-1].energy < records[0].energy


def test_integrate_rejects_bad_snapshot_times():
    # a NaN snapshot time would never fire, and a horizon that is not finite
    # and positive would return the initial state alone
    basis = build_basis(2)
    fld = _sine_field(basis, 16)
    for t_final, snapshot_times in [(0.01, (0.5,)), (0.01, (-1e-3,)), (0.01, (np.nan,)),
                                    (np.nan, ()), (np.inf, ()), (-1.0, ()), (0.0, ()),
                                    (0.0, (0.0,))]:
        with pytest.raises(ValueError):
            integrate(basis, fld, SchemeKind.EC, 1.0, 0.45, t_final,
                      snapshot_times=snapshot_times)


def test_total_energy_matches_hand_sum():
    basis = build_basis(2)
    fld = _lake_field(basis, 12)
    from sgswe.entropy import energy

    vel, out = velocity(basis, fld)
    e = energy(out.h, out.q, out.bottom, 1.0, vel.u)
    assert total_energy((vel, out), 1.0) == pytest.approx(fld.dx * float(np.sum(e)), rel=1e-14)


def test_near_dry_run_restarts_and_stays_positive(monkeypatch):
    # every positivity bound, of a step's start or of a later stage, reads
    # the node heights of the state whose fluxes it is given
    basis = build_basis(3)
    nx, K = 60, 3
    dx = 1.0 / nx
    h = np.zeros((nx, K))
    h[:, 0] = np.where(np.arange(nx) < nx // 2, 1.0, 0.01)
    fld = Field(h=h, q=np.zeros((nx, K)), bottom=np.zeros((nx, K)), dx=dx, x_left=0.0)
    bounds, rhs, lam = [], sgswe.timestep.semidiscrete_rhs, sgswe.timestep.positivity_lambda

    def rhs_seen(basis, solved, *args):
        bounds.append([solved, rhs(basis, solved, *args)])
        return bounds[-1][1]

    def lam_seen(basis, node_h, fluxes, dx):
        bounds[-1] += [node_h, fluxes]
        return lam(basis, node_h, fluxes, dx)

    monkeypatch.setattr(sgswe.timestep, "semidiscrete_rhs", rhs_seen)
    monkeypatch.setattr(sgswe.timestep, "positivity_lambda", lam_seen)
    final, records = integrate(basis, fld, SchemeKind.ES2, 1.0, 0.45, 0.02)
    assert all(r.min_node_height > 0.0 for r in records)
    assert records[-1].restarts > 0
    for (_, field), (_, rhs_fluxes), node_h, fluxes in bounds:
        assert fluxes is rhs_fluxes
        assert node_h.tobytes() == (field.h @ basis.basis_table.T).tobytes()


@pytest.mark.parametrize("scheme, k_per_step, k2_per_step", [("ec", 5, 2), ("es2", 8, 5)])
def test_eigensolves_per_accepted_step(monkeypatch, scheme, k_per_step, k2_per_step):
    # one velocity solve per accepted state: 1 + 3n K x K for ec; es2 adds
    # one P(h_bar) solve per stage.  The 2K x 2K symmetrizer runs once per
    # stage for es2, and cfl_dt solves the cell with the largest speed bound,
    # then, only when other cells can hold the largest spectral radius,
    # those cells, each with its own P(h) solve.  k_per_step and
    # k2_per_step count a step whose cfl_dt makes both calls.
    basis = build_basis(3)
    calls = {3: 0, 6: 0}
    sym_eig, cfl_dt = sgswe.linalg.sym_eig, sgswe.timestep.cfl_dt
    in_cfl = []

    def counted(A):
        calls[A.shape[-1]] += 1
        return sym_eig(A)

    def tallied(*args):
        before = calls[6]
        dt = cfl_dt(*args)
        in_cfl.append(calls[6] - before)
        return dt

    monkeypatch.setattr(sgswe.core, "sym_eig", counted)
    monkeypatch.setattr(sgswe.timestep, "cfl_dt", tallied)
    _, records = integrate(basis, _dam_break_field(basis, 40), SchemeKind(scheme),
                           1.0, 0.45, 0.05)
    n = len(records) - 1
    second = in_cfl.count(2)
    assert n >= 3 and records[-1].restarts == 0
    assert len(in_cfl) == n and set(in_cfl) <= {1, 2} and second < n
    assert calls == {3: 1 + (k_per_step - 1) * n + second, 6: (k2_per_step - 1) * n + second}


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_record_energy_is_standalone_total_energy(monkeypatch, scheme):
    basis = build_basis(3)
    fld = _dam_break_field(basis, 40)
    states = [fld]
    step = sgswe.timestep.ssp_rk3_step

    def recording(*args, **kwargs):
        out = step(*args, **kwargs)
        states.append(out.field)
        return out

    monkeypatch.setattr(sgswe.timestep, "ssp_rk3_step", recording)
    _, records = integrate(basis, fld, scheme, 1.0, 0.45, 0.05, snapshot_times=(0.011,))
    assert len(states) == len(records)
    for rec, state in zip(records, states):
        assert rec.energy == total_energy(velocity(basis, state), 1.0)
        assert rec.min_node_height == float(np.min(state.h @ basis.basis_table.T))


def _near_eps_heights(rng, n, basis, lowest):
    """n random height states whose smallest node height is lowest (shape (n,))."""
    h = rng.standard_normal((n, basis.K)) * rng.uniform(0.0, 1.0)
    h[:, 0] = 0.0
    h[:, 0] = lowest - np.min(h @ basis.basis_table.T, axis=1)
    return h


def _cfl_states():
    """(name, basis, field) states on which cfl_dt's prune must be exact."""
    rng = np.random.default_rng(21)
    basis = build_basis(4)
    h, q = random_state_batch(rng, 30, 4)
    yield "random", basis, Field(h=h, q=q, bottom=np.zeros((30, 4)), dx=1.0 / 30, x_left=0.0)
    yield "dam break", basis, _dam_break_field(basis, 40)
    # K = 1 cells a few ulps apart: the bound and the radius equal
    # |u| + sqrt(g h) up to rounding, so only the 1e-12 slack keeps the
    # fastest cell
    tie = np.random.default_rng(51)  # a draw on which the slack decides
    ulps = 1.0 + tie.integers(-4, 5, (2, 16, 1)) * 2.0**-52
    h0, q0 = 1.0 + tie.random(), tie.standard_normal()
    yield "near tie", build_basis(1), Field(h=h0 * ulps[0], q=q0 * ulps[1],
                                            bottom=np.zeros((16, 1)), dx=0.01, x_left=0.0)
    # P(h) eigenvalues below eps = dx, as where a hump node dries
    h = _near_eps_heights(rng, 30, basis, (1.0 / 30) * 10.0 ** rng.uniform(-2.0, 1.0, 30))
    h[::5] = [0.2 / 30, 0.05 / 30, 0.0, 0.0]
    q = rng.standard_normal((30, 4)) * h[:, :1]
    yield "desingularized", basis, Field(h=h, q=q, bottom=np.zeros((30, 4)), dx=1.0 / 30,
                                         x_left=0.0)


def test_cfl_dt_with_passed_velocity_is_bitwise():
    seen = set()
    for name, basis, fld in _cfl_states():
        solved = velocity(basis, fld)
        if np.any(solved[0].desingularized):
            seen.add("desingularized")
        # the bound over every cell, with its own P(h) eigensolve
        _, lam = symmetrizer_eig(basis, fld.h, solved[0].u, 1.0)
        rho = np.max(np.abs(lam), axis=-1)
        if rho[np.argmax(_speed_bound(basis, solved[0], 1.0))] < np.max(rho):
            seen.add("largest bound not fastest")  # its radius alone is not dt
        expected = 0.45 * fld.dx / float(np.max(rho))
        assert cfl_dt(basis, solved, 1.0, 0.45) == expected, name
    assert seen == {"desingularized", "largest bound not fastest"}


def test_velocity_rejects_a_nonpositive_node_with_spd_p(factorized):
    # cells 3 and 17 have a node height below 0 while P(h) is still SPD, so
    # only the node heights tell: velocity names cell 3 and its node before
    # any eigensolve, and integrate adds the time of the state
    basis = build_basis(4)
    h, q = random_state_batch(np.random.default_rng(21), 30, 4)
    h[[3, 17]] = [[1.0, 0.437, 0.305, 0.606], [1.0, 0.159, -0.094, 0.331]]
    u = np.array([[-0.947, -3.565, -0.453, 0.793], [1.07, -2.735, -7.578, -2.719]])
    q[[3, 17]] = np.einsum("nij,nj->ni", p_operator(basis, h[[3, 17]]), u)
    fld = Field(h=h, q=q, bottom=np.zeros((30, 4)), dx=1.0 / 30, x_left=0.0)
    node_h = h @ basis.basis_table.T
    assert np.flatnonzero(np.any(node_h <= 0.0, axis=1)).tolist() == [3, 17]
    assert np.all(np.linalg.eigvalsh(p_operator(basis, h[[3, 17]])) > 0.0)
    factorized.clear()
    for call in (lambda: velocity(basis, fld),
                 lambda: integrate(basis, fld, SchemeKind.ES2, 1.0, 0.45, 0.01)):
        with pytest.raises(PositivityError) as err:
            call()
        assert (err.value.cell, err.value.node) == (3, int(np.argmax(node_h[3] <= 0.0)))
        assert str(err.value) == f"nonpositive node height {node_h[3, err.value.node]:.6e}"
    assert err.value.t == 0.0
    assert factorized == []


@settings(max_examples=60, deadline=None, database=None)
@given(
    K=st.sampled_from([1, 2, 3, 5, 9, 12]),
    regime=st.sampled_from(["random", "clustered", "near eps"]),
    g=st.sampled_from([1.0, 9.81]),
    seed=st.integers(0, 2**32 - 1),
)
def test_speed_bounds_enclose_the_spectral_radius(K, regime, g, seed):
    # cfl_dt prunes a cell when upper < (1 - 1e-12) r, with r the radius of
    # one cell, so the bound must hold per cell to within that slack
    basis = build_basis(K)
    rng = np.random.default_rng(seed)
    n, dx = 16, 0.01
    if regime == "random":
        h, q = random_state_batch(rng, n, K, h_mean=rng.uniform(0.5, 3.0),
                                  spread=rng.uniform(0.0, 1.0), q_scale=rng.uniform(0.0, 10.0))
    elif regime == "clustered":  # P(h) eigenvalues within 1e-6 of each other or closer
        h = np.zeros((n, K))
        h[:, 0] = rng.uniform(0.5, 2.0, n)
        h[:, 1:] = 10.0 ** rng.uniform(-14.0, -6.0) * rng.standard_normal((n, K - 1))
        q = rng.uniform(0.0, 3.0) * rng.standard_normal((n, K))
    else:  # smallest node heights from 0.01 eps to 30 eps, eps = dx
        h = _near_eps_heights(rng, n, basis, dx * 10.0 ** rng.uniform(-2.0, 1.5, n))
        q = rng.uniform(0.0, 3.0) * rng.standard_normal((n, K)) * h[:, :1]
    fld = Field(h=h, q=q, bottom=np.zeros((n, K)), dx=dx, x_left=0.0)
    vel, _ = velocity(basis, fld)
    upper = _speed_bound(basis, vel, g)
    _, lam = symmetrizer_eig(basis, h, vel.u, g)
    rho = np.max(np.abs(lam), axis=-1)
    assert np.all(rho * (1.0 - 1e-12) <= upper)
    if K == 1:
        exact = np.abs(vel.u[:, 0]) + np.sqrt(g * h[:, 0])
        np.testing.assert_allclose(upper, exact, rtol=1e-14, atol=0.0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    K=st.sampled_from([1, 2, 3, 5]),
    nx=st.integers(3, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_euler_step_below_the_positivity_bound_keeps_a_tenth(K, nx, seed):
    # the height block of the rhs is -(F+ - F-)/dx, so an Euler step of
    # 0.9 lambda removes at most 0.9 of each node height.  Node heights go
    # down to 1e-8 of their cell's largest; evaluating h at such a node
    # cancels terms of the cell's size, so the bound also allows for the
    # rounding of the two evaluations, 2K eps |h| |phi(xi_m)|
    basis = build_basis(K)
    table = basis.basis_table
    rng = np.random.default_rng(seed)
    h = _near_eps_heights(rng, nx, basis, 10.0 ** rng.uniform(-8.0, 0.0, nx))
    h *= 10.0 ** rng.uniform(-2.0, 1.0)
    q = rng.uniform(0.0, 3.0) * rng.standard_normal((nx, K)) * h[:, :1]
    B = rng.uniform(0.0, 0.5) * rng.standard_normal((nx, K))
    for policy in ("outflow", "periodic"):
        fld = Field(h=h, q=q, bottom=B, dx=1.0 / nx, x_left=0.0, ghost_policy=policy)
        vel, field = solved = velocity(basis, fld)
        rounding = 2 * K * np.finfo(float).eps * (np.abs(field.h) @ np.abs(table.T))
        for scheme in SchemeKind:
            rhs, fluxes = semidiscrete_rhs(basis, solved, scheme, 1.0)
            lam = positivity_lambda(basis, vel.node_h, fluxes, field.dx)
            dt = 0.9 * lam if np.isfinite(lam) else 1.0
            node_h = (field.h + dt * rhs[:, :K]) @ table.T
            assert np.all(node_h >= (0.1 - 1e-12) * vel.node_h - rounding), (scheme, policy)


def test_cfl_dt_solves_only_the_cells_that_can_set_dt(monkeypatch):
    # per step: the cell with the largest speed bound, then, only if cells
    # of other runs can hold the largest radius, the first cell of each such
    # run of velocity's solve, a run of equal (h, q) rows
    basis = build_basis(3)
    nx = 100
    calls, cfl_dt = [], sgswe.timestep.cfl_dt

    def tallied(basis, solved, g, cfl):
        calls.append((solved, []))
        return cfl_dt(basis, solved, g, cfl)

    def recorded(basis, h_bar, u_bar, g):
        calls[-1][1].append((h_bar, u_bar))
        return symmetrizer_eig(basis, h_bar, u_bar, g)

    monkeypatch.setattr(sgswe.timestep, "cfl_dt", tallied)
    monkeypatch.setattr(sgswe.timestep, "symmetrizer_eig", recorded)
    _, records = integrate(basis, _dam_break_field(basis, nx), SchemeKind.ES2, 1.0, 0.45, 0.05)
    assert len(calls) == len(records) - 1 >= 3
    for (vel, fld), passed in calls:
        upper = _speed_bound(basis, vel, 1.0)
        top = np.argmax(upper)
        r = np.max(np.abs(symmetrizer_eig(basis, *passed[0], 1.0)[1]))
        rows = [fld.h[i].tobytes() + fld.q[i].tobytes() for i in range(nx)]
        kept = [i for i in range(nx) if (i == 0 or rows[i] != rows[i - 1]) and i != top
                and not upper[i] < (1.0 - 1e-12) * r]
        assert [len(h) for h, _ in passed] == [1] + ([len(kept)] if kept else [])
    seconds = sum(len(passed) == 2 for _, passed in calls)
    assert 0 < seconds < len(calls)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cfl_dt_passes_a_non_finite_state_to_the_solver(monkeypatch, bad):
    # a cell whose bound is not finite is kept, so the state reaches eigh,
    # which fails on it as it does when every cell is solved
    basis = build_basis(4)
    h, q = random_state_batch(np.random.default_rng(5), 30, 4)
    q[11, 2] = bad
    fld = Field(h=h, q=q, bottom=np.zeros((30, 4)), dx=1.0 / 30, x_left=0.0)
    solved = velocity(basis, fld)
    with pytest.raises(np.linalg.LinAlgError):
        symmetrizer_eig(basis, fld.h, solved[0].u, 1.0)
    passed = []

    def recorded(A):
        if A.shape[-1] == 8:  # the symmetrizer's D; P(h) is 4 x 4
            passed.append(A)
        return sgswe.linalg.sym_eig(A)

    monkeypatch.setattr(sgswe.core, "sym_eig", recorded)
    with pytest.raises(np.linalg.LinAlgError):
        cfl_dt(basis, solved, 1.0, 0.45)
    assert not np.all(np.isfinite(passed[0]))


def test_integrate_es2_chunked_eigensolves_bitwise(monkeypatch, pool):
    # es2 amplifies one ulp of dt into ~1e-3 in h, so this fails unless every
    # chunked eigensolve is bitwise equal to the serial one.
    basis = build_basis(3)
    nx = 2 * sgswe.linalg._MIN_CHUNK // 9 + 1  # two chunks of 3x3 solves
    runs, splits = [], []
    for width in (1, 2):
        monkeypatch.setattr(sgswe.linalg, "_WIDTH", width)
        fld = _dam_break_field(basis, nx)
        fld.h[:, 0] += 1e-3 * np.arange(nx) / nx  # no two cells equal, so no solve is skipped
        runs.append(integrate(basis, fld, SchemeKind.ES2, 1.0, 0.45, 0.01))
        splits.append(len(pool.sizes))
    (serial, serial_records), (chunked, chunked_records) = runs
    assert len(serial_records) > 3 and splits[0] == 0 and splits[1] > 0
    assert chunked_records == serial_records
    assert np.array_equal(chunked.h, serial.h) and np.array_equal(chunked.q, serial.q)


def test_integrate_es2_skipped_eigensolves_bitwise(monkeypatch):
    # the same amplification makes this fail unless every P(h) solve that
    # velocity skips for an equal neighbour copies a bitwise-equal solution.
    # The skip is counted at velocity's input: cells passed in against P(h)
    # matrices factorized.
    basis = build_basis(3)
    eigh, in_velocity, solved, passed = np.linalg.eigh, [], [], []

    def tallied_velocity(basis, field):
        passed.append(field.nx)
        in_velocity.append(True)
        try:
            return velocity(basis, field)
        finally:
            in_velocity.pop()

    def counting(a):
        if in_velocity:
            solved.append(len(a))
        return eigh(a)

    with monkeypatch.context() as m:
        m.setattr(sgswe.timestep, "velocity", tallied_velocity)
        m.setattr(np.linalg, "eigh", counting)
        fld, records = integrate(basis, _dam_break_field(basis, 100), SchemeKind.ES2,
                                 1.0, 0.45, 0.05)
    monkeypatch.setattr(sgswe.timestep, "velocity", velocity_every_cell)
    ref, ref_records = integrate(basis, _dam_break_field(basis, 100), SchemeKind.ES2,
                                 1.0, 0.45, 0.05)
    assert len(records) > 3 and sum(solved) < sum(passed) / 2
    assert records == ref_records
    assert np.array_equal(fld.h, ref.h) and np.array_equal(fld.q, ref.q)


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_integrate_matches_the_unwindowed_oracles(monkeypatch, scheme):
    # the whole run with velocity solving every cell and the flux evaluated
    # at every interface gives the same records and final state, bit for bit
    basis = build_basis(3)
    runs = []
    for oracles in (False, True):
        with monkeypatch.context() as m:
            if oracles:
                m.setattr(sgswe.timestep, "velocity", velocity_every_cell)
                m.setattr(sgswe.timestep, "semidiscrete_rhs", rhs_every_interface)
            runs.append(integrate(basis, _dam_break_field(basis, 100), scheme, 1.0, 0.45, 0.05))
    (fld, records), (ref, ref_records) = runs
    assert len(records) > 3 and records == ref_records
    assert fld.h.tobytes() == ref.h.tobytes() and fld.q.tobytes() == ref.q.tobytes()


def test_every_eigensolve_gets_a_bitwise_symmetric_matrix(monkeypatch):
    # sym_eig factorizes its input as it is: eigh reads the lower triangle,
    # so an asymmetric matrix would be solved as some other matrix
    sym_eig, asymmetric, calls = sgswe.core.sym_eig, [], []

    def checked(A):
        calls.append(A.shape)
        if A.tobytes() != np.swapaxes(A, -1, -2).copy().tobytes():
            asymmetric.append(A.shape)
        return sym_eig(A)

    monkeypatch.setattr(sgswe.core, "sym_eig", checked)
    for K, scheme in [(1, "es2"), (5, "ec"), (5, "es2"), (9, "es1")]:
        basis = build_basis(K)
        cfg = SolverConfig(experiment="dam_break_flat", K=K, nx=60, t_final=0.05)
        integrate(basis, build_experiment(cfg, basis), SchemeKind(scheme), 1.0, 0.45, 0.05)
    assert {shape[-1] for shape in calls} == {1, 2, 5, 10, 9, 18}
    assert asymmetric == []


_FORK_BATCH = 2 * sgswe.linalg._MIN_CHUNK // 16  # two chunks of 4x4 solves


def _chunked_sym_eig_child():
    counting = CountingPool(sgswe.linalg._executor())
    sgswe.linalg._executor = lambda: counting
    values, _ = sgswe.linalg.sym_eig(distinct_eyes(4, _FORK_BATCH))
    expected = np.repeat(1.0 + np.arange(_FORK_BATCH), 4).reshape(-1, 4)
    raise SystemExit(0 if counting.sizes and np.array_equal(values, expected) else 1)


def test_forked_child_runs_chunked_sym_eig(monkeypatch):
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 2)
    counting = CountingPool(sgswe.linalg._executor())
    with monkeypatch.context() as m:  # the child must not inherit this stand-in for our pool
        m.setattr(sgswe.linalg, "_executor", lambda: counting)
        sgswe.linalg.sym_eig(distinct_eyes(4, _FORK_BATCH))
    assert counting.sizes  # the pool now has a live thread
    child = multiprocessing.get_context("fork").Process(target=_chunked_sym_eig_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child hung in a chunked sym_eig")
    assert child.exitcode == 0
