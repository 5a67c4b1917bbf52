"""Acceptance gate: ten end-to-end guarantees, one test and one verdict line each.

Expensive simulations are shared through module-scoped fixtures.  Every test
prints `CRITERION n: PASS/FAIL` with the measured numbers, then asserts.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sgswe import (
    SchemeKind,
    SolverConfig,
    build_basis,
    build_experiment,
    integrate,
    interface_flux,
    p_operator,
    semidiscrete_rhs,
    ssp_rk3_step,
    velocity,
)
from sgswe.cli import main
from sgswe.core import Field, project_bottom
from sgswe.entropy import energy
from sgswe.errors import DtUnderflowError

from conftest import (
    energy_flux,
    energy_potential,
    entropy_variables,
    exact_u,
    flux_jacobian,
    grid_energy_pair,
    hessian_quadform,
    physical_flux,
    random_hyperbolic_state,
    random_state_batch,
    roe_equivalence_errors,
    state_energy,
)

GRAV = 1.0


def report(n: int, ok: bool, detail: str):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}  [{detail}]"
    print(line)
    assert ok, line


def rel_energy(records) -> float:
    return (records[-1].energy - records[0].energy) / records[-1].energy


def dam_break_field(basis, nx=400) -> Field:
    cfg = SolverConfig(experiment="dam_break_flat", K=basis.K, nx=nx, t_final=0.4)
    return build_experiment(cfg, basis)


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dam_break_ec(basis9):
    """EC dam break at cfl 0.45 and two halvings: {cfl: records}, 'elapsed'."""
    t0 = time.perf_counter()
    out = {}
    for cfl in (0.45, 0.225, 0.1125):
        _, recs = integrate(basis9, dam_break_field(basis9), SchemeKind.EC, GRAV, cfl, 0.4)
        out[cfl] = recs
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def dam_break_es(basis9):
    """ES1/ES2 dam break runs with the cellwise energy-rate inequality sampled
    at 20 times: {scheme: (records, worst residual / scale)}."""
    sample_times = tuple(np.linspace(0.02, 0.4, 20))
    out = {}
    for scheme in (SchemeKind.ES1, SchemeKind.ES2):
        worst = {"ratio": -np.inf}

        def on_snapshot(t, fld, scheme=scheme, worst=worst):
            solved = velocity(basis9, fld)
            rhs, fluxes = semidiscrete_rhs(basis9, solved, scheme, GRAV)
            V, H = grid_energy_pair(basis9, solved, fluxes, GRAV)
            rate = np.einsum("ik,ik->i", V[1:-1], rhs)
            div = np.diff(H) / fld.dx
            # local energy scale: cell energy transported at the local wave
            # speed, so still-water cells keep an O(1) denominator instead of
            # dividing roundoff dust by roundoff dust
            e_cell = energy(solved[1].h, solved[1].q, fld.bottom, GRAV, solved[0].u)
            c_cell = np.sqrt(GRAV * (fld.h @ basis9.basis_table.T).max(axis=1))
            scale = (
                np.abs(rate)
                + (np.abs(H[1:]) + np.abs(H[:-1])) / fld.dx
                + e_cell * c_cell / fld.dx
            )
            worst["ratio"] = max(worst["ratio"], float(np.max((rate + div) / scale)))

        _, recs = integrate(
            basis9,
            dam_break_field(basis9),
            scheme,
            GRAV,
            0.45,
            0.4,
            snapshot_times=sample_times,
            on_snapshot=on_snapshot,
        )
        out[scheme] = (recs, worst["ratio"])
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_pce_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for K, trials in ((1, 334), (5, 333), (9, 333)):
        basis = build_basis(K)
        C = basis.triple_tensor
        worst = max(worst, float(np.max(np.abs(C[0] - np.eye(K)))))
        gram = basis.basis_table.T @ (basis.quad_weights[:, None] * basis.basis_table)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(K)))))
        for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            worst = max(worst, float(np.max(np.abs(C - np.transpose(C, axes)))))
        a = rng.standard_normal((trials, K))
        b = rng.standard_normal((trials, K))
        lhs = np.einsum("nlm,nm->nl", p_operator(basis, a), b)
        rhs = np.einsum("nlm,nm->nl", p_operator(basis, b), a)
        scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs).max(axis=1) / scale)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-13 and elapsed < 5.0, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_entropy_calculus(basis9):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    K = 9
    zero = np.zeros(K)
    worst_grad = worst_hess = worst_psi = worst_flat = 0.0
    min_quad = np.inf
    for _ in range(100):
        h, q = random_hyperbolic_state(rng, K)
        B = 0.1 * rng.standard_normal(K)
        U = np.concatenate([h, q])

        def E_of(U_):
            return float(state_energy(basis9, U_[:K], U_[K:], B, GRAV))

        V = entropy_variables(basis9, h, q, B, GRAV)
        fd = np.empty(2 * K)
        for j in range(2 * K):
            up, dn = U.copy(), U.copy()
            up[j] += 1e-6
            dn[j] -= 1e-6
            fd[j] = (E_of(up) - E_of(dn)) / 2e-6
        worst_grad = max(worst_grad, float(np.max(np.abs(V - fd)) / np.max(np.abs(V))))

        w1 = rng.standard_normal(K)
        w2 = rng.standard_normal(K)
        quad = float(hessian_quadform(basis9, h, q, GRAV, w1, w2))
        min_quad = min(min_quad, quad)
        w = np.concatenate([w1, w2])

        def E1_of(U_):
            return float(state_energy(basis9, U_[:K], U_[K:], zero, GRAV))

        fd2 = (E1_of(U + 1e-4 * w) - 2.0 * E1_of(U) + E1_of(U - 1e-4 * w)) / 1e-8
        worst_hess = max(worst_hess, abs(quad - fd2) / abs(quad))

        F = physical_flux(basis9, h, q, GRAV)
        H = energy_flux(basis9, h, q, B, GRAV)
        Psi = energy_potential(basis9, h, q, GRAV)
        worst_psi = max(worst_psi, abs(float(V @ F) - float(H) - float(Psi)))

        def H1_of(U_):
            return float(energy_flux(basis9, U_[:K], U_[K:], zero, GRAV))

        lhs = entropy_variables(basis9, h, q, zero, GRAV) @ flux_jacobian(basis9, h, q, GRAV)
        fdH = np.empty(2 * K)
        for j in range(2 * K):
            up, dn = U.copy(), U.copy()
            up[j] += 1e-6
            dn[j] -= 1e-6
            fdH[j] = (H1_of(up) - H1_of(dn)) / 2e-6
        worst_flat = max(worst_flat, float(np.max(np.abs(lhs - fdH)) / np.max(np.abs(lhs))))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_grad <= 1e-6
        and worst_hess <= 1e-4
        and min_quad > 0.0
        and worst_psi <= 1e-11
        and worst_flat <= 1e-5
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        f"grad {worst_grad:.1e}, hess {worst_hess:.1e}, quad > {min_quad:.2f}, "
        f"potential {worst_psi:.1e}, flat {worst_flat:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_ec_condition(basis9):
    rng = np.random.default_rng(13)
    n = 1000
    hL, qL = random_state_batch(rng, n, 9)
    hR, qR = random_state_batch(rng, n, 9)
    BL = 0.1 * rng.standard_normal((n, 9))
    BR = 0.1 * rng.standard_normal((n, 9))
    uL, uR = exact_u(basis9, hL, qL), exact_u(basis9, hR, qR)
    pairs = [np.stack(sides, axis=1) for sides in ((hL, hR), (uL, uR), (BL, BR))]
    flux = interface_flux(basis9, *pairs, SchemeKind.EC, GRAV)[0][:, 0]
    jV = entropy_variables(basis9, hR, qR, BR, GRAV) - entropy_variables(basis9, hL, qL, BL, GRAV)
    jPsi = energy_potential(basis9, hR, qR, GRAV) - energy_potential(basis9, hL, qL, GRAV)
    Ph_bar = p_operator(basis9, 0.5 * (hL + hR))
    u_bar = 0.5 * (uL + uR)
    src = GRAV * np.einsum("nk,nk->n", BR - BL, np.einsum("nkl,nl->nk", Ph_bar, u_bar))
    resid = np.einsum("nk,nk->n", jV, flux) - jPsi - src
    worst = float(np.max(np.abs(resid)))
    report(3, worst <= 1e-11, f"max residual {worst:.2e} over {n} pairs")


def test_criterion_04_well_balanced(basis9):
    cfg = SolverConfig(experiment="stochastic_bottom", K=9, nx=200, t_final=0.1)
    base = build_experiment(cfg, basis9)
    w_const = np.zeros(9)
    w_const[0] = 2.0
    field0 = replace(base, h=w_const[None, :] - base.bottom, q=np.zeros_like(base.q))

    parts = []
    for scheme in (SchemeKind.EC, SchemeKind.ES1, SchemeKind.ES2):
        t0 = time.perf_counter()
        fld, t, max_q = field0, 0.0, 0.0
        while t < 0.1 - 1e-13:
            step = ssp_rk3_step(basis9, velocity(basis9, fld), scheme, GRAV, 0.45, t, 0.1, 0.1)
            fld, t = step.field, step.t
            max_q = max(max_q, float(np.max(np.abs(fld.q))))
        drift = float(np.max(np.abs(fld.h - field0.h)))
        parts.append((scheme.value, max_q, drift, time.perf_counter() - t0))

    ok = all(mq <= 1e-12 and dr <= 1e-12 and el < 60.0 for _, mq, dr, el in parts)
    detail = ", ".join(f"{s}: q {mq:.1e} h {dr:.1e}" for s, mq, dr, _ in parts)
    report(4, ok, detail)


def test_criterion_05_roe_equivalence(basis9):
    rng = np.random.default_rng(14)
    worst_q = worst_m = 0.0
    for _ in range(500):
        L = random_hyperbolic_state(rng, 9)
        R = random_hyperbolic_state(rng, 9)
        # the diffusion on the rescaled jump, and R R^T inverting the Hessian
        err_q, err_m = roe_equivalence_errors(basis9, L, R, GRAV)
        worst_q, worst_m = max(worst_q, err_q), max(worst_m, err_m)
    ok = worst_q <= 1e-9 and worst_m <= 1e-10
    report(5, ok, f"diffusion rel err {worst_q:.2e}, rescaling identity {worst_m:.2e}")


def test_criterion_06_ec_energy_conservation(dam_break_ec):
    drifts = [abs(rel_energy(dam_break_ec[cfl])) for cfl in (0.45, 0.225, 0.1125)]
    ok = (
        drifts[0] <= 1e-3
        and drifts[0] > drifts[1] > drifts[2]
        and dam_break_ec["elapsed"] < 600.0
    )
    report(
        6,
        ok,
        "|rel energy| "
        + " > ".join(f"{d:.2e}" for d in drifts)
        + f" at cfl 0.45/0.225/0.1125, {dam_break_ec['elapsed']:.0f}s",
    )


def test_criterion_07_es_cellwise_inequality(dam_break_es):
    recs1, worst1 = dam_break_es[SchemeKind.ES1]
    recs2, worst2 = dam_break_es[SchemeKind.ES2]
    e1, e2 = rel_energy(recs1), rel_energy(recs2)
    ok = worst1 <= 1e-10 and worst2 <= 1e-10 and e1 < e2 < 0.0
    report(
        7,
        ok,
        f"worst residual/scale ES1 {worst1:.1e}, ES2 {worst2:.1e}; "
        f"rel energy ES1 {e1:.2e} < ES2 {e2:.2e} < 0",
    )


def test_criterion_08_convergence_orders():
    t0 = time.perf_counter()
    K = 3
    basis = build_basis(K)
    grids = (100, 200, 400, 800)

    def smooth_field(nx: int) -> Field:
        dx = 1.0 / nx
        x = dx * (np.arange(nx) + 0.5)
        surf = lambda xx, xi: 1.0 + 0.1 * np.sin(2.0 * np.pi * xx) * (1.0 + 0.05 * xi)
        h = project_bottom(surf, basis, x)
        zeros = np.zeros((nx, K))
        return Field(h=h, q=zeros, bottom=zeros, dx=dx, x_left=0.0, ghost_policy="periodic")

    def solve(nx: int, scheme: SchemeKind) -> Field:
        fld, _ = integrate(basis, smooth_field(nx), scheme, GRAV, 0.45, 0.05)
        return fld

    ref = solve(3200, SchemeKind.ES2)

    def l1_order(scheme: SchemeKind) -> float:
        errs = []
        for nx in grids:
            fld = solve(nx, scheme)
            fac = 3200 // nx
            rh = ref.h.reshape(nx, fac, K).mean(axis=1)
            rq = ref.q.reshape(nx, fac, K).mean(axis=1)
            errs.append(
                float(np.mean(np.abs(fld.h - rh).sum(axis=1) + np.abs(fld.q - rq).sum(axis=1)))
            )
        return float(np.polyfit(np.log([1.0 / n for n in grids]), np.log(errs), 1)[0])

    orders = {s: l1_order(s) for s in (SchemeKind.EC, SchemeKind.ES2, SchemeKind.ES1)}
    elapsed = time.perf_counter() - t0
    ok = (
        orders[SchemeKind.EC] >= 1.7
        and orders[SchemeKind.ES2] >= 1.7
        and 0.8 <= orders[SchemeKind.ES1] <= 1.3
        and elapsed < 900.0
    )
    report(
        8,
        ok,
        f"L1 orders vs es2-3200 reference: ec {orders[SchemeKind.EC]:.2f}, "
        f"es2 {orders[SchemeKind.ES2]:.2f} (need >= 1.7), "
        f"es1 {orders[SchemeKind.ES1]:.2f} (need in [0.8, 1.3]), {elapsed:.0f}s",
    )


def test_criterion_09_positivity(basis9, dam_break_ec, dam_break_es):
    parts = []

    min_51 = min(
        min(r.min_node_height for r in dam_break_ec[0.45]),
        min(r.min_node_height for r in dam_break_es[SchemeKind.ES1][0]),
        min(r.min_node_height for r in dam_break_es[SchemeKind.ES2][0]),
    )
    parts.append(("dam_break_flat", min_51 > 0.0, f"min node h {min_51:.2e}"))

    cfg = SolverConfig(experiment="stochastic_bottom", K=9, nx=200, t_final=0.8)
    records = []
    outcome = "completed"
    try:
        integrate(
            basis9, build_experiment(cfg, basis9), SchemeKind.ES2, GRAV, 0.45, 0.8,
            records=records,
        )
    except DtUnderflowError as exc:
        # a quadrature node dries out and the positivity bound stalls dt;
        # every accepted record must still be strictly positive
        outcome = f"dt underflow at t {records[-1].t:.3f}"
    min_52 = min(r.min_node_height for r in records)
    parts.append(("stochastic_bottom", min_52 > 0.0, f"min node h {min_52:.1e}, {outcome}"))

    cfg = SolverConfig(experiment="lake_at_rest_perturbation", K=9, nx=200, t_final=0.8)
    _, recs = integrate(basis9, build_experiment(cfg, basis9), SchemeKind.ES2, GRAV, 0.45, 0.8)
    min_53 = min(r.min_node_height for r in recs)
    parts.append(("lake_at_rest_perturbation", min_53 > 0.0, f"min node h {min_53:.2e}"))

    cfg = SolverConfig(
        experiment="custom", K=5, nx=100, x_left=-0.5, x_right=0.5, t_final=0.05,
        custom={"w_left": 1.0, "w_right": 3e-3},
    )
    basis5 = build_basis(5)
    _, recs = integrate(
        basis5, build_experiment(cfg, basis5), SchemeKind.ES2, GRAV, 0.45, 0.05
    )
    restarts = recs[-1].restarts
    min_dry = min(r.min_node_height for r in recs)
    parts.append(
        ("near_dry_custom", min_dry > 0.0 and restarts > 0,
         f"min node h {min_dry:.1e}, {restarts} restarts")
    )

    ok = all(p[1] for p in parts)
    report(9, ok, "; ".join(f"{name}: {msg}" for name, good, msg in parts))


def test_criterion_10_determinism(tmp_path):
    text = (
        "experiment = dam_break_flat\n"
        "scheme = ec\n"
        "snapshot_times = 0.4\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append((out / "energy.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(10, ok, f"energy CSV {len(outs[0])} bytes, bitwise equal: {outs[0] == outs[1]}")
