"""Interface kernel, source, limiter scaling and the grid operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgswe.linalg
import sgswe.schemes
from sgswe.basis import build_basis, p_operator
from sgswe.core import Field, _p_eig, pad_ghosts, symmetrizer_eig, velocity
from sgswe.errors import HyperbolicityError
from sgswe.schemes import SchemeKind, interface_flux, minmod_phi, semidiscrete_rhs
from sgswe.timestep import integrate, positivity_check

from conftest import (
    diffused_everywhere,
    energy_flux,
    energy_potential,
    entropy_vars_at,
    entropy_variables,
    exact_u,
    grid_energy_pair,
    interface_energy_flux,
    physical_flux,
    random_hyperbolic_state,
    random_state_batch,
)


def _random_field(rng, nx, K, policy="outflow", bottom_scale=0.1):
    h, q = random_state_batch(rng, nx, K)
    B = np.zeros((nx, K))
    x = np.linspace(0.0, 1.0, nx, endpoint=False)
    B[:, 0] = bottom_scale * (1.0 + np.sin(2.0 * np.pi * x))
    if K > 1:
        B[:, 1] = 0.3 * bottom_scale
    return Field(h=h, q=q, bottom=B, dx=1.0 / nx, x_left=0.0, ghost_policy=policy)


def _cells(basis, states, bottoms):
    """h, u, B of (h, q) states listed along axis -2, velocities from the
    exact inverse."""
    h, q = (np.stack(a, axis=-2) for a in zip(*states))
    return h, exact_u(basis, h, q), np.stack(bottoms, axis=-2)


def _stack(basis, states, bottoms, scheme, g):
    """Kernel on cells listed along axis -2, velocities from the exact inverse."""
    return interface_flux(basis, *_cells(basis, states, bottoms), scheme, g)


def test_minmod_phi_values():
    theta = np.array([-2.0, -1e-9, 0.0, 0.3, 1.0, 7.5, np.inf])
    assert np.array_equal(minmod_phi(theta), [0.0, 0.0, 0.0, 0.3, 1.0, 1.0, 1.0])


def test_scheme_kind_parsing():
    assert SchemeKind.from_string(" ES2 ") is SchemeKind.ES2
    with pytest.raises(ValueError):
        SchemeKind.from_string("lax")


def test_flux_consistency_all_schemes(basis9):
    rng = np.random.default_rng(0)
    g = 1.0
    st = random_hyperbolic_state(rng, 9)
    B = 0.1 * rng.standard_normal(9)
    exact = physical_flux(basis9, *st, g)
    for scheme in SchemeKind:
        f = _stack(basis9, (st,) * 4, (B,) * 4, scheme, g).flux
        assert np.max(np.abs(f - exact)) <= 1e-12


def test_ec_condition_random_pairs(basis9):
    rng = np.random.default_rng(1)
    g = 1.0
    for _ in range(50):
        L = random_hyperbolic_state(rng, 9)
        R = random_hyperbolic_state(rng, 9)
        bL, bR = 0.2 * rng.standard_normal(9), 0.2 * rng.standard_normal(9)
        F = _stack(basis9, (L, R), (bL, bR), SchemeKind.EC, g).flux[0]
        uL, uR = exact_u(basis9, *L), exact_u(basis9, *R)
        jV = entropy_variables(basis9, *R, bR, g) - entropy_variables(basis9, *L, bL, g)
        jPsi = float(energy_potential(basis9, *R, g) - energy_potential(basis9, *L, g))
        jB = bR - bL
        wb = g * float(jB @ (p_operator(basis9, 0.5 * (L[0] + R[0])) @ (0.5 * (uL + uR))))
        assert abs(float(jV @ F) - jPsi - wb) <= 1e-11


def _source(r, dx):
    """Source term of each cell: the RHS with the flux divergence removed."""
    return r.rhs + (r.fluxes[1:] - r.fluxes[:-1]) / dx


def test_ec_source_flat_bottom_vanishes(basis4):
    rng = np.random.default_rng(2)
    h = random_state_batch(rng, 3, 4)[0]
    b = np.tile(0.3 * rng.standard_normal(4), (3, 1))
    fld = Field(h=h, q=np.zeros((3, 4)), bottom=b, dx=0.1, x_left=0.0)
    for scheme in SchemeKind:
        r = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
        assert np.max(np.abs(_source(r, fld.dx))) == 0.0


def test_ec_source_matches_direct_formula(basis4):
    rng = np.random.default_rng(3)
    g, dx = 1.2, 0.05
    h = random_state_batch(rng, 3, 4)[0]
    b = 0.2 * rng.standard_normal((3, 4))
    fld = Field(h=h, q=np.zeros((3, 4)), bottom=b, dx=dx, x_left=0.0)
    S = _source(semidiscrete_rhs(basis4, velocity(basis4, fld), SchemeKind.EC, g), dx)[1]
    expect = -(0.5 * g / dx) * (
        p_operator(basis4, 0.5 * (h[1] + h[2])) @ (b[2] - b[1])
        + p_operator(basis4, 0.5 * (h[0] + h[1])) @ (b[1] - b[0])
    )
    assert np.max(np.abs(S[:4])) == 0.0
    assert np.max(np.abs(S[4:] - expect)) <= 1e-14


@pytest.mark.parametrize("policy", ["outflow", "periodic"])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_lake_at_rest_preserved(basis4, scheme, policy):
    rng = np.random.default_rng(4)
    nx, K = 24, 4
    x = np.linspace(0.0, 1.0, nx, endpoint=False)
    B = np.zeros((nx, K))
    B[:, 0] = 0.2 + 0.1 * np.sin(2.0 * np.pi * x)  # periodic-compatible bottom
    B[:, 1] = 0.05
    h = -B.copy()
    h[:, 0] += 2.0
    fld = Field(h=h, q=np.zeros((nx, K)), bottom=B, dx=1.0 / nx, x_left=0.0,
                ghost_policy=policy)
    r = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
    assert np.max(np.abs(r.rhs)) <= 1e-12


def _dyadic_lake(rng, n, K):
    """h, B of n cells at rest under the surface 2 over a random bottom.
    Dyadic bottom coefficients keep h + B bitwise equal in every cell, so
    [[V]] = 0 at each interface between them."""
    B = rng.integers(-4, 5, (n, K)) / 128.0
    B[:, 0] = rng.integers(-16, 17, n) / 128.0
    h = -B
    h[:, 0] += 2.0
    return h, B


def _mixed_stack(basis, rng):
    """h, u, B of 17 cells whose 16 interfaces mix jumps in V with three
    kinds of zero-jump run: one state over cells 2-5, a lake at rest over a
    varying bottom in cells 7-11, and one copied cell (13-14) between two
    active interfaces, whose ES2 ratios read its zero jump."""
    K = basis.K
    h, q = random_state_batch(rng, 17, K)
    u = exact_u(basis, h, q)
    B = 0.1 * rng.standard_normal((17, K))
    for a in (h, u, B):
        a[3:6] = a[2]
        a[14] = a[13]
    h[7:12], B[7:12] = _dyadic_lake(rng, 5, K)
    u[7:12] = 0.0
    return h, u, B


@pytest.mark.parametrize("scheme", [SchemeKind.ES1, SchemeKind.ES2])
@pytest.mark.parametrize("K", [1, 3, 9])
def test_diffusion_skip_matches_every_interface_bitwise(scheme, K):
    basis, g = build_basis(K), 1.0
    h, u, B = _mixed_stack(basis, np.random.default_rng(19))
    positivity_check(basis, h)
    V = entropy_vars_at(basis, h, u, B, g)
    zero = ~np.any(V[1:] != V[:-1], axis=-1)
    assert np.array_equal(np.flatnonzero(zero), [2, 3, 4, 7, 8, 9, 10, 13])
    # the same cells mirrored, as a second row of a (2, 17, K) stack
    for cells in ((h, u, B), tuple(np.stack([a, a[::-1]]) for a in (h, u, B))):
        f = interface_flux(basis, *cells, scheme, g).flux
        assert np.array_equal(f, diffused_everywhere(basis, *cells, scheme, g))


@pytest.mark.parametrize("policy", ["outflow", "periodic"])
@pytest.mark.parametrize("scheme", [SchemeKind.ES1, SchemeKind.ES2])
def test_lake_at_rest_solves_no_symmetrizer(basis4, monkeypatch, scheme, policy):
    # every interface has [[V]] = 0, so the one symmetrizer_eig call of the
    # stage gets an empty batch
    h, B = _dyadic_lake(np.random.default_rng(20), 12, 4)
    fld = Field(h=h, q=np.zeros((12, 4)), bottom=B, dx=1.0 / 12, x_left=0.0,
                ghost_policy=policy)
    batches = []

    def recorded(basis, h_bar, u_bar, g):
        batches.append(len(h_bar))
        return symmetrizer_eig(basis, h_bar, u_bar, g)

    monkeypatch.setattr(sgswe.schemes, "symmetrizer_eig", recorded)
    r = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
    assert batches == [0]
    assert np.max(np.abs(r.rhs)) <= 1e-12


_BASES = {K: build_basis(K) for K in (1, 2, 3, 5)}


@settings(max_examples=40, deadline=None, database=None)
@given(
    K=st.sampled_from(sorted(_BASES)),
    nx=st.integers(3, 16),
    surface=st.floats(1.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lake_at_rest_preserved_on_random_bottoms(K, nx, surface, seed):
    # random bottom, constant surface, q = 0; the modes k >= 1 are small
    # enough to keep every node height above 0.6 - 4 * 0.04 * 3
    basis, rng = _BASES[K], np.random.default_rng(seed)
    B = rng.uniform(-0.04, 0.04, (nx, K))
    B[:, 0] = rng.uniform(-0.4, 0.4, nx)
    h = -B
    h[:, 0] += surface
    positivity_check(basis, h)
    for policy in ("outflow", "periodic"):
        fld = Field(h=h, q=np.zeros((nx, K)), bottom=B, dx=1.0 / nx, x_left=0.0,
                    ghost_policy=policy)
        solved = velocity(basis, fld)
        for scheme in SchemeKind:
            r = semidiscrete_rhs(basis, solved, scheme, 1.0)
            assert np.max(np.abs(r.rhs)) <= 1e-12, (scheme, policy)


def test_es1_diffusion_dissipates(basis9):
    rng = np.random.default_rng(5)
    g = 1.0
    for _ in range(25):
        L = random_hyperbolic_state(rng, 9)
        R = random_hyperbolic_state(rng, 9)
        bL, bR = 0.1 * rng.standard_normal(9), 0.1 * rng.standard_normal(9)
        jV = entropy_variables(basis9, *R, bR, g) - entropy_variables(basis9, *L, bL, g)
        f_es1, f_ec = (
            _stack(basis9, (L, R), (bL, bR), scheme, g).flux[0]
            for scheme in (SchemeKind.ES1, SchemeKind.EC)
        )
        d = -2.0 * (f_es1 - f_ec)
        assert float(jV @ d) >= -1e-12


def test_es2_scaling_in_unit_interval(basis4):
    rng = np.random.default_rng(6)
    g = 1.0
    fld = _random_field(rng, 16, 4)
    hp, qp, Bp = (pad_ghosts(a, "outflow") for a in (fld.h, fld.q, fld.bottom))
    up = exact_u(basis4, hp, qp)
    V = np.concatenate(
        [-0.5 * np.einsum("nij,nj->ni", p_operator(basis4, up), up) + g * (hp + Bp), up],
        axis=-1,
    )
    T, _ = symmetrizer_eig(basis4, 0.5 * (hp[:-1] + hp[1:]), 0.5 * (up[:-1] + up[1:]), g)
    w_side = np.einsum("nji,nj->ni", T, V[:-1]), np.einsum("nji,nj->ni", T, V[1:])
    wjump = w_side[1] - w_side[0]
    from sgswe.schemes import _es2_pi

    Pi = _es2_pi(wjump[:-2], wjump[1:-1], wjump[2:], w_side[0][1:-1], w_side[1][1:-1])
    assert np.all(Pi >= 0.0) and np.all(Pi <= 1.0)


def test_es2_flat_region_no_nan(basis4):
    # identical states everywhere: all jumps vanish, flux must stay finite
    rng = np.random.default_rng(7)
    st = random_hyperbolic_state(rng, 4)
    B = 0.1 * rng.standard_normal(4)
    f = _stack(basis4, (st,) * 4, (B,) * 4, SchemeKind.ES2, 1.0).flux
    assert np.all(np.isfinite(f))


def test_per_interface_matches_batched(basis4):
    rng = np.random.default_rng(8)
    g = 1.0
    fld = _random_field(rng, 12, 4)
    solved = velocity(basis4, fld)
    hp, up, Bp = (pad_ghosts(a, "outflow") for a in (fld.h, solved[0].u, fld.bottom))
    nx = fld.nx
    for scheme in SchemeKind:
        r = semidiscrete_rhs(basis4, solved, scheme, g)
        for j in range(1, nx + 2):
            if scheme is SchemeKind.ES2:  # 4-cell stencil, limited middle interface
                cells, mid = slice(j - 1, j + 3), 1
            else:
                cells, mid = slice(j, j + 2), 0
            k = interface_flux(basis4, hp[cells], up[cells], Bp[cells], scheme, g)
            assert np.array_equal(k.flux[mid], r.fluxes[j - 1])


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_pair_stack_matches_separate_pairs(basis4, scheme):
    rng = np.random.default_rng(14)
    n, g = 7, 1.0
    (hL, qL), (hR, qR) = random_state_batch(rng, n, 4), random_state_batch(rng, n, 4)
    BL, BR = 0.1 * rng.standard_normal((n, 4)), 0.1 * rng.standard_normal((n, 4))
    stacked = _stack(basis4, ((hL, qL), (hR, qR)), (BL, BR), scheme, g)
    assert stacked.flux.shape == (n, 1, 8)
    for i in range(n):
        one = _stack(basis4, ((hL[i], qL[i]), (hR[i], qR[i])), (BL[i], BR[i]), scheme, g)
        for name in ("flux", "Ph_bar"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(one, name)), name


@pytest.mark.parametrize("policy", ["outflow", "periodic"])
def test_hyperbolicity_error_names_interior_cell(basis4, policy):
    rng = np.random.default_rng(15)
    fld = _random_field(rng, 12, 4, policy=policy)
    fld.h[5] = [-1.0, 0.0, 0.0, 0.0]
    for call in (
        lambda: velocity(basis4, fld),
        lambda: integrate(basis4, fld, SchemeKind.ES2, 1.0, 0.45, 0.01),
    ):
        with pytest.raises(HyperbolicityError) as info:
            call()
        assert info.value.cell == 5


def test_hyperbolicity_error_index_from_last_chunk(basis4, monkeypatch):
    # with the batch split across threads, the error still names the global
    # batch index and the interior cell: chunk order is kept
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 3)
    nx = 5 * sgswe.linalg._MIN_CHUNK // 16 + 1  # five chunks' worth of 4x4 solves
    fld = _random_field(np.random.default_rng(16), nx, 4)
    fld.h[nx - 2] = [-1.0, 0.0, 0.0, 0.0]
    for call in (
        lambda: _p_eig(basis4, fld.h),
        lambda: velocity(basis4, fld),
    ):
        with pytest.raises(HyperbolicityError) as info:
            call()
        assert info.value.cell == nx - 2


def test_hyperbolicity_error_names_first_cell_of_a_run(basis4):
    # sym_eig solves the run once; the error still names its first cell
    fld = _random_field(np.random.default_rng(17), 20, 4)
    fld.h[7:12] = [-1.0, 0.0, 0.0, 0.0]
    for call in (
        lambda: _p_eig(basis4, fld.h),
        lambda: velocity(basis4, fld),
    ):
        with pytest.raises(HyperbolicityError) as info:
            call()
        assert info.value.cell == 7


def test_conservation_telescopes(basis4):
    rng = np.random.default_rng(9)
    fld = _random_field(rng, 20, 4)
    for scheme in SchemeKind:
        r = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
        total = fld.dx * np.sum(r.rhs[:, :4], axis=0)
        boundary = -(r.fluxes[-1, :4] - r.fluxes[0, :4])
        assert np.max(np.abs(total - boundary)) <= 1e-12


def test_conservation_periodic_both_blocks(basis4):
    rng = np.random.default_rng(10)
    fld = _random_field(rng, 20, 4, policy="periodic", bottom_scale=0.0)
    for scheme in SchemeKind:
        r = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
        assert np.max(np.abs(np.sum(r.rhs, axis=0))) <= 1e-11


def test_numerical_energy_flux_consistency(basis9):
    rng = np.random.default_rng(11)
    g = 1.0
    st = random_hyperbolic_state(rng, 9)
    B = 0.1 * rng.standard_normal(9)
    h, u, Bs = _cells(basis9, (st, st), (B, B))
    F = interface_flux(basis9, h, u, Bs, SchemeKind.EC, g).flux
    H = interface_energy_flux(basis9, h, u, Bs, F, g)
    assert float(H[0]) == pytest.approx(float(energy_flux(basis9, *st, B, g)), rel=1e-12)


def test_cellwise_energy_balance(basis4):
    rng = np.random.default_rng(12)
    fld = _random_field(rng, 16, 4)
    g = 1.0
    solved = velocity(basis4, fld)
    f_ec = semidiscrete_rhs(basis4, solved, SchemeKind.EC, g).fluxes
    for scheme in SchemeKind:
        r = semidiscrete_rhs(basis4, solved, scheme, g)
        V, H = grid_energy_pair(basis4, solved, r, g)
        rate = np.sum(V[1:-1] * r.rhs, axis=-1)
        div = (H[1:] - H[:-1]) / fld.dx
        if scheme is SchemeKind.EC:
            assert np.max(np.abs(rate + div)) <= 1e-10
        else:
            # F = F_ec - diff / 2, so [[V]] . diff = 2 [[V]] . (F_ec - F)
            vjump_dot_diff = 2.0 * np.sum(np.diff(V, axis=0) * (f_ec - r.fluxes), axis=-1)
            expected = -(vjump_dot_diff[1:] + vjump_dot_diff[:-1]) / (4.0 * fld.dx)
            assert np.max(np.abs(rate + div - expected)) <= 1e-10
            assert np.max(rate + div) <= 1e-10  # dissipative


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ES2 limiter projects each neighbouring jump with that neighbour's eigenvectors",
)
@pytest.mark.parametrize("K", [1, 3, 5, 9])
def test_es2_equals_ec_where_entropy_variables_are_linear(K):
    # V = (V1; u) linear in the cell index makes every jump of a stencil
    # equal, so theta+- = 1, Pi = 0 and ES2 must equal EC at the limited
    # interfaces [1:-1] -- provided all three jumps are projected with one T
    basis = build_basis(K)
    rng = np.random.default_rng(18)
    g = 1.0
    i = np.arange(12)[:, None]

    def modes(mean, spread):
        return np.concatenate([[mean], spread * rng.standard_normal(K - 1)])

    worst = 0.0
    for _ in range(20):
        u = modes(0.3 * rng.standard_normal(), 0.05) + i * modes(0.02 * rng.standard_normal(), 0.005)
        V1 = modes(1.5, 0.02) + i * modes(0.01 * rng.standard_normal(), 0.002)
        h = (V1 + 0.5 * np.einsum("nij,nj->ni", p_operator(basis, u), u)) / g
        positivity_check(basis, h)
        f_ec, f_es2 = (
            interface_flux(basis, h, u, np.zeros_like(h), scheme, g).flux[1:-1]
            for scheme in (SchemeKind.EC, SchemeKind.ES2)
        )
        worst = max(worst, np.max(np.abs(f_es2 - f_ec)) / np.max(np.abs(f_ec)))
    assert worst <= 1e-13, f"max |F_es2 - F_ec| / max |F_ec| = {worst:.1e}"
