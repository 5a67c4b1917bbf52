"""Interface kernel, source, limiter scaling and the grid operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgswe.linalg
import sgswe.schemes
from sgswe.basis import build_basis, p_operator
from sgswe.core import Field, _p_eig, positivity_check, symmetrizer_eig, velocity
from sgswe.errors import HyperbolicityError, PositivityError
from sgswe.linalg import _run_starts
from sgswe.schemes import SchemeKind, _es2_pi, interface_flux, semidiscrete_rhs
from sgswe.timestep import integrate

from conftest import (
    energy_flux,
    energy_potential,
    entropy_vars_at,
    entropy_variables,
    exact_u,
    ghost_padded,
    grid_energy_pair,
    interface_energy_flux,
    physical_flux,
    random_hyperbolic_state,
    random_state_batch,
    rhs_every_interface,
    roe_equivalence_errors,
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


def test_es2_pi_minmod_values():
    # phi(theta) = clip(theta, 0, 1) on theta below 0, in [0, 1] and above 1,
    # for th+ (wj_prev / wj_mid) and th- (wj_next / wj_mid) alike; a
    # denominator under the guard gives phi = 0 on both sides, so Pi = 1
    # (7 interfaces of one component each; the one-sided variables are 1)
    theta = np.array([[-2.0], [-1e-9], [0.0], [0.3], [1.0], [7.5], [np.inf]])
    phi = np.array([[0.0], [0.0], [0.0], [0.3], [1.0], [1.0], [1.0]])
    one, zero = np.ones((7, 1)), np.zeros((7, 1))
    assert np.array_equal(_es2_pi(theta, one, zero, one, one), 1.0 - 0.5 * phi)
    assert np.array_equal(_es2_pi(zero, one, theta, one, one), 1.0 - 0.5 * phi)
    assert np.array_equal(_es2_pi(theta, one, theta, one, one), 1.0 - phi)
    tiny = np.full((7, 1), 1e-15)
    assert np.array_equal(_es2_pi(theta, tiny, theta, one, one), one)


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
        f = _stack(basis9, (st,) * 4, (B,) * 4, scheme, g)[0]
        assert np.max(np.abs(f - exact)) <= 1e-12


def _ec_residual(basis, L, R, bL, bR, g):
    """[[V]].F - [[Psi]] - g [[B]].P(h_bar) u_bar of the ec flux between the
    (h, q) states L and R over the bottoms bL and bR; zero for an
    energy-conservative flux."""
    F = _stack(basis, (L, R), (bL, bR), SchemeKind.EC, g)[0][0]
    uL, uR = exact_u(basis, *L), exact_u(basis, *R)
    jV = entropy_variables(basis, *R, bR, g) - entropy_variables(basis, *L, bL, g)
    jPsi = float(energy_potential(basis, *R, g) - energy_potential(basis, *L, g))
    wb = g * float((bR - bL) @ (p_operator(basis, 0.5 * (L[0] + R[0])) @ (0.5 * (uL + uR))))
    return float(jV @ F) - jPsi - wb


def test_ec_condition_random_pairs(basis9):
    rng = np.random.default_rng(1)
    for _ in range(50):
        L = random_hyperbolic_state(rng, 9)
        R = random_hyperbolic_state(rng, 9)
        bL, bR = 0.2 * rng.standard_normal(9), 0.2 * rng.standard_normal(9)
        assert abs(_ec_residual(basis9, L, R, bL, bR, 1.0)) <= 1e-11


_EC_BASES = {K: build_basis(K) for K in (1, 2, 3, 5, 9)}
_EPS = 1.0 / 200  # core.velocity's eps = dx on the bundled 400-cell grids over [-1, 1]


def _ec_state(basis, rng, kind):
    """A hyperbolic (h, q) state: random; with clustered P(h) eigenvalues (the
    modes k >= 2 of h at most 1e-6 of the mean, or zero); or with its smallest
    node height within a factor of two of eps and a velocity of order one."""
    h, q = random_hyperbolic_state(rng, basis.K)
    if kind == "clustered":
        h[1:] *= rng.choice([0.0, 1e-6, 1e-9, 1e-12])
    elif kind == "near_eps":
        h[0] += _EPS * (1.0 + rng.random()) - np.min(basis.basis_table @ h)
        q = p_operator(basis, h) @ rng.standard_normal(basis.K)
    return h, q


@settings(max_examples=60, deadline=None, database=None)
@given(
    K=st.sampled_from(sorted(_EC_BASES)),
    kinds=st.tuples(*[st.sampled_from(["random", "clustered", "near_eps"])] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_ec_condition_property(K, kinds, seed):
    basis, rng = _EC_BASES[K], np.random.default_rng(seed)
    L, R = (_ec_state(basis, rng, kind) for kind in kinds)
    bL, bR = 0.2 * rng.standard_normal(K), 0.2 * rng.standard_normal(K)
    assert abs(_ec_residual(basis, L, R, bL, bR, 1.0)) <= 1e-11


@settings(max_examples=60, deadline=None, database=None)
@given(
    K=st.sampled_from(sorted(_EC_BASES)),
    kinds=st.tuples(*[st.sampled_from(["random", "clustered", "near_eps"])] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_roe_equivalence_property(K, kinds, seed):
    # criterion 5's identities, at its bounds, on the EC condition's kinds of state
    basis, rng = _EC_BASES[K], np.random.default_rng(seed)
    L, R = (_ec_state(basis, rng, kind) for kind in kinds)
    diffusion, rescaling = roe_equivalence_errors(basis, L, R, 1.0)
    assert diffusion <= 1e-9 and rescaling <= 1e-10


def _source(rhs, fluxes, dx):
    """Source term of each cell: the RHS with the flux divergence removed."""
    return rhs + (fluxes[1:] - fluxes[:-1]) / dx


def test_ec_source_flat_bottom_vanishes(basis4):
    rng = np.random.default_rng(2)
    h = random_state_batch(rng, 3, 4)[0]
    b = np.tile(0.3 * rng.standard_normal(4), (3, 1))
    fld = Field(h=h, q=np.zeros((3, 4)), bottom=b, dx=0.1, x_left=0.0)
    for scheme in SchemeKind:
        r = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
        assert np.max(np.abs(_source(*r, fld.dx))) == 0.0


def test_ec_source_matches_direct_formula(basis4):
    rng = np.random.default_rng(3)
    g, dx = 1.2, 0.05
    h = random_state_batch(rng, 3, 4)[0]
    b = 0.2 * rng.standard_normal((3, 4))
    fld = Field(h=h, q=np.zeros((3, 4)), bottom=b, dx=dx, x_left=0.0)
    S = _source(*semidiscrete_rhs(basis4, velocity(basis4, fld), SchemeKind.EC, g), dx)[1]
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
    rhs, _ = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
    assert np.max(np.abs(rhs)) <= 1e-12


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
    interfaces that jump, whose ES2 ratios read its zero jump."""
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
def test_zero_jump_interfaces_carry_the_ec_flux_bytes(scheme, K):
    # where [[V]] = 0 the diffusion is +-0, so the es* flux keeps the bytes
    # of the ec flux; semidiscrete_rhs copies such a flux out of its window
    basis, g = build_basis(K), 1.0
    h, u, B = _mixed_stack(basis, np.random.default_rng(19))
    positivity_check(basis, h)
    V = entropy_vars_at(basis, h, u, B, g)
    zero = ~np.any(V[1:] != V[:-1], axis=-1)
    assert np.array_equal(np.flatnonzero(zero), [2, 3, 4, 7, 8, 9, 10, 13])
    # the same cells mirrored, as a second row of a (2, 17, K) stack
    mirrored = tuple(np.stack([a, a[::-1]]) for a in (h, u, B)), np.stack([zero, zero[::-1]])
    for cells, zero in (((h, u, B), zero), mirrored):
        f = interface_flux(basis, *cells, scheme, g)[0]
        ec = interface_flux(basis, *cells, SchemeKind.EC, g)[0]
        assert f[zero].tobytes() == ec[zero].tobytes()
        assert not np.any(np.all(f[~zero] == ec[~zero], axis=-1))


_WINDOW_STATES = ["lake", "first", "last", "block", "signed_zero", "nan_bottom", "nan_velocity"]


def _window_field(name, K, policy):
    """A 12-cell field whose (h, u, B) jumps sit where the flux window's
    edges and clips matter: none (a lake at rest), one at the first or the
    last interface between interior cells, a random block between two
    uniform ends, or one odd cell in a uniform state: a -0.0 in place of a
    0.0, or a NaN in the bottom or in the velocity."""
    rng = np.random.default_rng(60 + K)
    nx = 12
    h, q = random_state_batch(rng, nx, K)
    B = 0.1 * rng.standard_normal((nx, K))
    ends = {"first": (1, 0), "last": (nx - 1, nx - 2), "block": (4, 8)}
    if name in ends:  # cells before ends[0] copy cell 0, those from ends[1] on copy the last
        lo, hi = ends[name]
        h[:lo], q[:lo], B[:lo] = h[0], q[0], B[0]
        h[hi:], q[hi:], B[hi:] = h[-1], q[-1], B[-1]
    else:
        h[:], q[:], B[:] = h[0], 0.0, B[0] if name == "lake" else 0.0
        if name == "signed_zero":
            B[5, -1] = q[6, -1] = -0.0
        elif name == "nan_bottom":
            B[6, 0] = np.nan
        elif name == "nan_velocity":
            q[6, 0] = np.nan
    return Field(h=h, q=q, bottom=B, dx=1.0 / nx, x_left=0.0, ghost_policy=policy)


def _rhs_outcome(rhs, basis, solved, scheme):
    try:
        dudt, fluxes = rhs(basis, solved, scheme, 1.0)
    except np.linalg.LinAlgError as exc:
        return ("raised", str(exc))
    return dudt.shape, dudt.tobytes(), fluxes.shape, fluxes.tobytes()


@pytest.mark.parametrize("name", _WINDOW_STATES)
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("policy", ["outflow", "periodic"])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_flux_window_matches_every_interface(monkeypatch, scheme, policy, K, name):
    # semidiscrete_rhs runs interface_flux only on the cells around the jumps
    # and copies the edge flux outward; rhs and fluxes must be the bytes of
    # interface_flux on the whole padded stack, a NaN included
    basis = build_basis(K)
    solved = velocity(basis, _window_field(name, K, policy))
    widths = []

    def recorded(basis, h, *args):
        widths.append(len(h))
        return interface_flux(basis, h, *args)

    monkeypatch.setattr(sgswe.schemes, "interface_flux", recorded)
    got = _rhs_outcome(semidiscrete_rhs, basis, solved, scheme)
    assert got == _rhs_outcome(rhs_every_interface, basis, solved, scheme)
    # only the symmetrizer's eigh may fail, on a NaN velocity; otherwise a
    # NaN reaches the rhs
    assert got[0] != "raised" or (scheme is not SchemeKind.EC and name == "nan_velocity")
    if name.startswith("nan") and got[0] != "raised":
        assert np.isnan(np.frombuffer(got[1])).any()
    if name == "lake":
        assert widths == [2]
    elif policy == "outflow":
        assert widths[0] < 16


_BASES = {K: build_basis(K) for K in (1, 2, 3, 5)}


def _byte_window_width(solved):
    """Cells in the window that the (h, u, B) byte jumps of the padded grid
    give, the narrowest window semidiscrete_rhs may take."""
    vel, field = solved
    rows = np.concatenate([ghost_padded(a, field.ghost_policy)
                           for a in (field.h, vel.u, field.bottom)], axis=1)
    jumps = np.flatnonzero(_run_starts(rows)[1:])
    return min(jumps[-1] + 2, field.nx + 3) - max(jumps[0] - 1, 0) + 1 if jumps.size else 2


def test_flux_window_matches_every_interface_on_random_runs(monkeypatch):
    # runs of copied cells, some split by their bottom alone, and under
    # periodic ghosts first and last cells that are copies in different
    # runs, whose wrap widens the window past the byte jumps
    seen = set()
    widths = []

    def recorded(basis, h, *args):
        widths.append(len(h))
        return interface_flux(basis, h, *args)

    monkeypatch.setattr(sgswe.schemes, "interface_flux", recorded)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        K=st.sampled_from([1, 2, 3]),
        lengths=st.lists(st.integers(1, 5), min_size=1, max_size=6).filter(lambda l: sum(l) >= 3),
        splits=st.lists(st.integers(0, 30), max_size=2),
        wrap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(K, lengths, splits, wrap, seed):
        rng, basis = np.random.default_rng(seed), _BASES[K]
        h, q = random_state_batch(rng, len(lengths), K)
        B = 0.1 * rng.standard_normal((len(lengths), K))
        if wrap:
            h[-1], q[-1], B[-1] = h[0], q[0], B[0]
        h, q, B = (np.repeat(a, lengths, axis=0) for a in (h, q, B))
        for cell in splits:
            B[cell % len(B)] += 0.25
        hq = np.concatenate([h, q], axis=1)
        for policy in ("outflow", "periodic"):
            fld = Field(h=h, q=q, bottom=B, dx=1.0 / len(h), x_left=0.0, ghost_policy=policy)
            solved = velocity(basis, fld)
            if np.any(solved[0].runs[1:] & np.all(hq[1:] == hq[:-1], axis=1)):
                seen.add("bottom split")
            for scheme in SchemeKind:
                widths.clear()
                got = _rhs_outcome(semidiscrete_rhs, basis, solved, scheme)
                assert got == _rhs_outcome(rhs_every_interface, basis, solved, scheme)
                if widths[0] > _byte_window_width(solved):
                    assert policy == "periodic"
                    seen.add("widened periodic wrap")

    check()
    assert seen == {"bottom split", "widened periodic wrap"}


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
            rhs, _ = semidiscrete_rhs(basis, solved, scheme, 1.0)
            assert np.max(np.abs(rhs)) <= 1e-12, (scheme, policy)


def test_es1_diffusion_dissipates(basis9):
    rng = np.random.default_rng(5)
    g = 1.0
    for _ in range(25):
        L = random_hyperbolic_state(rng, 9)
        R = random_hyperbolic_state(rng, 9)
        bL, bR = 0.1 * rng.standard_normal(9), 0.1 * rng.standard_normal(9)
        jV = entropy_variables(basis9, *R, bR, g) - entropy_variables(basis9, *L, bL, g)
        f_es1, f_ec = (
            _stack(basis9, (L, R), (bL, bR), scheme, g)[0][0]
            for scheme in (SchemeKind.ES1, SchemeKind.EC)
        )
        d = -2.0 * (f_es1 - f_ec)
        assert float(jV @ d) >= -1e-12


def test_es2_scaling_in_unit_interval(basis4):
    rng = np.random.default_rng(6)
    g = 1.0
    fld = _random_field(rng, 16, 4)
    hp, qp, Bp = (ghost_padded(a, "outflow") for a in (fld.h, fld.q, fld.bottom))
    up = exact_u(basis4, hp, qp)
    V = np.concatenate(
        [-0.5 * np.einsum("nij,nj->ni", p_operator(basis4, up), up) + g * (hp + Bp), up],
        axis=-1,
    )
    T, _ = symmetrizer_eig(basis4, 0.5 * (hp[:-1] + hp[1:]), 0.5 * (up[:-1] + up[1:]), g)
    w_side = np.einsum("nji,nj->ni", T, V[:-1]), np.einsum("nji,nj->ni", T, V[1:])
    wjump = w_side[1] - w_side[0]
    Pi = _es2_pi(wjump[:-2], wjump[1:-1], wjump[2:], w_side[0][1:-1], w_side[1][1:-1])
    assert np.all(Pi >= 0.0) and np.all(Pi <= 1.0)


def test_es2_flat_region_no_nan(basis4):
    # identical states everywhere: all jumps vanish, flux must stay finite
    rng = np.random.default_rng(7)
    st = random_hyperbolic_state(rng, 4)
    B = 0.1 * rng.standard_normal(4)
    f = _stack(basis4, (st,) * 4, (B,) * 4, SchemeKind.ES2, 1.0)[0]
    assert np.all(np.isfinite(f))


def test_per_interface_matches_batched(basis4):
    rng = np.random.default_rng(8)
    g = 1.0
    fld = _random_field(rng, 12, 4)
    solved = velocity(basis4, fld)
    hp, up, Bp = (ghost_padded(a, "outflow") for a in (fld.h, solved[0].u, fld.bottom))
    nx = fld.nx
    for scheme in SchemeKind:
        _, fluxes = semidiscrete_rhs(basis4, solved, scheme, g)
        for j in range(1, nx + 2):
            if scheme is SchemeKind.ES2:  # 4-cell stencil, limited middle interface
                cells, mid = slice(j - 1, j + 3), 1
            else:
                cells, mid = slice(j, j + 2), 0
            flux, _ = interface_flux(basis4, hp[cells], up[cells], Bp[cells], scheme, g)
            assert np.array_equal(flux[mid], fluxes[j - 1])


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_pair_stack_matches_separate_pairs(basis4, scheme):
    rng = np.random.default_rng(14)
    n, g = 7, 1.0
    (hL, qL), (hR, qR) = random_state_batch(rng, n, 4), random_state_batch(rng, n, 4)
    BL, BR = 0.1 * rng.standard_normal((n, 4)), 0.1 * rng.standard_normal((n, 4))
    stacked = _stack(basis4, ((hL, qL), (hR, qR)), (BL, BR), scheme, g)
    assert stacked[0].shape == (n, 1, 8)
    for i in range(n):
        one = _stack(basis4, ((hL[i], qL[i]), (hR[i], qR[i])), (BL[i], BR[i]), scheme, g)
        for name, a, b in zip(("flux", "Ph_bar"), stacked, one):
            assert np.array_equal(a[i], b), name


def _assert_positivity_error(call, cell, factorized):
    """call raises PositivityError naming cell and its first node, whose
    height is -1, before any P(h) is factorized."""
    factorized.clear()
    with pytest.raises(PositivityError) as info:
        call()
    assert (info.value.cell, info.value.node) == (cell, 0)
    assert factorized == []
    return info.value


@pytest.mark.parametrize("policy", ["outflow", "periodic"])
def test_hyperbolicity_error_names_interior_cell(basis4, policy, factorized):
    # the cell's node heights are all -1, so velocity and integrate stop on
    # them before any solve, naming the interior cell and, from integrate,
    # the time
    rng = np.random.default_rng(15)
    fld = _random_field(rng, 12, 4, policy=policy)
    fld.h[5] = [-1.0, 0.0, 0.0, 0.0]
    _assert_positivity_error(lambda: velocity(basis4, fld), 5, factorized)
    error = _assert_positivity_error(
        lambda: integrate(basis4, fld, SchemeKind.ES2, 1.0, 0.45, 0.01), 5, factorized)
    assert error.t == 0.0


def test_hyperbolicity_error_index_from_last_chunk(basis4, monkeypatch, factorized):
    # with the batch split across threads, the P(h) solve still names the
    # global batch index and the interior cell: chunk order is kept
    monkeypatch.setattr(sgswe.linalg, "_WIDTH", 3)
    nx = 5 * sgswe.linalg._MIN_CHUNK // 16 + 1  # five chunks' worth of 4x4 solves
    fld = _random_field(np.random.default_rng(16), nx, 4)
    fld.h[nx - 2] = [-1.0, 0.0, 0.0, 0.0]
    with pytest.raises(HyperbolicityError) as info:
        _p_eig(basis4, fld.h)
    assert info.value.cell == nx - 2
    _assert_positivity_error(lambda: velocity(basis4, fld), nx - 2, factorized)


def test_hyperbolicity_error_names_first_cell_of_a_run(basis4, factorized):
    # the P(h) solve of velocity's runs solves the bad run once and names
    # its first cell through the cells map, as the solve of every cell does
    fld = _random_field(np.random.default_rng(17), 20, 4)
    fld.h[7:12] = [-1.0, 0.0, 0.0, 0.0]
    new = _run_starts(np.concatenate([fld.h, fld.q], axis=1))
    for call in (
        lambda: _p_eig(basis4, fld.h),
        lambda: _p_eig(basis4, fld.h[new], np.flatnonzero(new)),
    ):
        with pytest.raises(HyperbolicityError) as info:
            call()
        assert info.value.cell == 7
    _assert_positivity_error(lambda: velocity(basis4, fld), 7, factorized)


def test_conservation_telescopes(basis4):
    rng = np.random.default_rng(9)
    fld = _random_field(rng, 20, 4)
    for scheme in SchemeKind:
        rhs, fluxes = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
        total = fld.dx * np.sum(rhs[:, :4], axis=0)
        boundary = -(fluxes[-1, :4] - fluxes[0, :4])
        assert np.max(np.abs(total - boundary)) <= 1e-12


def test_conservation_periodic_both_blocks(basis4):
    rng = np.random.default_rng(10)
    fld = _random_field(rng, 20, 4, policy="periodic", bottom_scale=0.0)
    for scheme in SchemeKind:
        rhs, _ = semidiscrete_rhs(basis4, velocity(basis4, fld), scheme, 1.0)
        assert np.max(np.abs(np.sum(rhs, axis=0))) <= 1e-11


def test_numerical_energy_flux_consistency(basis9):
    rng = np.random.default_rng(11)
    g = 1.0
    st = random_hyperbolic_state(rng, 9)
    B = 0.1 * rng.standard_normal(9)
    h, u, Bs = _cells(basis9, (st, st), (B, B))
    F, _ = interface_flux(basis9, h, u, Bs, SchemeKind.EC, g)
    H = interface_energy_flux(basis9, h, u, Bs, F, g)
    assert float(H[0]) == pytest.approx(float(energy_flux(basis9, *st, B, g)), rel=1e-12)


def test_cellwise_energy_balance(basis4):
    rng = np.random.default_rng(12)
    fld = _random_field(rng, 16, 4)
    g = 1.0
    solved = velocity(basis4, fld)
    _, f_ec = semidiscrete_rhs(basis4, solved, SchemeKind.EC, g)
    for scheme in SchemeKind:
        rhs, fluxes = semidiscrete_rhs(basis4, solved, scheme, g)
        V, H = grid_energy_pair(basis4, solved, fluxes, g)
        rate = np.sum(V[1:-1] * rhs, axis=-1)
        div = (H[1:] - H[:-1]) / fld.dx
        if scheme is SchemeKind.EC:
            assert np.max(np.abs(rate + div)) <= 1e-10
        else:
            # F = F_ec - diff / 2, so [[V]] . diff = 2 [[V]] . (F_ec - F)
            vjump_dot_diff = 2.0 * np.sum(np.diff(V, axis=0) * (f_ec - fluxes), axis=-1)
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
            interface_flux(basis, h, u, np.zeros_like(h), scheme, g)[0][1:-1]
            for scheme in (SchemeKind.EC, SchemeKind.ES2)
        )
        worst = max(worst, np.max(np.abs(f_es2 - f_ec)) / np.max(np.abs(f_ec)))
    assert worst <= 1e-13, f"max |F_es2 - F_ec| / max |F_ec| = {worst:.1e}"
