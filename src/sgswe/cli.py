"""Command line front end: configs, preset experiments, CSV output.

Config files are flat ``key = value`` text; ``#`` starts a comment.  The
``run`` subcommand integrates the configured experiment and writes one
energy-history CSV plus one snapshot CSV per requested time, all RFC 4180
(CRLF, comma-separated) with floats at full precision.

Exit codes: 0 success, 1 failed --check, 2 bad config, 3 positivity or
hyperbolicity loss, 4 blow-up (non-finite state), 5 dt underflow.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .basis import PceBasis, build_basis, eval_basis, mean_variance
from .core import CellState, Field, physical_flux, project_bottom, velocity
from .entropy import energy_potential
from .errors import (
    BlowUpError,
    ConfigError,
    DtUnderflowError,
    HyperbolicityError,
    PositivityError,
    SolverError,
)
from .schemes import SchemeKind, interface_flux, semidiscrete_rhs
from .timestep import StepRecord, integrate, positivity_check

__all__ = [
    "SolverConfig",
    "load_config",
    "build_experiment",
    "write_snapshot",
    "write_energy_series",
    "run",
    "run_checks",
    "main",
]

EXPERIMENTS = (
    "dam_break_flat",
    "stochastic_bottom",
    "lake_at_rest_perturbation",
    "custom",
)

_CUSTOM_DEFAULTS = {
    "split_x": 0.0,
    "w_left": 2.0,
    "w_right": 1.0,
    "w_left_xi": 0.0,
    "w_right_xi": 0.0,
    "q_left": 0.0,
    "q_right": 0.0,
    "q_left_xi": 0.0,
    "q_right_xi": 0.0,
    "b_const": 0.0,
    "b_xi": 0.0,
}

_INT_KEYS = ("K", "nx")
_FLOAT_KEYS = ("x_left", "x_right", "g", "cfl", "t_final")
_STR_KEYS = ("experiment", "scheme", "boundary", "output_dir")


@dataclass
class SolverConfig:
    experiment: str
    scheme: SchemeKind = SchemeKind.ES2
    K: int = 9
    nx: int = 400
    x_left: float = -1.0
    x_right: float = 1.0
    g: float = 1.0
    cfl: float = 0.45
    t_final: float = 0.4
    snapshot_times: tuple[float, ...] = ()
    boundary: str = "outflow"
    output_dir: str = "out"
    custom: dict = dc_field(default_factory=lambda: dict(_CUSTOM_DEFAULTS))


def _parse_pairs(text: str, origin: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{origin}:{lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _coerce(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from None


def load_config(path: str | Path) -> SolverConfig:
    """Parse and validate a flat key = value config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    pairs = _parse_pairs(text, str(path))

    experiment = pairs.pop("experiment", None)
    if experiment is None:
        raise ConfigError("config is missing required key 'experiment'")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    cfg = SolverConfig(experiment=experiment)

    preset_tf = {"dam_break_flat": 0.4, "stochastic_bottom": 0.8,
                 "lake_at_rest_perturbation": 0.8, "custom": 0.4}
    cfg.t_final = preset_tf[experiment]

    for key, value in pairs.items():
        if key in _INT_KEYS:
            setattr(cfg, key, _coerce(key, value, int))
        elif key in _FLOAT_KEYS:
            setattr(cfg, key, _coerce(key, value, float))
        elif key == "scheme":
            try:
                cfg.scheme = SchemeKind.from_string(value)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        elif key in ("boundary", "output_dir"):
            setattr(cfg, key, value)
        elif key == "snapshot_times":
            cfg.snapshot_times = tuple(
                _coerce(key, part.strip(), float) for part in value.split(",") if part.strip()
            )
        elif key in _CUSTOM_DEFAULTS:
            if experiment != "custom":
                raise ConfigError(f"key {key!r} only applies to the custom experiment")
            cfg.custom[key] = _coerce(key, value, float)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    if "snapshot_times" not in pairs:
        if experiment == "stochastic_bottom" and cfg.t_final > 0.0995:
            cfg.snapshot_times = (0.0995, cfg.t_final)
        else:
            cfg.snapshot_times = (cfg.t_final,)
    validate_config(cfg)
    return cfg


def validate_config(cfg: SolverConfig):
    if cfg.K < 1:
        raise ConfigError(f"K must be >= 1, got {cfg.K}")
    if cfg.nx < 8:
        raise ConfigError(f"nx must be >= 8, got {cfg.nx}")
    if not cfg.t_final > 0.0:
        raise ConfigError(f"t_final must be positive, got {cfg.t_final}")
    if not cfg.cfl > 0.0:
        raise ConfigError(f"cfl must be positive, got {cfg.cfl}")
    if not cfg.x_right > cfg.x_left:
        raise ConfigError("x_right must exceed x_left")
    if cfg.boundary not in ("outflow", "periodic"):
        raise ConfigError(f"unknown boundary {cfg.boundary!r}")
    for ts in cfg.snapshot_times:
        if ts < 0.0 or ts > cfg.t_final:
            raise ConfigError(f"snapshot time {ts} outside [0, {cfg.t_final}]")


# ---------------------------------------------------------------------------
# preset initial data
# ---------------------------------------------------------------------------


def surface_dam_break(x, xi):
    return np.where(np.asarray(x) < 0.0, 2.0 + 0.1 * xi, 1.5 + 0.1 * xi)


def surface_two_levels(x, xi):
    return np.where(np.asarray(x) < 0.0, 1.0, 0.5) + 0.0 * np.asarray(xi)


def bottom_stochastic(x, xi):
    x = np.asarray(x)
    hump = np.where(np.abs(x) < 0.2, 0.125 * (np.cos(5.0 * np.pi * x) + 2.0), 0.125)
    return hump + 0.125 * np.asarray(xi)


def surface_lake_perturbation(x, xi):
    bump = np.where(np.abs(np.asarray(x)) <= 0.05, 0.001 * (np.asarray(xi) + 1.0), 0.0)
    return 1.0 + bump


def bottom_two_bumps(x, xi):
    x = np.asarray(x)
    left = np.where(
        (x > -0.55) & (x < -0.15),
        0.25 * (np.cos(5.0 * np.pi * (x + 0.35)) + 1.0),
        0.0,
    )
    right = np.where(
        (x > 0.25) & (x < 0.45),
        0.125 * (np.cos(10.0 * np.pi * (x - 0.35)) + 1.0),
        0.0,
    )
    return left + right + 0.0 * np.asarray(xi)


def _custom_functions(params):
    def surface(x, xi):
        left = params["w_left"] + params["w_left_xi"] * np.asarray(xi)
        right = params["w_right"] + params["w_right_xi"] * np.asarray(xi)
        return np.where(np.asarray(x) < params["split_x"], left, right)

    def discharge(x, xi):
        left = params["q_left"] + params["q_left_xi"] * np.asarray(xi)
        right = params["q_right"] + params["q_right_xi"] * np.asarray(xi)
        return np.where(np.asarray(x) < params["split_x"], left, right)

    def bottom(x, xi):
        return params["b_const"] + params["b_xi"] * np.asarray(xi) + 0.0 * np.asarray(x)

    return surface, discharge, bottom


def _zero(x, xi):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(xi)).shape)


def initial_functions(cfg: SolverConfig):
    """(surface, discharge, bottom) callables of (x, xi) for the experiment."""
    if cfg.experiment == "dam_break_flat":
        return surface_dam_break, _zero, _zero
    if cfg.experiment == "stochastic_bottom":
        return surface_two_levels, _zero, bottom_stochastic
    if cfg.experiment == "lake_at_rest_perturbation":
        return surface_lake_perturbation, _zero, bottom_two_bumps
    return _custom_functions(cfg.custom)


def build_experiment(cfg: SolverConfig, basis: PceBasis) -> Field:
    """Project the experiment's initial data onto the grid and basis.

    Raises PositivityError when the projected initial height is not positive
    at every quadrature node of every cell.
    """
    dx = (cfg.x_right - cfg.x_left) / cfg.nx
    x_centers = cfg.x_left + dx * (np.arange(cfg.nx) + 0.5)
    surface, discharge, bottom = initial_functions(cfg)
    B = project_bottom(bottom, basis, x_centers)
    h = project_bottom(surface, basis, x_centers) - B
    q = project_bottom(discharge, basis, x_centers)
    ok, where = positivity_check(basis, h)
    if not ok:
        raise PositivityError(
            "initial height not positive at all quadrature nodes",
            cell=where[0],
            node=where[1],
        )
    return Field(h=h, q=q, bottom=B, dx=dx, x_left=cfg.x_left, ghost_policy=cfg.boundary)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_snapshot(basis: PceBasis, field: Field, t: float, path: Path):
    """Snapshot CSV: per-cell mean/std/quantiles of surface and discharge.

    Quantiles (0.5% and 99.5%) are taken over the surrogate evaluated at
    1001 equispaced xi in [-1, 1].
    """
    xi = np.linspace(-1.0, 1.0, 1001)
    table = eval_basis(xi, basis.K)  # (1001, K)

    def stats(coeffs):
        mean, var = mean_variance(coeffs)
        vals = coeffs @ table.T
        q005, q995 = np.quantile(vals, [0.005, 0.995], axis=-1)
        return mean, np.sqrt(var), q005, q995

    w_mean, w_std, w_q005, w_q995 = stats(field.h + field.bottom)
    q_mean, q_std, q_q005, q_q995 = stats(field.q)
    b_mean, b_var = mean_variance(field.bottom)
    b_std = np.sqrt(b_var)

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(
            [
                "x_center", "w_mean", "w_std", "w_q005", "w_q995",
                "q_mean", "q_std", "q_q005", "q_q995", "B_mean", "B_std",
            ]
        )
        for i, x in enumerate(field.x_centers):
            writer.writerow(
                [
                    _fmt(x),
                    _fmt(w_mean[i]), _fmt(w_std[i]), _fmt(w_q005[i]), _fmt(w_q995[i]),
                    _fmt(q_mean[i]), _fmt(q_std[i]), _fmt(q_q005[i]), _fmt(q_q995[i]),
                    _fmt(b_mean[i]), _fmt(b_std[i]),
                ]
            )


def write_energy_series(records: list[StepRecord], path: Path, debug_energy: bool = False):
    """Energy history CSV; relative drift uses the current energy in the
    denominator, with the initial-energy variant added under debug_energy.
    dt and lam are the accepted step and its start-of-step positivity bound
    (0 and inf on the initial row)."""
    if not records:
        return
    e0 = records[0].energy
    header = ["t", "E_total", "relative_energy", "min_node_height", "restarts", "dt", "lam"]
    if debug_energy:
        header.append("relative_energy_initial_denom")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        for rec in records:
            row = [
                _fmt(rec.t),
                _fmt(rec.energy),
                _fmt((rec.energy - e0) / rec.energy),
                _fmt(rec.min_node_height),
                str(rec.restarts),
                _fmt(rec.dt),
                _fmt(rec.lam),
            ]
            if debug_energy:
                row.append(_fmt((rec.energy - e0) / e0))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _exit_code(exc: SolverError) -> int:
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, (HyperbolicityError, PositivityError)):
        return 3
    if isinstance(exc, BlowUpError):
        return 4
    if isinstance(exc, DtUnderflowError):
        return 5
    return 1


def run(cfg: SolverConfig, debug_energy: bool = False) -> int:
    """Integrate the configured experiment, writing CSVs into output_dir.

    A failing run still writes the energy history accumulated so far and
    returns the taxonomy exit code.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    basis = build_basis(cfg.K)

    def on_snapshot(t, field):
        write_snapshot(basis, field, t, out / f"snapshot_t{t:.6g}.csv")

    records: list[StepRecord] = []
    try:
        field = build_experiment(cfg, basis)
        integrate(
            basis,
            field,
            cfg.scheme,
            cfg.g,
            cfg.cfl,
            cfg.t_final,
            snapshot_times=cfg.snapshot_times,
            on_snapshot=on_snapshot,
            records=records,
        )
    except SolverError as exc:
        write_energy_series(records, out / "energy.csv", debug_energy)
        t_reached = records[-1].t if records else 0.0
        print(
            f"error: {exc} (reached t = {_fmt(t_reached)})",
            file=sys.stderr,
        )
        return _exit_code(exc)
    write_energy_series(records, out / "energy.csv", debug_energy)
    last = records[-1]
    print(
        f"{cfg.experiment} [{cfg.scheme.value}] done: t = {_fmt(last.t)}, "
        f"{len(records) - 1} steps, {last.restarts} restarts, outputs in {out}"
    )
    return 0


def run_checks(cfg: SolverConfig) -> int:
    """Deterministic sanity checks on the configured experiment; exit 1 on
    the first failure."""
    checks = []
    basis = build_basis(cfg.K)
    gram = basis.basis_table.T @ (basis.quad_weights[:, None] * basis.basis_table)
    checks.append(("basis orthonormality", float(np.max(np.abs(gram - np.eye(cfg.K)))), 1e-13))

    field = build_experiment(cfg, basis)
    i = cfg.nx // 3
    pair = CellState(field.h[i : i + 2], field.q[i : i + 2])
    u = velocity(basis, pair, 0.0)[0].u
    B = field.bottom[i : i + 2]
    same = interface_flux(basis, pair.h[[0, 0]], u[[0, 0]], B[[0, 0]], SchemeKind.EC, cfg.g)
    f_exact = physical_flux(basis, CellState(pair.h[0], pair.q[0]), cfg.g)
    checks.append(("flux consistency", float(np.max(np.abs(same.flux[0] - f_exact))), 1e-12))

    k = interface_flux(basis, pair.h, u, B, SchemeKind.EC, cfg.g, with_diagnostics=True)
    jV = k.entropy_vars[1] - k.entropy_vars[0]
    psi = energy_potential(basis, pair, cfg.g, u=u)
    u_bar = 0.5 * (u[0] + u[1])
    residual = jV @ k.flux[0] - (psi[1] - psi[0]) - cfg.g * (B[1] - B[0]) @ (k.Ph_bar[0] @ u_bar)
    checks.append(("energy conservation condition", float(abs(residual)), 1e-10))

    r = semidiscrete_rhs(basis, field, cfg.scheme, cfg.g, eps=field.dx)
    total_h_rate = field.dx * np.sum(r.rhs[:, : cfg.K], axis=0)
    boundary_balance = -(r.fluxes[-1, : cfg.K] - r.fluxes[0, : cfg.K])
    checks.append(
        (
            "height conservation telescopes",
            float(np.max(np.abs(total_h_rate - boundary_balance))),
            1e-10,
        )
    )
    checks.append(
        ("rhs finite", 0.0 if np.all(np.isfinite(r.rhs)) else np.inf, 0.5)
    )

    failed = 0
    for name, value, tol in checks:
        ok = value <= tol
        failed += 0 if ok else 1
        print(f"check: {name}: {'ok' if ok else 'FAIL'} ({value:.3e} vs {tol:.0e})")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgswe",
        description="Finite volume solver for the 1D stochastic Galerkin shallow water equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="integrate a configured experiment")
    runp.add_argument("--config", required=True, help="path to key = value config file")
    runp.add_argument("--scheme", help="override scheme: ec, es1 or es2")
    runp.add_argument("--nx", type=int, help="override cell count")
    runp.add_argument("--cfl", type=float, help="override CFL number")
    runp.add_argument("--out", help="override output directory")
    runp.add_argument(
        "--check",
        action="store_true",
        help="run sanity checks on the configured experiment instead of integrating",
    )
    runp.add_argument(
        "--debug-energy",
        action="store_true",
        help="add the initial-energy-denominator drift column to energy.csv",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.scheme is not None:
            try:
                cfg.scheme = SchemeKind.from_string(args.scheme)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if args.nx is not None:
            cfg.nx = args.nx
        if args.cfl is not None:
            cfg.cfl = args.cfl
        if args.out is not None:
            cfg.output_dir = args.out
        validate_config(cfg)
        if args.check:
            return run_checks(cfg)
        return run(cfg, debug_energy=args.debug_energy)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
