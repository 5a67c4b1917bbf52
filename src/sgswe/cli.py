"""Command line front end: configs, preset experiments, CSV output.

Config files are flat ``key = value`` text; ``#`` starts a comment.  The
``run`` subcommand integrates the configured experiment and writes one
energy-history CSV plus one snapshot CSV per requested time, all RFC 4180
(CRLF, comma-separated) with floats at full precision.

Exit codes: 0 success, 1 failed --check, otherwise the ``exit_code`` of the
raised ``sgswe.errors`` class.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .basis import PceBasis, build_basis, eval_basis, mean_variance
from .core import GHOST_MODES, Field, positivity_check, project_bottom, velocity
from .errors import ConfigError, SolverError
from .linalg import _run_starts
from .schemes import SchemeKind, semidiscrete_rhs
from .timestep import StepRecord, integrate

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

_FLOAT_KEYS = ("x_left", "x_right", "g", "cfl", "t_final")


@dataclass(frozen=True)
class SolverConfig:
    """One run's settings, checked when built; change one with
    dataclasses.replace.  t_final and snapshot_times default to the
    experiment's preset: its horizon, and its early snapshot times that fall
    before t_final followed by t_final itself.  custom holds the custom
    experiment's keys over their defaults, read-only (empty for the other
    experiments).

    Raises ConfigError for any invalid setting.
    """

    experiment: str
    scheme: SchemeKind = SchemeKind.ES2
    K: int = 9
    nx: int = 400
    x_left: float = -1.0
    x_right: float = 1.0
    g: float = 1.0
    cfl: float = 0.45
    t_final: float | None = None
    snapshot_times: tuple[float, ...] | None = None
    boundary: str = "outflow"
    output_dir: str = "out"
    custom: Mapping[str, float] = dc_field(default_factory=dict)

    def __post_init__(self):
        t_final, early, _ = _preset(self.experiment)
        if self.t_final is None:
            object.__setattr__(self, "t_final", t_final)
        snapshots = self.snapshot_times
        if snapshots is None:
            snapshots = tuple(ts for ts in early if ts < self.t_final) + (self.t_final,)
        object.__setattr__(self, "snapshot_times", tuple(snapshots))
        for key in self.custom:
            if key not in _CUSTOM_DEFAULTS:
                raise ConfigError(f"unknown custom key {key!r}")
            if self.experiment != "custom":
                raise ConfigError(f"key {key!r} only applies to the custom experiment")
        custom = {**_CUSTOM_DEFAULTS, **self.custom} if self.experiment == "custom" else {}
        object.__setattr__(self, "custom", MappingProxyType(custom))

        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.nx < 8:
            raise ConfigError(f"nx must be >= 8, got {self.nx}")
        finite = {key: getattr(self, key) for key in _FLOAT_KEYS} | custom
        for key, value in finite.items():
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not self.g > 0.0:
            raise ConfigError(f"g must be positive, got {self.g}")
        if not self.t_final > 0.0:
            raise ConfigError(f"t_final must be positive, got {self.t_final}")
        if not self.cfl > 0.0:
            raise ConfigError(f"cfl must be positive, got {self.cfl}")
        if not 0.0 < (self.x_right - self.x_left) / self.nx < math.inf:
            raise ConfigError("x_right must exceed x_left, with a finite dx > 0")
        if self.boundary not in GHOST_MODES:
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        names = {}
        for ts in self.snapshot_times:
            if not 0.0 <= ts <= self.t_final:
                raise ConfigError(f"snapshot time {ts} outside [0, {self.t_final}]")
            other = names.setdefault(_snapshot_name(ts), ts)
            if other != ts:
                raise ConfigError(f"snapshot times {other} and {ts} share {_snapshot_name(ts)}")


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


# config key -> parser of its value; the custom keys go into SolverConfig.custom
_PARSERS = {
    "K": int,
    "nx": int,
    **dict.fromkeys(_FLOAT_KEYS, float),
    "scheme": SchemeKind.from_string,
    "boundary": str,
    "output_dir": str,
    "snapshot_times": lambda value: tuple(float(ts) for ts in value.split(",") if ts.strip()),
    **dict.fromkeys(_CUSTOM_DEFAULTS, float),
}


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> SolverConfig:
    """Parse and validate a flat key = value config file.

    overrides are key = value string pairs, such as the run flags; they
    replace the file's values and are parsed and validated with them.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    pairs = {**_parse_pairs(text, str(path)), **(overrides or {})}

    experiment = pairs.pop("experiment", None)
    if experiment is None:
        raise ConfigError("config is missing required key 'experiment'")
    fields, custom = {}, {}
    for key, value in pairs.items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            parsed = _PARSERS[key](value)
        except ValueError as exc:
            if key == "scheme":  # its parser's message names the valid schemes
                raise ConfigError(str(exc)) from None
            raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from None
        (custom if key in _CUSTOM_DEFAULTS else fields)[key] = parsed
    return SolverConfig(experiment=experiment, custom=custom, **fields)


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
    def piecewise(var):
        """var_left + var_left_xi xi left of split_x, the _right pair right of it."""
        def value(x, xi):
            left = params[f"{var}_left"] + params[f"{var}_left_xi"] * np.asarray(xi)
            right = params[f"{var}_right"] + params[f"{var}_right_xi"] * np.asarray(xi)
            return np.where(np.asarray(x) < params["split_x"], left, right)
        return value

    def bottom(x, xi):
        return params["b_const"] + params["b_xi"] * np.asarray(xi) + 0.0 * np.asarray(x)

    return piecewise("w"), piecewise("q"), bottom


def _zero(x, xi):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(xi)).shape)


# experiment -> (default t_final, default snapshot times before t_final,
# (surface, discharge, bottom) callables of (x, xi)); custom's callables are
# built from SolverConfig.custom.
_PRESETS = {
    "dam_break_flat": (0.4, (), (surface_dam_break, _zero, _zero)),
    "stochastic_bottom": (0.8, (0.0995,), (surface_two_levels, _zero, bottom_stochastic)),
    "lake_at_rest_perturbation": (0.8, (), (surface_lake_perturbation, _zero, bottom_two_bumps)),
    "custom": (0.4, (), None),
}


def _preset(experiment: str):
    try:
        return _PRESETS[experiment]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(_PRESETS)}"
        ) from None


def build_experiment(cfg: SolverConfig, basis: PceBasis) -> Field:
    """Project the experiment's initial data onto the grid and basis.

    Raises PositivityError when the projected initial height is not positive
    at every quadrature node of every cell.
    """
    dx = (cfg.x_right - cfg.x_left) / cfg.nx
    x_centers = cfg.x_left + dx * (np.arange(cfg.nx) + 0.5)
    surface, discharge, bottom = _preset(cfg.experiment)[2] or _custom_functions(cfg.custom)
    B = project_bottom(bottom, basis, x_centers)
    h = project_bottom(surface, basis, x_centers) - B
    q = project_bottom(discharge, basis, x_centers)
    positivity_check(basis, h)
    return Field(h=h, q=q, bottom=B, dx=dx, x_left=cfg.x_left, ghost_policy=cfg.boundary)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _snapshot_name(t: float) -> str:
    """File name of the snapshot at time t, at 6 significant digits."""
    return f"snapshot_t{t:.6g}.csv"


def _write_csv(path: Path, header: list[str], columns: list):
    """One row per entry of the equal-length columns at %.17g, CRLF line
    ends (newline="" keeps them so on Windows).  Column 0 is formatted per
    row and the others once per run of byte-equal rows, each by one %."""
    table = np.column_stack(columns)
    new = _run_starts(table[:, 1:])
    runs = ((",%.17g" * (table.shape[1] - 1) + "\n") * int(new.sum())
            % tuple(table[new, 1:].ravel().tolist())).split("\n")
    firsts = ("%.17g\n" * len(table) % tuple(table[:, 0].tolist())).split("\n")
    rows = [first + runs[i] for first, i in zip(firsts, (np.cumsum(new) - 1).tolist())]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n" + "\r\n".join(rows) + "\r\n")


def write_snapshot(basis: PceBasis, field: Field, t: float, path: Path):
    """Snapshot CSV: per-cell mean/std/quantiles of surface and discharge.

    *_q005 and *_q995 are np.quantile's linear 0.5% and 99.5% quantiles of the
    surrogate at 1001 equispaced xi in [-1, 1]; their positions 5 and 995 are
    integers, so they are the 6th and 996th smallest values (NaN if any is).
    Each run of byte-equal coefficient rows is evaluated once, by np.einsum:
    no BLAS call, so no OpenBLAS thread wakes, and a row's bits are its own.
    """
    # (K, 1001) in C order: einsum's bits depend on the table's layout
    table_t = eval_basis(np.linspace(-1.0, 1.0, 1001), basis.K).T.copy()

    def stats(coeffs):
        mean, var = mean_variance(coeffs)
        new = _run_starts(coeffs)
        srt = np.einsum("ik,kj->ij", coeffs[new], table_t)
        srt.sort(axis=-1)
        lo, hi = srt[:, [5, 995]], srt[:, [6, 996]]  # np.quantile's lerp, weight 0: -0.0 -> 0.0
        q = np.where(np.isnan(srt[:, 1000:]), np.nan, lo + (hi - lo) * 0.0)[np.cumsum(new) - 1]
        return mean, np.sqrt(var), q[:, 0], q[:, 1]

    b_mean, b_var = mean_variance(field.bottom)
    header = ["x_center", "w_mean", "w_std", "w_q005", "w_q995",
              "q_mean", "q_std", "q_q005", "q_q995", "B_mean", "B_std"]
    columns = [field.x_centers, *stats(field.h + field.bottom), *stats(field.q),
               b_mean, np.sqrt(b_var)]
    _write_csv(path, header, columns)


def write_energy_series(records: list[StepRecord], path: Path):
    """Energy history CSV; relative drift uses the current energy in the
    denominator.  dt and lam are the accepted step and its start-of-step
    positivity bound (0 and inf on the initial row)."""
    if not records:
        return

    def col(name):
        return [getattr(rec, name) for rec in records]

    e = np.array(col("energy"))
    header = ["t", "E_total", "relative_energy", "min_node_height", "restarts", "dt", "lam"]
    columns = [col("t"), e, (e - e[0]) / e, col("min_node_height"), col("restarts"),
               col("dt"), col("lam")]
    _write_csv(path, header, columns)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def run(cfg: SolverConfig) -> int:
    """Integrate the configured experiment, writing CSVs into output_dir.

    A failing run still writes the energy history accumulated so far and
    returns the error's exit code.
    """
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    basis = build_basis(cfg.K)

    def on_snapshot(t, field):
        write_snapshot(basis, field, t, out / _snapshot_name(t))

    records: list[StepRecord] = []
    try:
        field = build_experiment(cfg, basis)
        integrate(basis, field, cfg.scheme, cfg.g, cfg.cfl, cfg.t_final,
                  snapshot_times=cfg.snapshot_times, on_snapshot=on_snapshot, records=records)
    except SolverError as exc:
        t_reached = records[-1].t if records else 0.0
        print(f"error: {exc} (reached t = {t_reached:.17g})", file=sys.stderr)
        return exc.exit_code
    finally:
        write_energy_series(records, out / "energy.csv")
    last = records[-1]
    print(
        f"{cfg.experiment} [{cfg.scheme.value}] done: t = {last.t:.17g}, "
        f"{len(records) - 1} steps, {last.restarts} restarts, outputs in {out}"
    )
    return 0


def run_checks(cfg: SolverConfig) -> int:
    """Check the configured experiment before a long run; returns 1 if its
    initial right-hand side is not finite.  Building the initial field and
    its right-hand side raises the solver errors of a dry or non-hyperbolic
    start."""
    basis = build_basis(cfg.K)
    solved = velocity(basis, build_experiment(cfg, basis))
    rhs, _ = semidiscrete_rhs(basis, solved, cfg.scheme, cfg.g)
    bad = int(np.count_nonzero(~np.isfinite(rhs)))
    verdict = f"FAIL ({bad} non-finite entries)" if bad else "ok"
    print(f"check: rhs finite: {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgswe",
        description="Finite volume solver for the 1D stochastic Galerkin shallow water equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="integrate a configured experiment")
    runp.add_argument("--config", required=True, help="path to key = value config file")
    runp.add_argument("--scheme", help="override scheme: ec, es1 or es2")
    runp.add_argument("--nx", help="override cell count")
    runp.add_argument("--cfl", help="override CFL number")
    runp.add_argument("--out", help="override output directory")
    runp.add_argument(
        "--check",
        action="store_true",
        help="run sanity checks on the configured experiment instead of integrating",
    )
    args = parser.parse_args(argv)

    flags = {"scheme": args.scheme, "nx": args.nx, "cfl": args.cfl, "output_dir": args.out}
    try:
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        if args.check:
            return run_checks(cfg)
        return run(cfg)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
