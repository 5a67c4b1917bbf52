"""One benchmark solve through the calls ``sgswe run`` makes, plus its checks.

``solve`` runs ``integrate`` (with snapshot writes) and ``write_energy_series``
on a built experiment and times them, optionally also in host-independent
``ref`` units measured against a calibration burst run at every step;
``check`` then tests the result.
Every sgswe function is looked up on the package at call time, so a traced
run that has replaced the package attributes goes through the wrappers.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sgswe

# Height mass of each chaos mode must not move by more than this share of the
# initial mean mass; waves stay inside the domain on every horizon used here.
MASS_TOL = 1e-12
# es1/es2: energy may rise from one record to the next by this share at most.
ENERGY_RISE_TOL = 1e-12
# ec: |E(T) - E(0)| / E(T), the same bound acceptance criterion 6 uses.
EC_DRIFT_TOL = 1e-3
# Final snapshot against the stored reference: |a - b| <= tol * max(1, |b|).
SNAPSHOT_TOL = 1e-6


# Reference duration of one calibration burst: timings in ``ref`` units are
# what they would be on a host that runs the burst in exactly this long.
REF_BURST_S = 5e-3

_rng = np.random.default_rng(20231006)
_BURST_MATRICES = _rng.standard_normal((40, 18, 18))
_BURST_MATRICES += _BURST_MATRICES.transpose(0, 2, 1)


def burst() -> float:
    """Run one fixed calibration burst and return its wall time in seconds.

    The burst is an interpreted integer loop plus a batched ``eigh`` of forty
    fixed 18x18 matrices, the two kinds of work a solve step is made of.  It
    uses no sgswe code, so a change to the solver does not change it, while
    a change in the speed of the shared host slows the burst and the solver
    alike.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    np.linalg.eigh(_BURST_MATRICES)
    return time.perf_counter() - start


class StampedRecords(list):
    """Record list that timestamps every append ``integrate`` makes.

    With ``calibrate`` set, each append also runs one calibration burst and
    leaves the time it takes out of the stamps, so that consecutive stamps
    measure the solver alone and ``bursts`` the host's speed at each step.
    """

    def __init__(self, calibrate: bool = False):
        super().__init__()
        self.calibrate = calibrate
        self.stamps: list[float] = []
        self.bursts: list[float] = []
        self.excluded_s = 0.0

    def append(self, record):
        now = time.perf_counter()
        self.stamps.append(now - self.excluded_s)
        if self.calibrate:
            self.bursts.append(burst())
            self.excluded_s += time.perf_counter() - now
        super().append(record)


@dataclass
class Solve:
    solve_s: float
    step_ms: list[float]
    solve_ref_s: float | None
    step_ref_ms: list[float] | None
    burst_ms: list[float] | None
    records: list
    initial: object
    final: object | None
    error: str | None
    failures: list[str] = field(default_factory=list)

    @property
    def accepted_steps(self) -> int:
        return len(self.records) - 1


def snapshot_name(t: float) -> str:
    return f"snapshot_t{t:.6g}.csv"


def setup(path: Path):
    """The set-up calls of ``sgswe run``: config, basis, initial field."""
    cfg = sgswe.load_config(path)
    basis = sgswe.build_basis(cfg.K)
    return cfg, basis, sgswe.build_experiment(cfg, basis)


def solve(cfg, basis, initial, out: Path, calibrate: bool = False) -> Solve:
    """Time integrate (with snapshot writes) plus write_energy_series.

    Mirrors ``sgswe.cli.run``: a SolverError still writes the energy history
    gathered so far and is reported in ``Solve.error``.

    With ``calibrate`` set, a calibration burst runs at every record, outside
    the timed region, and every stretch of solver time between two bursts is
    also given in ``ref`` units: multiplied by ``REF_BURST_S`` over the mean of
    the bursts around it.  The host's speed then cancels out of the ``ref``
    timings.
    """
    out.mkdir(parents=True, exist_ok=True)

    def on_snapshot(t, fld):
        sgswe.cli.write_snapshot(basis, fld, t, out / snapshot_name(t))

    records = StampedRecords(calibrate)
    final, error = None, None
    start = time.perf_counter()
    try:
        final, _ = sgswe.integrate(
            basis, initial, cfg.scheme, cfg.g, cfg.cfl, cfg.t_final,
            snapshot_times=cfg.snapshot_times, on_snapshot=on_snapshot, records=records,
        )
    except sgswe.SolverError as exc:
        error = f"{type(exc).__name__}: {exc}"
    sgswe.cli.write_energy_series(records, out / "energy.csv")
    end = time.perf_counter() - records.excluded_s
    steps = np.diff(records.stamps)
    solve_ref_s = step_ref_ms = burst_ms = None
    if calibrate and records.bursts:
        bursts = np.array(records.bursts)
        scale = REF_BURST_S / (0.5 * (bursts[:-1] + bursts[1:]))
        step_ref = steps * scale
        # integrate's prologue and the energy CSV take the nearest burst.
        solve_ref_s = float((records.stamps[0] - start) * REF_BURST_S / bursts[0]
                            + step_ref.sum()
                            + (end - records.stamps[-1]) * REF_BURST_S / bursts[-1])
        step_ref_ms = list(step_ref * 1e3)
        burst_ms = list(bursts * 1e3)
    return Solve(end - start, list(steps * 1e3), solve_ref_s, step_ref_ms, burst_ms,
                 list(records), initial, final, error)


def _read_table(path: Path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


def check(cfg, result: Solve, out: Path, reference: Path | None) -> list[str]:
    """Return the names of the failed correctness checks (empty when all pass)."""
    if result.error is not None:
        return [f"horizon not reached: {result.error}"]
    failures = []
    final, initial, records = result.final, result.initial, result.records
    if records[-1].t != cfg.t_final:
        failures.append(f"horizon: stopped at t={records[-1].t!r}")
    if not (np.all(np.isfinite(final.h)) and np.all(np.isfinite(final.q))):
        failures.append("state not finite")
    min_h = min(rec.min_node_height for rec in records)
    if not min_h > 0.0:
        failures.append(f"min node height {min_h:.3e} <= 0")

    mass0 = initial.dx * initial.h.sum(axis=0)
    drift = np.max(np.abs(final.dx * final.h.sum(axis=0) - mass0))
    if drift > MASS_TOL * abs(mass0[0]):
        failures.append(f"height mass drift {drift:.3e}")

    energies = np.array([rec.energy for rec in records])
    if cfg.scheme is sgswe.SchemeKind.EC:
        rel = abs(energies[-1] - energies[0]) / abs(energies[-1])
        if rel > EC_DRIFT_TOL:
            failures.append(f"ec energy drift {rel:.3e}")
    else:
        rise = np.max(np.diff(energies) / np.abs(energies[:-1]))
        if rise > ENERGY_RISE_TOL:
            failures.append(f"energy rose by {rise:.3e}")

    name = snapshot_name(cfg.t_final)
    if reference is None or not (reference / name).is_file():
        failures.append(f"no reference snapshot {name}")
    else:
        head, got = _read_table(out / name)
        ref_head, ref = _read_table(reference / name)
        if head != ref_head or got.shape != ref.shape:
            failures.append("final snapshot layout differs from reference")
        else:
            err = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
            if err > SNAPSHOT_TOL:
                failures.append(f"final snapshot off reference by {err:.3e}")
    return failures
