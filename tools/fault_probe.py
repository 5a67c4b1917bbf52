"""Count the minor page faults and wall time of repeated solves of one config.

Usage::

    python3 tools/fault_probe.py CONFIG [--solves N]

The script builds CONFIG's basis and initial field once, then runs N
solves of it (default 3) one after the other in this one process.  A solve
is what ``sgswe run`` does after set-up: ``integrate`` to the config's
``t_final``, a snapshot CSV at each snapshot time and the energy CSV, here
written into a temporary directory that is removed at the end.  For each
solve it prints one line with the minor page faults the process took
during it (``resource.getrusage``), its wall seconds and its accepted
steps.  glibc keeps or hands back freed memory by thresholds that move as
a process runs, so the first solve of a process can fault far more often
than the later ones; comparing two checkouts means comparing the same
solve number.

``sgswe`` is imported from the Python path, so
``PYTHONPATH=OTHER/src python3 tools/fault_probe.py CONFIG`` probes another
checkout.  Exits 0, 2 on a bad argument or config, or the solver error's
exit code when a solve fails.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
from pathlib import Path

import sgswe


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def solve(cfg, basis, field, out: Path) -> list:
    """One solve as ``sgswe run`` makes it, writing its CSVs into out."""
    def on_snapshot(t, fld):
        sgswe.cli.write_snapshot(basis, fld, t, out / sgswe.cli._snapshot_name(t))

    records = []
    try:
        sgswe.integrate(basis, field, cfg.scheme, cfg.g, cfg.cfl, cfg.t_final,
                        snapshot_times=cfg.snapshot_times, on_snapshot=on_snapshot, records=records)
    finally:
        sgswe.cli.write_energy_series(records, out / "energy.csv")
    return records


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fault_probe.py", description=__doc__.split("\n")[0])
    parser.add_argument("config", help="path to a key = value config file")
    parser.add_argument("--solves", type=int, default=3, help="solves to run (default 3)")
    args = parser.parse_args(argv)
    if args.solves < 1:
        parser.error("--solves must be at least 1")
    try:
        cfg = sgswe.load_config(args.config)
        basis = sgswe.build_basis(cfg.K)
        field = sgswe.build_experiment(cfg, basis)
        with tempfile.TemporaryDirectory() as tmp:
            for i in range(1, args.solves + 1):
                faults, start = minor_faults(), time.perf_counter()
                records = solve(cfg, basis, field, Path(tmp))
                wall, faults = time.perf_counter() - start, minor_faults() - faults
                print(f"solve {i}: {faults} minor faults, {wall:.3f} s, {len(records) - 1} steps")
    except sgswe.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
