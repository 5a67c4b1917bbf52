"""Compare two output trees written by ``tools/capture_outputs.py``.

Usage::

    python3 tools/compare_captures.py A B [--tol TOL] [--tol-column GLOB=TOL ...]

B is the reference.  Every run directory (one holding ``exit_code.txt``)
must be present in both trees, with the same exit code and the same CSV
files.  Differences are measured as perfbench measures them:
|a - b| / max(1, |b|), with NaN equal to NaN and an infinity equal only to
itself (any other pair involving them counts as inf).

- CSVs: the header and the row count must match.  The largest difference is
  printed per run directory, file and column, with the snapshot CSVs of one
  run pooled under ``snapshot_*.csv``.
- ``stdout.txt`` and ``stderr.txt``: the text around the numbers must match;
  the numbers are compared like CSV values.

A column may differ by at most TOL (default 0), or by the TOL of the first
``--tol-column`` whose GLOB matches its name (``fnmatch``, for example
``'*_q005=1e-15'``).  Text numbers use the plain TOL.  The files whose bytes
differ are counted too, so a tolerance of 0 still tells a re-formatted but
equal file apart from a byte-identical one.

Exits 0 when everything is within its tolerance, 1 otherwise, 2 on a usage
error.
"""

from __future__ import annotations

import argparse
import fnmatch
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b")


def difference(a: float, b: float) -> float:
    """|a - b| / max(1, |b|); 0 for equal non-finite values, inf for unequal ones."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b) / max(1.0, abs(b))


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def compare_csv(a: Path, b: Path) -> dict[str, float] | str:
    """Largest difference per column, or why the files cannot be compared."""
    (head_a, rows_a), (head_b, rows_b) = read_csv(a), read_csv(b)
    if head_a != head_b:
        return f"header {','.join(head_a)} != {','.join(head_b)}"
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a)} rows != {len(rows_b)}"
    worst = dict.fromkeys(head_b, 0.0)
    for row_a, row_b in zip(rows_a, rows_b):
        for name, x, y in zip(head_b, row_a, row_b):
            worst[name] = max(worst[name], difference(x, y))
    return worst


def compare_text(a: str, b: str) -> float:
    """Largest difference between the numbers of two texts; inf if the text
    around them, or their count, differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return math.inf
    pairs = zip(NUMBER.findall(a), NUMBER.findall(b))
    return max((difference(float(x), float(y)) for x, y in pairs), default=0.0)


def column_tol(name: str, tol: float, column_tols: list[tuple[str, float]]) -> float:
    return next((t for pattern, t in column_tols if fnmatch.fnmatchcase(name, pattern)), tol)


def compare_run(a: Path, b: Path, tol: float, column_tols: list[tuple[str, float]],
                name: str) -> tuple[list[str], int, bool]:
    """Report lines, files whose bytes differ and whether the run passes."""
    lines, ok = [], True
    code_a, code_b = ((d / "exit_code.txt").read_text().strip() for d in (a, b))
    if code_a != code_b:
        lines.append(f"{name} exit code {code_a} != {code_b}")
        ok = False
    csvs_a, csvs_b = ({p.relative_to(d) for p in d.rglob("*.csv")} for d in (a, b))
    if csvs_a != csvs_b:
        only = sorted(map(str, csvs_a ^ csvs_b))
        lines.append(f"{name} CSV files differ: {', '.join(only)}")
        ok = False
    csvs = sorted(csvs_a & csvs_b)
    files = [Path("stdout.txt"), Path("stderr.txt"), *csvs]
    byte_diffs = sum((a / f).read_bytes() != (b / f).read_bytes() for f in files)

    for stream in ("stdout.txt", "stderr.txt"):
        worst = compare_text((a / stream).read_text(), (b / stream).read_text())
        lines.append(f"{name} {stream} {worst:.3g}")
        ok &= worst <= tol
    pooled: dict[str, dict[str, float]] = {}
    for rel in csvs:
        group = "snapshot_*.csv" if rel.name.startswith("snapshot_") else rel.name
        result = compare_csv(a / rel, b / rel)
        if isinstance(result, str):
            lines.append(f"{name} {rel} {result}")
            ok = False
            continue
        into = pooled.setdefault(group, {})
        for column, worst in result.items():
            into[column] = max(into.get(column, 0.0), worst)
    for group, columns in pooled.items():
        for column, worst in columns.items():
            limit = column_tol(column, tol, column_tols)
            bad = worst > limit
            lines.append(f"{name} {group} {column} {worst:.3g}" + (f" > {limit:g}" if bad else ""))
            ok &= not bad
    return lines, byte_diffs, ok


def parse_column_tol(text: str) -> tuple[str, float]:
    pattern, sep, value = text.rpartition("=")
    if not sep or not pattern:
        raise argparse.ArgumentTypeError(f"expected GLOB=TOL, got {text!r}")
    return pattern, float(value)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, help="the reference capture")
    parser.add_argument("--tol", type=float, default=0.0)
    parser.add_argument("--tol-column", type=parse_column_tol, action="append", default=[],
                        metavar="GLOB=TOL")
    args = parser.parse_args(argv)
    runs_a = {p.parent.relative_to(args.a) for p in args.a.rglob("exit_code.txt")}
    runs_b = {p.parent.relative_to(args.b) for p in args.b.rglob("exit_code.txt")}
    if not runs_b:
        print(f"error: no captured runs under {args.b}", file=sys.stderr)
        return 2
    ok, byte_diffs = runs_a == runs_b, 0
    for run in sorted(runs_a ^ runs_b):
        print(f"{run} captured in only one tree")
    for run in sorted(runs_a & runs_b):
        lines, diffs, run_ok = compare_run(args.a / run, args.b / run, args.tol,
                                           args.tol_column, str(run))
        print("\n".join(lines))
        byte_diffs += diffs
        ok &= run_ok
    print(f"{len(runs_a & runs_b)} runs compared, {byte_diffs} files differ in bytes: "
          + ("within tolerance" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
