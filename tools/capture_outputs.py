"""Capture what ``sgswe run`` and ``sgswe run --check`` produce on the bundled configs.

Usage::

    python3 tools/capture_outputs.py SRC OUT

SRC is the root of an sgswe checkout.  For every config in
``SRC/perfbench/configs/``, ``SRC/perfbench/configs/smoke/`` and ``parity/``
beside this script, the script runs that checkout's CLI twice, once plainly
and once with ``--check``, each in a directory of its own under OUT
(``OUT/<config>/run``, ``OUT/<config>/check``, with ``smoke/`` or ``parity/``
in front of the names of those configs).  The ``parity/`` configs are read
from this script's checkout, not from SRC, so an older checkout is captured
on the same set.  They add the schemes, boundaries and horizons that the
benchmark configs leave out: ``es1``, periodic ghosts, the lake at rest, the
hump at ``K=9`` and a periodic hump whose run stops with exit 5.

Each directory keeps the CSVs the run wrote (under ``out/``),
``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.  The output directory
is passed to the CLI as the relative path ``out``, so nothing in the
captured text depends on where OUT is, and the captures of two checkouts
can be compared with ``diff -r``.

The configs are only read; nothing is written under SRC.  The runs go one
after the other.  OUT must be empty or not exist yet; otherwise the script
writes nothing and exits with status 2.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

CLI_MAIN = "import sys; from sgswe.cli import main; sys.exit(main())"
PARITY = Path(__file__).resolve().parent / "parity"


def capture(src: Path, cfg: Path, dest: Path, flags: list[str]) -> int:
    dest.mkdir(parents=True)
    path = [str(src / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, "run", "--config", str(cfg), "--out", "out", *flags],
        cwd=dest, env=env, capture_output=True, text=True,
    )
    (dest / "stdout.txt").write_text(proc.stdout)
    (dest / "stderr.txt").write_text(proc.stderr)
    (dest / "exit_code.txt").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: capture_outputs.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"error: {out} exists and is not an empty directory", file=sys.stderr)
        return 2
    configs = src / "perfbench" / "configs"
    paths = sorted(configs.glob("*.cfg")) + sorted(configs.glob("smoke/*.cfg"))
    if not paths:
        print(f"error: no configs under {configs}", file=sys.stderr)
        return 2
    runs = [(cfg, cfg.relative_to(configs).with_suffix("")) for cfg in paths]
    runs += [(cfg, Path("parity", cfg.stem)) for cfg in sorted(PARITY.glob("*.cfg"))]
    out.mkdir(parents=True, exist_ok=True)
    for cfg, name in runs:
        for mode, flags in (("run", []), ("check", ["--check"])):
            code = capture(src, cfg, out / name / mode, flags)
            print(f"{name} {mode}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
