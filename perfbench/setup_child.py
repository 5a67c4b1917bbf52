"""Time the set-up of one ``sgswe run`` in a fresh process.

Usage: python3 perfbench/setup_child.py CONFIG  (with src/ on PYTHONPATH)

Prints the seconds spent on ``import sgswe``, ``load_config``, ``build_basis``
and ``build_experiment``.
"""

import sys
import time

start = time.perf_counter()
import sgswe  # noqa: E402  (the import is part of what is timed)

cfg = sgswe.load_config(sys.argv[1])
basis = sgswe.build_basis(cfg.K)
sgswe.build_experiment(cfg, basis)
print(repr(time.perf_counter() - start))
