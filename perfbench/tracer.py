"""Span tracer that wraps the public functions of the sgswe modules.

The package binds names with ``from .x import y``, so one function object
can be reachable under several module attributes (``sgswe.core.sym_eig``,
``sgswe.linalg.sym_eig``, ...).  ``Tracer.install`` replaces the function at
every ``sgswe`` module attribute that holds it and ``Tracer.uninstall`` puts
the originals back, so nothing under ``src/`` is edited.

Each call becomes one span ``(name, start, end, parent, run_id)``.  Spans are
kept in memory; ``write_spans`` writes them out once the benchmark ends.  A
span's self time is its duration minus the durations of its direct children.
Counters are updated at the same call boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

MODULES = ("basis", "linalg", "core", "entropy", "schemes", "timestep", "cli")


def _matrices(shape) -> int:
    return math.prod(shape[:-2])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.run_id = ""
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._K = 0
        self._last_cfl_dt = math.nan

    # -- installation -------------------------------------------------------

    def install(self, basis_size: int):
        """Wrap every public function of the traced modules."""
        self._K = basis_size
        package = [m for name, m in sys.modules.items()
                   if (name == "sgswe" or name.startswith("sgswe.")) and m is not None]
        for short in MODULES:
            module = sys.modules[f"sgswe.{short}"]
            for fname in module.__all__:
                orig = getattr(module, fname)
                if not inspect.isfunction(orig):
                    continue
                wrapper = self._wrap(short, fname, orig)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, module: str, fname: str, fn):
        name = f"{module}.{fname}"
        label = self._label_sym_eig if name == "linalg.sym_eig" else None
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = label(args, kwargs) if label else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.run_id)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- counters -----------------------------------------------------------

    def _count(self, key: str, field: str, amount: int = 1):
        self.counts.setdefault(self.run_id, defaultdict(int))[f"{key}.{field}"] += amount

    def _label_sym_eig(self, args, kwargs):
        shape = _arg(args, kwargs, 0, "A").shape
        n = shape[-1]
        key = {self._K: "sym_eig_k", 2 * self._K: "sym_eig_2k"}.get(n, "sym_eig_other")
        self._count(f"linalg.{key}", "matrices", _matrices(shape))
        return f"linalg.{key}"

    def _after_core_velocity(self, args, kwargs, out):
        self._count("core.velocity", "desingularized_cells", int(out[0].desingularized.sum()))

    def _after_core_symmetrizer_eig(self, args, kwargs, out):
        h_bar = _arg(args, kwargs, 1, "h_bar")
        self._count("core.symmetrizer_eig", "interfaces", math.prod(h_bar.shape[:-1]))

    def _after_timestep_cfl_dt(self, args, kwargs, out):
        self._last_cfl_dt = out

    def _after_timestep_ssp_rk3_step(self, args, kwargs, out):
        """Classify what set dt: restarts, then the CFL bound, then 0.9 lambda_0."""
        self._count("timestep", "accepted_steps")
        self._count("timestep", "restarts", out.restarts)
        if out.restarts > 0:
            cause = "positivity"
        elif out.dt == self._last_cfl_dt:
            cause = "cfl"
        elif out.dt == 0.9 * out.lam:
            cause = "positivity"
        else:
            cause = "target"
        self._count("timestep", f"dt_by_{cause}")

    def _after_cli_write_snapshot(self, args, kwargs, out):
        self._count("cli.write_snapshot", "bytes", os.path.getsize(_arg(args, kwargs, 3, "path")))

    def _after_cli_write_energy_series(self, args, kwargs, out):
        self._count("cli.write_energy_series", "bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))

    # -- aggregation --------------------------------------------------------

    def summary(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, rid = span
            if rid == run_id and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, span in enumerate(self.spans):
            name, start, end, parent, rid = span
            if rid != run_id:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)

    def write_spans(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run_id": rid}) + "\n")
