"""Solver benchmark: the bundled presets run the way ``sgswe run`` runs them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload, seed-shuffled
    python3 perfbench/run.py --smoke ...            # tiny grids, for the tests

NAME is one of dambreak-es2, dambreak-ec, hump-es2-k5 (and hump-dry with
--smoke).  With --trace 0 the run times fresh-process set-up and repeated
untraced solves for about S seconds (at least one solve) and prints the
end-to-end metrics; the solve timings are given in ref units, which take the
shared host's speed out (see solve.solve), and in plain wall time.
With --trace 1 it makes one untraced and one traced solve, in an order drawn
from the seed, and prints the per-layer metrics.  Every solve is checked
(see solve.check) and the written CSVs are compared byte for byte with
``sgswe run --config`` on the same config.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Details, run records and spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import MODULES, Tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("dambreak-es2", "dambreak-ec", "hump-es2-k5")
SMOKE_ONLY = ("hump-dry",)
SETUP_REPS = 20
CHILD_TIMEOUT_S = 170

CLI_MAIN = "import sys; from sgswe.cli import main; sys.exit(main())"

# End-to-end metrics of the result line; BENCHMARK.json bounds each of them.
# The solve timings are in ref units (see solve.solve): the shared host's
# speed drifts by up to 1.5x over seconds to minutes, and the calibration
# bursts run next to every step take that drift out.
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_ref_s": "ref_s",
    "step_ref_ms_p50": "ref_ms",
    "step_ref_ms_p90": "ref_ms",
    "cell_steps_per_ref_s": "1/ref_s",
    "peak_rss_mb": "MiB",
}
# Printed and recorded but not in the result line: the same timings in plain
# wall time, which carry the host's drift, and the calibration burst itself.
UNBOUNDED_UNITS = {
    "solve_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "cell_steps_per_s": "1/s",
    "burst_ms": "ms",
}

# Per-layer metrics: (span or counter name, field, unit).
SPAN_FIELDS = (
    ("linalg.sym_eig_k", "calls", "count"),
    ("linalg.sym_eig_k", "s", "s"),
    ("linalg.sym_eig_2k", "calls", "count"),
    ("linalg.sym_eig_2k", "s", "s"),
    ("core.velocity", "calls", "count"),
    ("core.velocity", "self_s", "s"),
    ("core.symmetrizer_eig", "calls", "count"),
    ("core.symmetrizer_eig", "self_s", "s"),
    ("schemes.semidiscrete_rhs", "calls", "count"),
    ("schemes.semidiscrete_rhs", "s", "s"),
    ("schemes.semidiscrete_rhs", "self_s", "s"),
    ("timestep.ssp_rk3_step", "self_s", "s"),
    ("timestep.positivity_lambda", "s", "s"),
    ("timestep.cfl_dt", "s", "s"),
    ("timestep.total_energy", "s", "s"),
    ("entropy.energy", "calls", "count"),
    ("entropy.energy", "s", "s"),
    ("basis.p_operator", "calls", "count"),
    ("basis.p_operator", "s", "s"),
    ("cli.write_snapshot", "calls", "count"),
    ("cli.write_snapshot", "s", "s"),
    ("cli.write_energy_series", "s", "s"),
)
SETUP_SPAN_FIELDS = (
    ("basis.build_basis", "s", "s"),
    ("cli.build_experiment", "s", "s"),
)
COUNTERS = (
    ("linalg.sym_eig_k.matrices", "count"),
    ("linalg.sym_eig_2k.matrices", "count"),
    ("core.velocity.desingularized_cells", "count"),
    ("core.symmetrizer_eig.interfaces", "count"),
    ("timestep.accepted_steps", "count"),
    ("timestep.restarts", "count"),
    ("timestep.dt_by_cfl", "count"),
    ("timestep.dt_by_positivity", "count"),
    ("timestep.dt_by_target", "count"),
    ("cli.write_snapshot.bytes", "bytes"),
    ("cli.write_energy_series.bytes", "bytes"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and horizons, for the benchmark's own tests")
    args = parser.parse_args(argv)
    names = WORKLOADS + (SMOKE_ONLY if args.smoke else ())
    if args.workload not in names + ("all",):
        parser.error(f"unknown workload {args.workload!r}; expected all or one of {', '.join(names)}")
    return args


def config_path(name: str, smoke: bool) -> Path:
    return HERE / "configs" / ("smoke" if smoke else "") / f"{name}.cfg"


def reference_dir(name: str, smoke: bool) -> Path:
    return HERE / "reference" / ("smoke" if smoke else "") / name


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    with open("/proc/self/maps") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def provenance(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "git_commit": commit or "unavailable (not a git checkout)",
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads,
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "os_threads_at_end": len(os.listdir("/proc/self/task")),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# subprocess checks
# ---------------------------------------------------------------------------


def measure_setup(cfg_file: Path, reps: int) -> list[float]:
    samples = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), str(cfg_file)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sgswe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cli_outputs(cfg_file: Path) -> tuple[int, Path, bool]:
    """Exit code and output directory of ``sgswe run --config cfg_file``.

    The CLI runs once per source tree, config, Python and numpy version; later
    invocations compare against its kept outputs, which are the same bytes
    because the solver is deterministic.  Returns (code, directory, ran now).
    """
    key = hashlib.sha256("\0".join([source_digest(), cfg_file.read_text(), sys.version,
                                    np.__version__]).encode()).hexdigest()[:20]
    cache = OUT / "cli" / f"{cfg_file.stem}-{key}"
    code_file = cache / "exit_code"
    ran = not code_file.is_file()
    if ran:
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, "run", "--config", str(cfg_file),
                               "--out", str(cache / "csv")],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        code_file.write_text(str(proc.returncode))
    return int(code_file.read_text()), cache / "csv", ran


def cli_parity(cfg_file: Path, bench_out: Path, solver_ok: bool) -> str:
    """Compare the benchmark's CSVs with those of ``sgswe run --config``.

    Returns a description starting with "byte-identical" when every file
    matches, else what differed.
    """
    code, cli_out, ran = cli_outputs(cfg_file)
    if (code == 0) != solver_ok:
        return f"sgswe run exited with {code}"
    ours = sorted(p.name for p in bench_out.glob("*.csv"))
    theirs = sorted(p.name for p in cli_out.glob("*.csv"))
    if ours != theirs:
        return f"file sets differ: {ours} vs {theirs}"
    for name in ours:
        if (bench_out / name).read_bytes() != (cli_out / name).read_bytes():
            return f"{name} differs"
    return f"byte-identical ({len(ours)} files; sgswe run {'ran now' if ran else 'kept from an earlier run'})"


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def _solve_checked(bench, cfg_file, out, reference, tracer=None, calibrate=False):
    """Set up and solve once; the tracer, when given, sees both phases."""
    if tracer is not None:
        tracer.run_id = "setup"
    cfg, basis, initial = bench.setup(cfg_file)
    if tracer is not None:
        tracer.run_id = "solve"
    result = bench.solve(cfg, basis, initial, out, calibrate)
    if tracer is not None:
        tracer.run_id = ""
    result.failures = bench.check(cfg, result, out, reference)
    return cfg, result


def end_to_end(args, name, tag):
    import solve as bench

    cfg_file, reference = config_path(name, args.smoke), reference_dir(name, args.smoke)
    # Half the set-up probes before the solves and half after, so that the
    # median spans the run rather than one moment of the host.
    setup_samples = measure_setup(cfg_file, SETUP_REPS // 2)
    out = OUT / tag / "bench"
    solves, lengths = [], []
    start = time.perf_counter()
    # Another solve starts only if one as long as the median so far still
    # ends within --seconds, so a run lasts at most --seconds or one solve.
    while not solves or time.perf_counter() - start + statistics.median(lengths) <= args.seconds:
        begin = time.perf_counter()
        cfg, result = _solve_checked(bench, cfg_file, out, reference, calibrate=True)
        solves.append(result)
        lengths.append(time.perf_counter() - begin)
    setup_samples += measure_setup(cfg_file, SETUP_REPS - SETUP_REPS // 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    parity = cli_parity(cfg_file, out, solves[-1].error is None)
    if not parity.startswith("byte-identical"):
        solves[-1].failures.append(f"cli parity: {parity}")

    good = [s for s in solves if not s.failures] or solves
    steps = [ms for s in good for ms in s.step_ms]
    ref_steps = [ms for s in good for ms in s.step_ref_ms]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "solve_ref_s": statistics.median(s.solve_ref_s for s in good),
        "step_ref_ms_p50": float(np.percentile(ref_steps, 50)),
        "step_ref_ms_p90": float(np.percentile(ref_steps, 90)),
        "cell_steps_per_ref_s": statistics.median(cfg.nx * s.accepted_steps / s.solve_ref_s
                                                  for s in good),
        "peak_rss_mb": peak_rss_mb,
        "solve_s": statistics.median(s.solve_s for s in good),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_p90": float(np.percentile(steps, 90)),
        "cell_steps_per_s": statistics.median(cfg.nx * s.accepted_steps / s.solve_s for s in good),
        "burst_ms": float(np.median([ms for s in good for ms in s.burst_ms])),
    }
    info = {
        "setup_samples_s": setup_samples,
        "solve_samples_s": [s.solve_s for s in solves],
        "solve_ref_samples_s": [s.solve_ref_s for s in solves],
        "accepted_steps": [s.accepted_steps for s in solves],
        "step_samples": len(steps),
        "step_ms": [[round(ms, 4) for ms in s.step_ms] for s in solves],
        "step_ref_ms": [[round(ms, 4) for ms in s.step_ref_ms] for s in solves],
        "burst_ms": [[round(ms, 4) for ms in s.burst_ms] for s in solves],
        "cli_parity": parity,
    }
    units = END_TO_END_UNITS | UNBOUNDED_UNITS
    return solves, {k: (v, units[k]) for k, v in metrics.items()}, info


def traced(args, name, tag):
    import solve as bench

    cfg_file, reference = config_path(name, args.smoke), reference_dir(name, args.smoke)
    tracer = Tracer()
    results = {}
    for kind in random.Random(args.seed).sample(["plain", "traced"], 2):
        out = OUT / tag / kind
        if kind == "traced":
            tracer.install(bench.sgswe.load_config(cfg_file).K)
            try:
                cfg, results[kind] = _solve_checked(bench, cfg_file, out, reference, tracer)
            finally:
                tracer.uninstall()
        else:
            cfg, results[kind] = _solve_checked(bench, cfg_file, out, reference)
    plain, trc = results["plain"], results["traced"]
    parity = cli_parity(cfg_file, OUT / tag / "plain", plain.error is None)
    if not parity.startswith("byte-identical"):
        plain.failures.append(f"cli parity: {parity}")
    same = (plain.accepted_steps == trc.accepted_steps
            and plain.records[-1].restarts == trc.records[-1].restarts
            and plain.final is not None and trc.final is not None
            and plain.final.h.tobytes() == trc.final.h.tobytes()
            and plain.final.q.tobytes() == trc.final.q.tobytes())
    if not same and plain.error is None:
        trc.failures.append("traced run differs from untraced run")

    spans, setup_spans = tracer.summary("solve"), tracer.summary("setup")
    counts = tracer.counts.get("solve", {})
    steps = counts.get("timestep.accepted_steps", 0)
    metrics = {}
    for span, field, unit in SPAN_FIELDS:
        metrics[f"{span}.{field}"] = (spans.get(span, {}).get(field, 0), unit)
    for span, field, unit in SETUP_SPAN_FIELDS:
        metrics[f"{span}.{field}"] = (setup_spans.get(span, {}).get(field, 0), unit)
    for key, unit in COUNTERS:
        metrics[key] = (counts.get(key, 0), unit)
    for key in ("linalg.sym_eig_k", "linalg.sym_eig_2k"):
        metrics[f"{key}.matrices_per_step"] = (
            counts.get(f"{key}.matrices", 0) / steps if steps else 0, "count/step")
    stage_evals = spans.get("schemes.semidiscrete_rhs", {}).get("calls", 0)
    metrics["timestep.stage_evals"] = (stage_evals, "count")
    metrics["timestep.useful_stage_ratio"] = (3 * steps / stage_evals if stage_evals else 0, "ratio")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (
            sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == module), "s")
    self_sum = sum(v["self_s"] for v in spans.values())
    metrics["trace.solve_s"] = (trc.solve_s, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    metrics["trace.shortfall_frac"] = ((trc.solve_s - self_sum) / trc.solve_s, "ratio")
    metrics["trace.overhead_frac"] = (trc.solve_s / plain.solve_s - 1.0, "ratio")

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"{tag}-spans.jsonl")
    info = {
        "untraced_solve_s": plain.solve_s,
        "order": list(results),
        "traced_matches_untraced": same,
        "cli_parity": parity,
        "span_count": len(tracer.spans),
    }
    return [plain, trc], metrics, info


def run_one(args) -> dict:
    name = args.workload
    tag = f"{'smoke-' if args.smoke else ''}{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(OUT / tag, ignore_errors=True)
    measure = traced if args.trace else end_to_end
    solves, metrics, info = measure(args, name, tag)
    failed = sum(1 for s in solves if s.failures)
    record = {
        "workload": name,
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_frac": failed / len(solves),
        "failures": [f for s in solves for f in s.failures],
        **info,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {name} (seed {args.seed}, trace {args.trace}); record in {OUT / tag}.json")
    for key, (value, unit) in metrics.items():
        note = "  (not bounded; not in the result line)" if key in UNBOUNDED_UNITS else ""
        print(f"  {key} = {value:.6g} {unit}{note}")
    print(f"  failed_frac = {failed / len(solves):.6g} fraction ({failed} of {len(solves)} solves)")
    if "step_samples" in info:
        print(f"  step samples = {info['step_samples']}")
    for failure in sorted(set(record["failures"])):
        print(f"  FAILED ({record['failures'].count(failure)}x): {failure}")
    return {
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: v for k, v in record["metrics"].items() if k not in UNBOUNDED_UNITS},
    }


def run_all(args) -> dict:
    """Each workload in its own process, in an order drawn from the seed."""
    order = random.Random(args.seed).sample(WORKLOADS, len(WORKLOADS))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in order:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}:{key}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgswe" / "__init__.py").is_file():
        print(f"error: no sgswe sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
