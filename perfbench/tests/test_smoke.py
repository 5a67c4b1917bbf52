"""Smoke tests of the benchmark on tiny grids.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Wall-time twins of the calibrated timings, printed but not bounded.
UNBOUNDED = [("solve_s", "s"), ("step_ms_p50", "ms"), ("step_ms_p90", "ms"),
             ("cell_steps_per_s", "1/s"), ("burst_ms", "ms")]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, kind):
    proc = bench("--smoke", "--workload", "all", "--trace", str(trace))
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    expected = {f"{w}:{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in SPEC[kind]:
        assert proc.stdout.count(f"  {metric['name']} = ") == len(WORKLOADS)
        assert all(line.endswith(" " + metric["unit"]) for line in proc.stdout.splitlines()
                   if line.startswith(f"  {metric['name']} = "))
    assert proc.stdout.count("  failed_frac = 0 fraction") == len(WORKLOADS)
    if trace == 0:
        for name, unit in UNBOUNDED:
            line = rf"^  {name} = \S+ {re.escape(unit)}  \(not bounded; not in the result line\)$"
            assert len(re.findall(line, proc.stdout, re.M)) == len(WORKLOADS)


def test_single_workload_prints_exactly_the_end_to_end_metrics():
    result = last_json(bench("--smoke", "--workload", WORKLOADS[0], "--trace", "0"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_overlong_hump_horizon_counts_as_failed():
    proc = bench("--smoke", "--workload", "hump-dry", "--trace", "0")
    result = last_json(proc)
    assert not result["correct"]
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "  failed_frac = 1 fraction" in proc.stdout
    assert "DtUnderflowError" in proc.stdout


def import_solve():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import solve
    finally:
        del sys.path[:2]
    return solve


def test_calibrated_timings_scale_by_the_bursts_around_each_step(tmp_path):
    bench_solve = import_solve()
    cfg, basis, initial = bench_solve.setup(ROOT / "perfbench" / "configs" / "smoke" / "hump-es2-k5.cfg")
    plain = bench_solve.solve(cfg, basis, initial, tmp_path / "plain")
    result = bench_solve.solve(cfg, basis, initial, tmp_path / "cal", calibrate=True)
    assert plain.solve_ref_s is None and plain.step_ref_ms is None and plain.burst_ms is None
    assert result.final.h.tobytes() == plain.final.h.tobytes()
    assert len(result.burst_ms) == len(result.records) == len(result.step_ms) + 1
    bursts = result.burst_ms
    for i, (ms, ref_ms) in enumerate(zip(result.step_ms, result.step_ref_ms)):
        expected = ms * bench_solve.REF_BURST_S * 1e3 / (0.5 * (bursts[i] + bursts[i + 1]))
        assert ref_ms == pytest.approx(expected, rel=1e-12)
    # The bursts are left out of the solve time, so the step times fit in it.
    assert sum(result.step_ms) < result.solve_s * 1e3 < sum(result.step_ms) + sum(bursts)
    scales = [bench_solve.REF_BURST_S * 1e3 / b for b in bursts]
    assert min(scales) * result.solve_s <= result.solve_ref_s <= max(scales) * result.solve_s


def test_perturbed_reference_fails_the_snapshot_check(tmp_path):
    bench_solve = import_solve()
    cfg_file = ROOT / "perfbench" / "configs" / "smoke" / "dambreak-ec.cfg"
    cfg, basis, initial = bench_solve.setup(cfg_file)
    result = bench_solve.solve(cfg, basis, initial, tmp_path / "out")
    reference = ROOT / "perfbench" / "reference" / "smoke" / "dambreak-ec"
    assert bench_solve.check(cfg, result, tmp_path / "out", reference) == []

    name = bench_solve.snapshot_name(cfg.t_final)
    lines = (reference / name).read_bytes().decode().split("\r\n")
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    lines[5] = ",".join(cells)
    (tmp_path / "ref").mkdir()
    (tmp_path / "ref" / name).write_bytes("\r\n".join(lines).encode())
    failures = bench_solve.check(cfg, result, tmp_path / "out", tmp_path / "ref")
    assert len(failures) == 1 and "off reference" in failures[0]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
