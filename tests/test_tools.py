"""tools/compare_captures.py on small hand-made capture trees,
tools/capture_outputs.py on one tiny config and tools/fault_probe.py on a
smoke config."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_captures = _load("compare_captures")
capture_outputs = _load("capture_outputs")
fault_probe = _load("fault_probe")

SNAPSHOT = "x_center,w_mean,w_q005\r\n-0.5,1.5,{q}\r\n0.5,nan,-inf\r\n"
ENERGY = "t,E_total\r\n0,2.5\r\n0.01,{e}\r\n"


def _capture(root, q="1.25", e="2.5", code=0, stderr="error: dt 1e-14 (reached t = 0.75)\n"):
    run = root / "cfg" / "run"
    (run / "out").mkdir(parents=True)
    (run / "out" / "snapshot_t0.1.csv").write_text(SNAPSHOT.format(q=q), newline="")
    (run / "out" / "energy.csv").write_text(ENERGY.format(e=e), newline="")
    (run / "stdout.txt").write_text("wrote 2 files\n")
    (run / "stderr.txt").write_text(stderr)
    (run / "exit_code.txt").write_text(f"{code}\n")
    return root


def _main(a, b, *flags):
    return compare_captures.main([str(a), str(b), *flags])


def test_identical_trees_pass_at_zero_tolerance(tmp_path, capsys):
    assert _main(_capture(tmp_path / "a"), _capture(tmp_path / "b")) == 0
    assert capsys.readouterr().out.endswith("1 runs compared, 0 files differ in bytes: "
                                            "within tolerance\n")


@pytest.mark.parametrize("flags, want", [
    ([], 1), (["--tol", "1e-5"], 1), (["--tol", "1e-3"], 0),
    (["--tol-column", "*_q005=1e-3"], 0), (["--tol", "1e-3", "--tol-column", "w_*=1e-5"], 1),
])
def test_column_tolerance(tmp_path, capsys, flags, want):
    # w_q005 moves by 1e-4 relative to max(1, |b|) = 1.25
    a = _capture(tmp_path / "a", q=repr(1.25 + 1.25e-4))
    assert _main(a, _capture(tmp_path / "b"), *flags) == want
    out = capsys.readouterr().out
    assert "cfg/run snapshot_*.csv w_q005 0.0001" in out
    assert "cfg/run energy.csv E_total 0\n" in out


@pytest.mark.parametrize("change", ["exit", "stderr_text", "stderr_number", "nan", "rows"])
def test_mismatches_fail(tmp_path, change):
    a = {"exit": dict(code=5), "stderr_text": dict(stderr="error: dt 1e-14 (t = 0.75)\n"),
         "stderr_number": dict(stderr="error: dt 1e-14 (reached t = 0.76)\n"),
         "nan": dict(q="nan"), "rows": {}}[change]
    a = _capture(tmp_path / "a", **a)
    if change == "rows":
        (a / "cfg/run/out/energy.csv").write_text(ENERGY.format(e="2.5") + "0.02,2.5\r\n")
    assert _main(a, _capture(tmp_path / "b"), "--tol", "1e-3") == 1


def test_stderr_numbers_compare_numerically(tmp_path):
    a = _capture(tmp_path / "a", stderr="error: dt 1.0000000000000002e-14 (reached t = 0.75)\n")
    assert _main(a, _capture(tmp_path / "b")) == 1
    assert _main(a, _capture(tmp_path / "c"), "--tol", "1e-15") == 0


def test_capture_rejects_bad_arguments_and_writes_nothing(tmp_path, capsys):
    assert capture_outputs.main([str(ROOT)]) == 2
    assert capsys.readouterr().err == "usage: capture_outputs.py SRC OUT\n"
    assert not any(tmp_path.iterdir())
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("earlier capture\n")
    assert capture_outputs.main([str(ROOT), str(out)]) == 2
    assert "exists and is not an empty directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert [p.name for p in out.iterdir()] == ["kept.txt"]


def test_capture_of_one_config(tmp_path, monkeypatch, capsys):
    # SRC holds one config and this checkout's package; no parity configs
    src = tmp_path / "checkout"
    (src / "perfbench" / "configs").mkdir(parents=True)
    (src / "perfbench" / "configs" / "tiny.cfg").write_text(
        "experiment = dam_break_flat\nK = 2\nnx = 16\nt_final = 0.01\n")
    (src / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (tmp_path / "parity").mkdir()
    monkeypatch.setattr(capture_outputs, "PARITY", tmp_path / "parity")
    out = tmp_path / "capture"
    assert capture_outputs.main([str(src), str(out)]) == 0
    assert capsys.readouterr().out == "tiny run: exit 0\ntiny check: exit 0\n"
    assert sorted(p.name for p in out.iterdir()) == ["tiny"]
    logs = ["exit_code.txt", "stderr.txt", "stdout.txt"]
    run, check = out / "tiny" / "run", out / "tiny" / "check"
    assert sorted(p.name for p in run.iterdir()) == sorted(logs + ["out"])
    assert sorted(p.name for p in (run / "out").iterdir()) == ["energy.csv", "snapshot_t0.01.csv"]
    assert (run / "stdout.txt").read_text().endswith(", outputs in out\n")
    assert sorted(p.name for p in check.iterdir()) == logs
    assert (check / "stdout.txt").read_text() == "check: rhs finite: ok\n"
    for mode in (run, check):
        assert (mode / "exit_code.txt").read_text() == "0\n"
        assert (mode / "stderr.txt").read_text() == ""
    assert sorted(p.name for p in src.iterdir()) == ["perfbench", "src"]
    assert [p.name for p in (src / "perfbench" / "configs").iterdir()] == ["tiny.cfg"]


def test_fault_probe_of_a_smoke_config(tmp_path, monkeypatch, capsys):
    # two solves of one process, one line each; the CSVs go to a temporary
    # directory, so the working directory stays empty
    monkeypatch.chdir(tmp_path)
    cfg = ROOT / "perfbench" / "configs" / "smoke" / "dambreak-es2.cfg"
    assert fault_probe.main([str(cfg), "--solves", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["solve 1", "solve 2"]
    for line in lines:
        assert re.fullmatch(r"solve \d: \d+ minor faults, \d+\.\d{3} s, \d+ steps", line)
    assert len({line.rsplit(", ", 1)[1] for line in lines}) == 1  # both reach t_final alike
    assert not any(tmp_path.iterdir())


def test_fault_probe_rejects_bad_arguments(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        fault_probe.main([str(tmp_path / "missing.cfg"), "--solves", "0"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: --solves must be at least 1\n")
    assert fault_probe.main([str(tmp_path / "missing.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config ")
