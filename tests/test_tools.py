"""tools/compare_captures.py on small hand-made capture trees."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_captures.py"
_spec = importlib.util.spec_from_file_location("compare_captures", TOOL)
compare_captures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_captures)

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
