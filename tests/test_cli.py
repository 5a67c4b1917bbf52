"""Config parsing, preset experiments, CSV output, and exit codes."""

import csv
import dataclasses
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conftest
import sgswe
from sgswe import (
    BlowUpError,
    ConfigError,
    DtUnderflowError,
    HyperbolicityError,
    PositivityError,
    SchemeKind,
    SolverConfig,
    build_basis,
    build_experiment,
    load_config,
    mean_variance,
)
from sgswe.basis import eval_basis
from sgswe.cli import main, run, run_checks, write_energy_series, write_snapshot
from sgswe.core import Field
from sgswe.timestep import StepRecord, integrate

from conftest import energy_series_oracle, snapshot_oracle


def write_cfg(tmp_path: Path, text: str, name: str = "run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path: Path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_load_config_dam_break_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "experiment = dam_break_flat\n"))
    assert cfg.experiment == "dam_break_flat"
    assert cfg.scheme is SchemeKind.ES2
    assert (cfg.K, cfg.nx) == (9, 400)
    assert (cfg.x_left, cfg.x_right, cfg.g, cfg.cfl) == (-1.0, 1.0, 1.0, 0.45)
    assert cfg.t_final == 0.4
    assert cfg.snapshot_times == (0.4,)
    assert cfg.boundary == "outflow"


def test_load_config_stochastic_bottom_snapshot_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "experiment = stochastic_bottom\n"))
    assert cfg.t_final == 0.8
    assert cfg.snapshot_times == (0.0995, 0.8)
    short = load_config(
        write_cfg(tmp_path, "experiment = stochastic_bottom\nt_final = 0.05\n", "s.cfg")
    )
    assert short.snapshot_times == (0.05,)


def test_hand_built_config_takes_preset_defaults():
    cfg = SolverConfig(experiment="stochastic_bottom")
    assert cfg.t_final == 0.8
    assert cfg.snapshot_times == (0.0995, 0.8)
    assert SolverConfig(experiment="stochastic_bottom", t_final=0.05).snapshot_times == (0.05,)
    assert SolverConfig(experiment="dam_break_flat").snapshot_times == (0.4,)
    with pytest.raises(ConfigError, match="unknown experiment"):
        SolverConfig(experiment="dam_brake")


def test_load_config_overrides_and_comments(tmp_path):
    text = """
    # comment line
    experiment = dam_break_flat
    scheme = ec   # trailing comment
    K = 5
    nx = 64
    cfl = 0.3
    t_final = 0.2
    snapshot_times = 0.1, 0.2
    boundary = periodic
    output_dir = results
    """
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.scheme is SchemeKind.EC
    assert (cfg.K, cfg.nx, cfg.cfl, cfg.t_final) == (5, 64, 0.3, 0.2)
    assert cfg.snapshot_times == (0.1, 0.2)
    assert cfg.boundary == "periodic"
    assert cfg.output_dir == "results"


def test_load_config_overrides_replace_file_values(tmp_path):
    path = write_cfg(tmp_path, "experiment = dam_break_flat\nnx = 64\nscheme = ec\n")
    cfg = load_config(path, {"nx": "24", "scheme": "es1"})
    assert (cfg.nx, cfg.scheme) == (24, SchemeKind.ES1)
    assert load_config(path).nx == 64
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path, {"nx": "ten"})
    with pytest.raises(ConfigError, match="nx must be"):
        load_config(path, {"nx": "4"})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("scheme = ec\n", "experiment"),
        ("experiment = nope\n", "unknown experiment"),
        ("experiment = dam_break_flat\nnx = ten\n", "cannot parse"),
        ("experiment = dam_break_flat\nnx = 64\nnx = 32\n", "duplicate"),
        ("experiment = dam_break_flat\nwhatever = 1\n", "unknown config key"),
        ("experiment = dam_break_flat\nnx\n", "expected key = value"),
        ("experiment = dam_break_flat\nw_left = 2.0\n", "custom"),
        ("experiment = dam_break_flat\nscheme = roe\n", "unknown scheme"),
    ],
)
def test_load_config_rejects(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_cfg(tmp_path, text))


def test_load_config_reads_byte_order_mark(tmp_path):
    # editors may save UTF-8 with a byte-order mark; it is not part of the
    # first key
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfexperiment = dam_break_flat\nnx = 32\n")
    cfg = load_config(path)
    assert (cfg.experiment, cfg.nx) == ("dam_break_flat", 32)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize(
    "patch",
    [
        {"K": 0},
        {"nx": 4},
        {"t_final": 0.0},
        {"cfl": -0.1},
        {"x_right": -2.0},
        {"boundary": "reflecting"},
        {"snapshot_times": (0.5,), "t_final": 0.4},
        {"g": 0.0},
        {"g": -1.0},
        {"g": math.inf},
        {"g": math.nan},
        {"t_final": math.inf},
        {"x_right": math.inf},
        {"x_left": -math.inf},
        {"x_left": -1e308, "x_right": 1e308},  # dx would overflow to inf
        {"x_left": 0.0, "x_right": 5e-324},  # dx would underflow to 0
        {"cfl": math.inf},
        {"snapshot_times": (math.nan,)},
        {"experiment": "custom", "custom": {"w_left": math.inf}},
        {"experiment": "dam_brake"},
    ],
)
def test_validate_config_rejects(patch):
    # the constructor runs every check, so no invalid config can exist
    base = {"experiment": "dam_break_flat", "snapshot_times": (0.1,), "t_final": 0.4}
    with pytest.raises(ConfigError):
        SolverConfig(**{**base, **patch})


def test_validate_config_rejects_colliding_snapshot_names(tmp_path):
    # both times would be written to snapshot_t0.1.csv
    with pytest.raises(ConfigError, match="snapshot_t0.1.csv"):
        SolverConfig(
            experiment="dam_break_flat", t_final=0.2, snapshot_times=(0.1000001, 0.1000004, 0.2)
        )
    path = write_cfg(
        tmp_path,
        "experiment = dam_break_flat\nt_final = 0.2\nsnapshot_times = 0.1000001, 0.1000004, 0.2\n",
    )
    with pytest.raises(ConfigError, match="share"):
        load_config(path)
    # a repeated time is one snapshot, not a collision
    SolverConfig(experiment="dam_break_flat", snapshot_times=(0.1, 0.1, 0.4))


def test_config_is_frozen_and_replace_rederives_defaults():
    cfg = SolverConfig(experiment="dam_break_flat")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.t_final = 0.2
    # replace passes the filled snapshot_times back in, and 0.4 > 0.2
    with pytest.raises(ConfigError, match="outside"):
        dataclasses.replace(cfg, t_final=0.2)
    short = dataclasses.replace(cfg, t_final=0.2, snapshot_times=None)
    assert (short.t_final, short.snapshot_times) == (0.2, (0.2,))
    with pytest.raises(ConfigError, match="nx must be"):
        dataclasses.replace(cfg, nx=4)
    # a list of snapshot times is stored as a tuple, so it cannot be edited later
    assert SolverConfig(experiment="dam_break_flat", snapshot_times=[0.4]).snapshot_times == (0.4,)


def test_hand_built_custom_config_fills_defaults():
    cfg = SolverConfig(experiment="custom", K=2, nx=16, custom={"w_left": 3.0})
    assert cfg.custom["w_left"] == 3.0 and cfg.custom["b_const"] == 0.0
    with pytest.raises(TypeError):
        cfg.custom["w_left"] = 1.0
    field = build_experiment(cfg, build_basis(2))
    np.testing.assert_allclose(field.h[0], [3.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(field.h[-1], [1.0, 0.0], atol=1e-14)
    assert dataclasses.replace(cfg, nx=24).custom == cfg.custom


def test_hand_built_config_rejects_unknown_custom_key():
    with pytest.raises(ConfigError, match="unknown custom key 'w_lfet'"):
        SolverConfig(experiment="custom", custom={"w_lfet": 3.0})


def test_hand_built_config_rejects_custom_keys_on_preset():
    with pytest.raises(ConfigError, match="only applies to the custom experiment"):
        SolverConfig(experiment="dam_break_flat", custom={"w_left": 3.0})


@pytest.mark.parametrize(
    "patch, fragment",
    [
        ({"experiment": "dam_brake"}, "unknown experiment"),
        ({"g": 0.0}, "g must be positive"),
        ({"cfl": math.nan}, "cfl must be finite"),
    ],
)
def test_build_experiment_validates_config(patch, fragment):
    # the library path rejects what load_config would, before any solve
    base = {"experiment": "dam_break_flat", "K": 3, "nx": 16, "t_final": 0.01}
    with pytest.raises(ConfigError, match=fragment):
        build_experiment(SolverConfig(**{**base, **patch}), build_basis(3))


def test_dam_break_projection_coefficients():
    # w = 2 + 0.1 xi for x < 0: mean 2, linear-mode weight 0.1/sqrt(3)
    basis = build_basis(3)
    cfg = SolverConfig(experiment="dam_break_flat", K=3, nx=16, t_final=0.4)
    field = build_experiment(cfg, basis)
    np.testing.assert_allclose(field.h[0], [2.0, 0.1 / math.sqrt(3.0), 0.0], atol=1e-14)
    np.testing.assert_allclose(field.h[-1], [1.5, 0.1 / math.sqrt(3.0), 0.0], atol=1e-14)
    assert np.all(field.q == 0.0)
    assert np.all(field.bottom == 0.0)


def test_lake_perturbation_projection():
    basis = build_basis(4)
    cfg = SolverConfig(experiment="lake_at_rest_perturbation", K=4, nx=40, t_final=0.1)
    field = build_experiment(cfg, basis)
    w = field.h + field.bottom
    # perturbed only inside |x| <= 0.05: one cell on each side of 0 at nx=40
    inside = np.abs(field.x_centers) <= 0.05
    np.testing.assert_allclose(w[~inside, 0], 1.0, atol=1e-14)
    assert np.all(w[inside, 0] > 1.0)
    # two-bump bottom is deterministic
    np.testing.assert_allclose(field.bottom[:, 1:], 0.0, atol=1e-15)
    assert field.bottom[:, 0].max() > 0.4


def test_build_experiment_rejects_dry_initial_state():
    basis = build_basis(2)
    cfg = SolverConfig(
        experiment="custom", K=2, nx=16, t_final=0.1, custom={"w_right": 0.05, "b_const": 0.1}
    )
    with pytest.raises(PositivityError):
        build_experiment(cfg, basis)


def test_write_snapshot_stats(tmp_path):
    basis = build_basis(3)
    cfg = SolverConfig(experiment="dam_break_flat", K=3, nx=12, t_final=0.4)
    field = build_experiment(cfg, basis)
    path = tmp_path / "snap.csv"
    write_snapshot(basis, field, 0.0, path)

    raw = path.read_bytes()
    assert b"\r\n" in raw
    header, rows = read_csv(path)
    assert header == [
        "x_center", "w_mean", "w_std", "w_q005", "w_q995",
        "q_mean", "q_std", "q_q005", "q_q995", "B_mean", "B_std",
    ]
    assert len(rows) == cfg.nx

    w = field.h + field.bottom
    mean, var = mean_variance(w)
    got = np.array([[float(v) for v in row] for row in rows])
    np.testing.assert_allclose(got[:, 0], field.x_centers, rtol=1e-15)
    np.testing.assert_allclose(got[:, 1], mean, rtol=1e-14)
    np.testing.assert_allclose(got[:, 2], np.sqrt(var), rtol=1e-12, atol=1e-15)
    # quantiles of 2 + 0.1 xi over xi in [-1, 1]
    assert abs(got[0, 3] - (2.0 - 0.099)) < 1e-3
    assert abs(got[0, 4] - (2.0 + 0.099)) < 1e-3
    assert np.all(got[:, 3] <= got[:, 1]) and np.all(got[:, 1] <= got[:, 4])


def test_write_energy_series_columns(tmp_path):
    records = [
        StepRecord(t=0.0, dt=0.0, lam=np.inf, energy=4.0, min_node_height=1.0, restarts=0),
        StepRecord(t=0.1, dt=0.1, lam=0.5, energy=3.9, min_node_height=0.9, restarts=2),
    ]
    path = tmp_path / "energy.csv"
    write_energy_series(records, path)
    header, rows = read_csv(path)
    assert header == [
        "t", "E_total", "relative_energy", "min_node_height", "restarts", "dt", "lam",
    ]
    assert [float(v) for v in rows[0]] == [0.0, 4.0, 0.0, 1.0, 0.0, 0.0, np.inf]
    assert float(rows[1][2]) == pytest.approx((3.9 - 4.0) / 3.9, rel=1e-15)
    assert rows[1][4] == "2"
    assert [float(v) for v in rows[1][5:]] == [0.1, 0.5]

    # every float cell reads back bitwise, across magnitudes and special values
    rng = np.random.default_rng(3)
    values = [*(rng.standard_normal(6) * np.logspace(-300, 300, 6)), -0.0, 5e-324, np.nan, np.inf]
    records += [
        StepRecord(t=v, dt=v, lam=v, energy=e, min_node_height=v, restarts=2)
        for v, e in zip(values, rng.uniform(1.0, 5.0, len(values)))
    ]
    write_energy_series(records, path)
    _, rows = read_csv(path)
    cols = {name: [getattr(rec, name) for rec in records]
            for name in ("t", "energy", "min_node_height", "restarts", "dt", "lam")}
    e = np.array(cols["energy"])
    expected = zip(cols["t"], e, (e - e[0]) / e, cols["min_node_height"], cols["restarts"],
                   cols["dt"], cols["lam"])
    for row, want in zip(rows, expected, strict=True):
        for cell, x in zip(row, want, strict=True):
            got = float(cell)
            assert (math.isnan(got) and math.isnan(x)) or (
                got == x and math.copysign(1.0, got) == math.copysign(1.0, x)
            ), (cell, x)
    assert [row[4] for row in rows[1:]] == ["2"] * (len(records) - 1)

    empty = tmp_path / "none.csv"
    write_energy_series([], empty)
    assert not empty.exists()


def _runs(a):
    """Runs of bytewise-equal neighbouring rows."""
    rows = [row.tobytes() for row in a]
    return 1 + sum(x != y for x, y in zip(rows, rows[1:]))


def _field(h, q, bottom=None):
    return Field(h=h, q=q, bottom=np.zeros_like(h) if bottom is None else bottom,
                 dx=0.05, x_left=-1.0)


def _dam_break():
    # the initial jump has spread over a few cells; both far fields stay
    # long runs of equal cells
    basis = build_basis(3)
    cfg = SolverConfig(experiment="dam_break_flat", K=3, nx=64)
    field, _ = integrate(basis, build_experiment(cfg, basis), SchemeKind.ES2, cfg.g, cfg.cfl, 0.02)
    assert 2 < _runs(field.h) < 32 and 2 < _runs(field.q) < 32
    return basis, field


def _signed_zeros():
    # rows that differ only in the sign of a zero coefficient, in h and in q
    h, q = np.zeros((8, 3)), np.zeros((8, 3))
    h[:, 0] = 1.0
    h[2, 1] = h[5, 2] = -0.0
    q[1] = q[3, :2] = q[6, 0] = -0.0
    B = np.full_like(h, -0.0)  # h + B keeps the sign of h's zeros
    assert _runs(h + B) == 5 and _runs(q) == 7
    return build_basis(3), _field(h, q, B)


def _k1():
    # one mode: the 1001 node values of a cell are all equal
    rng = np.random.default_rng(11)
    h = 1.0 + rng.random((10, 1))
    h[4:7] = h[3]
    return build_basis(1), _field(h, rng.standard_normal((10, 1)), 0.1 * rng.random((10, 1)))


def _distinct():
    rng = np.random.default_rng(12)
    h, q, B = 1.0 + rng.random((40, 5)), rng.standard_normal((40, 5)), rng.random((40, 5))
    assert _runs(h + B) == _runs(q) == 40
    return build_basis(5), _field(h, q, B)


def _ends():
    # one run inside, one odd cell at each end
    rng = np.random.default_rng(13)
    h = np.tile(1.0 + rng.random(4), (10, 1))
    q = np.tile(rng.standard_normal(4), (10, 1))
    h[0], h[-1], q[0], q[-1] = 1.5, 2.5, 0.5, -0.5
    assert _runs(h) == _runs(q) == 3
    return build_basis(4), _field(h, q)


def _non_finite():
    # a NaN coefficient, node values that overflow to +-inf, and an inf mode
    rng = np.random.default_rng(14)
    h, q = 1.0 + rng.random((8, 3)), rng.standard_normal((8, 3))
    h[2, 1] = np.nan
    q[4] = 1e308
    q[5, 2] = -np.inf
    return build_basis(3), _field(h, q)


def _equal_nodes():
    # every cell's 1001 surface values round to 1e20, but w_std differs from
    # cell to cell: the written rows' runs are not the surrogates' runs
    h, q = np.zeros((9, 3)), np.zeros((9, 3))
    h[:, 0], h[:, 1] = 1e20, [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 1.0, 1.0, 1.0]
    assert _runs(h @ eval_basis(np.linspace(-1.0, 1.0, 1001), 3).T) == 1 and _runs(h) == 4
    return build_basis(3), _field(h, q)


def _broken_run():
    # one cell in the middle of a run of equal cells
    h, q = np.tile([1.5, 0.1, 0.02], (11, 1)), np.tile([0.3, -0.05, 0.0], (11, 1))
    h[5, 2] = 0.03
    assert _runs(h) == 3 and _runs(q) == 1
    return build_basis(3), _field(h, q)


def _one_run():
    # the fewest cells a Field holds, all equal: one distinct row
    h, q = np.tile([1.5, 0.1], (3, 1)), np.tile([0.3, -0.05], (3, 1))
    return build_basis(2), _field(h, q)


SNAPSHOT_CASES = {f.__name__[1:]: f for f in (_dam_break, _signed_zeros, _k1, _distinct,
                                              _ends, _non_finite, _equal_nodes, _broken_run,
                                              _one_run)}


@pytest.mark.parametrize("case", SNAPSHOT_CASES)
def test_write_snapshot_bytes_match_oracle(tmp_path, case):
    basis, field = SNAPSHOT_CASES[case]()
    with np.errstate(all="ignore"):
        write_snapshot(basis, field, 0.0, tmp_path / "got.csv")
        snapshot_oracle(basis, field, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_snapshot_nan_node_values_match_oracle(tmp_path, monkeypatch):
    # two of the 1001 node values are NaN in every cell: the 6th and 996th
    # smallest are finite, but np.quantile gives NaN
    def nan_nodes(xi, K):
        table = eval_basis(xi, K)
        table[[0, 700]] = np.nan
        return table

    monkeypatch.setattr(sgswe.cli, "eval_basis", nan_nodes)
    monkeypatch.setattr(conftest, "eval_basis", nan_nodes)
    basis, field = _dam_break()
    write_snapshot(basis, field, 0.0, tmp_path / "got.csv")
    snapshot_oracle(basis, field, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert np.isnan(np.loadtxt(tmp_path / "got.csv", delimiter=",", skiprows=1)[:, 3]).all()


def test_write_snapshot_quantiles_are_order_statistics(tmp_path):
    # the 6th and 996th smallest of the 1001 surrogate values, with -0.0 as 0
    basis, field = _distinct()
    write_snapshot(basis, field, 0.0, tmp_path / "snap.csv")
    got = np.loadtxt(tmp_path / "snap.csv", delimiter=",", skiprows=1)
    table_t = np.ascontiguousarray(eval_basis(np.linspace(-1.0, 1.0, 1001), basis.K).T)
    vals = np.sort(np.einsum("ik,kj->ij", field.q, table_t), axis=-1)
    assert np.array_equal(got[:, 7], vals[:, 5]) and np.array_equal(got[:, 8], vals[:, 995])
    basis, field = _signed_zeros()
    write_snapshot(basis, field, 0.0, tmp_path / "snap.csv")
    got = np.loadtxt(tmp_path / "snap.csv", delimiter=",", skiprows=1)
    assert np.all(np.signbit(got[:, 5]) == np.signbit(field.q[:, 0]))  # q_mean keeps -0
    assert not np.signbit(got[:, [7, 8]]).any()


def _repeated_cells(K, seed):
    # a few hundred distinct cells over six decades, with runs of repeats
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, (300, 1))
    h = 1.0 + rng.random((300, K)) * scale
    q, B = rng.standard_normal((300, K)) * scale, rng.random((300, K))
    for lo, hi in ((10, 25), (100, 103), (200, 260)):
        h[lo:hi], q[lo:hi], B[lo:hi] = h[lo], q[lo], B[lo]
    return build_basis(K), _field(h, q, B)


def _rows_after_x(path):
    return [line.split(b",", 1)[1] for line in path.read_bytes().split(b"\r\n")[1:-1]]


@pytest.mark.parametrize("case", ["K1", "K3", "K9", "non_finite"])
def test_write_snapshot_rows_are_cell_local(tmp_path, case):
    # every row but x_center is the row of a field that repeats that cell 3 times
    if case == "non_finite":
        basis, field = _non_finite()
    else:
        basis, field = _repeated_cells(int(case[1:]), seed=int(case[1:]))
    with np.errstate(all="ignore"):
        write_snapshot(basis, field, 0.0, tmp_path / "all.csv")
        got = _rows_after_x(tmp_path / "all.csv")
        assert len(got) == field.nx
        for i in range(field.nx):
            h, q, B = (np.repeat(a[[i]], 3, axis=0) for a in (field.h, field.q, field.bottom))
            write_snapshot(basis, _field(h, q, B), 0.0, tmp_path / "one.csv")
            assert _rows_after_x(tmp_path / "one.csv") == [got[i]] * 3, i


def test_write_snapshot_memory_scales_with_distinct_cells(tmp_path):
    # 800 copies of one cell: one cell's node values are formed, not an
    # (800, 1001) array of them
    h = np.tile([1.5, 0.1, 0.02, 0.01, 0.005], (800, 1))
    q = np.tile([0.3, -0.05, 0.0, 0.01, -0.002], (800, 1))
    basis, field = build_basis(5), _field(h, q)
    write_snapshot(basis, field, 0.0, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        write_snapshot(basis, field, 0.0, tmp_path / "snap.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800 * 1001 * 8 / 4, peak


def test_write_snapshot_leaves_no_thread_spinning(tmp_path):
    # a BLAS product of this size wakes OpenBLAS's threads, and one of them
    # then busy-waits for about 125 ms; write_snapshot makes no BLAS call
    basis, field = _repeated_cells(5, seed=5)
    time.sleep(0.25)  # outlast any spin an earlier test started
    write_snapshot(basis, field, 0.0, tmp_path / "snap.csv")
    cpu, wall = time.process_time(), time.perf_counter()
    time.sleep(0.1)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    assert cpu < 0.2 * wall, (cpu, wall)


def _repeated_records():
    # every column but t repeats in runs: one run broken by one record, runs
    # told apart only by the sign of a zero or by a NaN payload
    nan2 = np.array(0x7FF8000000000002, dtype=np.int64).view(float)
    blocks = [(0.5, 1.0), (0.5, 1.0), (0.25, 1.0), (0.5, 1.0), (0.5, 1.0),
              (0.5, -0.0), (0.5, 0.0), (0.5, 0.0), (np.nan, 0.0), (nan2, 0.0), (nan2, 0.0)]
    return [StepRecord(t=0.01 * i, dt=dt, lam=2.0, restarts=3, energy=4.0, min_node_height=m)
            for i, (dt, m) in enumerate(blocks)]


@pytest.mark.parametrize("n", [1, 2, 40, "repeated"])
def test_write_energy_series_bytes_match_oracle(tmp_path, n):
    if n == "repeated":
        records = _repeated_records()
    else:
        rng = np.random.default_rng(n)
        special = [np.inf, np.nan, -0.0, 5e-324, -np.inf, 0.0]
        values = np.concatenate([special, rng.standard_normal(n) * np.logspace(-300, 300, n)])
        records = [
            StepRecord(t=v, dt=values[i - 1], lam=values[i - 2], energy=e,
                       min_node_height=-v, restarts=i)
            for i, (v, e) in enumerate(zip(values[:n], rng.uniform(1.0, 5.0, n)))
        ]
        records[-1] = dataclasses.replace(records[-1], energy=-0.0)
    with np.errstate(all="ignore"):
        write_energy_series(records, tmp_path / "got.csv")
        energy_series_oracle(records, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


TINY = """
experiment = custom
K = 2
nx = 24
t_final = 0.02
scheme = {scheme}
output_dir = {out}
"""


def test_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = load_config(write_cfg(tmp_path, TINY.format(scheme="es2", out=out)))
    assert run(cfg) == 0
    assert (out / "energy.csv").exists()
    assert (out / "snapshot_t0.02.csv").exists()

    header, rows = read_csv(out / "energy.csv")
    ts = [float(row[0]) for row in rows]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.02, abs=1e-12)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(float(row[3]) > 0.0 for row in rows)
    assert "done" in capsys.readouterr().out


def test_run_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cfg = load_config(write_cfg(tmp_path, TINY.format(scheme="es1", out=out)))
        assert run(cfg) == 0
    assert (out_a / "energy.csv").read_bytes() == (out_b / "energy.csv").read_bytes()
    assert (
        (out_a / "snapshot_t0.02.csv").read_bytes()
        == (out_b / "snapshot_t0.02.csv").read_bytes()
    )


def test_main_run_and_overrides(tmp_path):
    out = tmp_path / "cli_out"
    path = write_cfg(
        tmp_path,
        "experiment = custom\nK = 2\nnx = 32\nt_final = 0.02\nscheme = es2\n"
        f"output_dir = {tmp_path / 'file_out'}\n",
    )
    code = main(
        ["run", "--config", str(path), "--scheme", "ec", "--nx", "24", "--out", str(out)]
    )
    assert code == 0
    assert (out / "energy.csv").exists()
    assert not (tmp_path / "file_out").exists()
    _, rows = read_csv(out / "snapshot_t0.02.csv")
    assert len(rows) == 24


def test_library_run_matches_cli_run(tmp_path):
    # a hand-built config takes the preset's snapshot times, as the file does
    lib, cli = tmp_path / "lib", tmp_path / "cli"
    cfg = SolverConfig(
        experiment="stochastic_bottom", K=3, nx=40, t_final=0.12, output_dir=str(lib)
    )
    assert run(cfg) == 0
    path = write_cfg(
        tmp_path, "experiment = stochastic_bottom\nK = 3\nnx = 40\nt_final = 0.12\n"
    )
    assert main(["run", "--config", str(path), "--out", str(cli)]) == 0
    names = sorted(p.name for p in lib.iterdir())
    assert names == ["energy.csv", "snapshot_t0.0995.csv", "snapshot_t0.12.csv"]
    assert sorted(p.name for p in cli.iterdir()) == names
    for name in names:
        assert (lib / name).read_bytes() == (cli / name).read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, "experiment = dam_break_flat\nnx = 4\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    dry = write_cfg(
        tmp_path,
        "experiment = custom\nK = 2\nnx = 16\nt_final = 0.1\n"
        "w_right = 0.05\nb_const = 0.1\n"
        f"output_dir = {tmp_path / 'dry_out'}\n",
        "dry.cfg",
    )
    assert main(["run", "--config", str(dry)]) == 3
    assert "error:" in capsys.readouterr().err

    zero_g = write_cfg(tmp_path, "experiment = dam_break_flat\nK = 3\nnx = 16\ng = 0\n", "g.cfg")
    assert main(["run", "--config", str(zero_g)]) == 2
    assert "error: g must be positive" in capsys.readouterr().err

    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"experiment = dam_break_flat\n\xff\n")
    assert main(["run", "--config", str(not_utf8)]) == 2
    assert "error: cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_main_rejects_unusable_output_dir(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("not a directory")
    path = write_cfg(tmp_path, "experiment = custom\nK = 2\nnx = 16\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / out)]) == 2
    assert "error: cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--nx", "4"], ["--cfl", "-1"], ["--scheme", "roe"], ["--nx", "ten"]]
)
def test_main_rejects_bad_flags(tmp_path, capsys, flag):
    path = write_cfg(tmp_path, f"experiment = custom\nK = 2\noutput_dir = {tmp_path / 'o'}\n")
    assert main(["run", "--config", str(path), *flag]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "exc,code",
    [
        ((HyperbolicityError, "P(h) not positive definite", {"cell": 1, "detail": -1.0}), 3),
        ((PositivityError, "nonpositive node height", {"cell": 1, "node": 0}), 3),
        ((BlowUpError, "non-finite state encountered", {"t": 0.0}), 4),
        ((DtUnderflowError, "dt fell below the floor", {"t": 0.0, "dt": 0.0}), 5),
    ],
)
def test_main_solver_error_exit_codes(tmp_path, monkeypatch, capsys, exc, code):
    cls, message, given = exc
    exc = cls(message, **given)
    context = {name: getattr(exc, name) for name in ("cell", "node", "t", "dt", "detail")}
    assert context == {**dict.fromkeys(context), **given}

    def failing_integrate(basis, field, *args, records, **kwargs):
        records.append(
            StepRecord(t=0.0, dt=0.0, lam=np.inf, restarts=0, energy=1.0, min_node_height=1.0)
        )
        raise exc

    monkeypatch.setattr(sgswe.cli, "integrate", failing_integrate)
    out = tmp_path / "o"
    path = write_cfg(tmp_path, f"experiment = custom\nK = 2\nnx = 16\noutput_dir = {out}\n")
    assert main(["run", "--config", str(path)]) == code
    assert f"error: {exc}" in capsys.readouterr().err
    assert (out / "energy.csv").exists()


def test_main_writes_snapshots_closer_than_the_dt_floor(tmp_path, capsys):
    # the two times differ by one ulp and have names of their own; the
    # second lies below the 1e-14 t_final dt floor past the first
    out = tmp_path / "o"
    path = write_cfg(
        tmp_path,
        "experiment = dam_break_flat\nscheme = es2\nK = 3\nnx = 20\nt_final = 0.2\n"
        f"snapshot_times = 0.1234565, 0.12345650000000001\noutput_dir = {out}\n",
    )
    assert main(["run", "--config", str(path)]) == 0
    assert "error" not in capsys.readouterr().err
    names = ["energy.csv", "snapshot_t0.123456.csv", "snapshot_t0.123457.csv"]
    assert sorted(p.name for p in out.iterdir()) == names
    assert (out / names[1]).read_bytes() == (out / names[2]).read_bytes()
    _, rows = read_csv(out / "energy.csv")
    assert 0.12345650000000001 in [float(row[0]) for row in rows]
    assert float(rows[-1][0]) == 0.2


def test_main_check_mode(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        f"experiment = dam_break_flat\nK = 3\nnx = 32\noutput_dir = {tmp_path / 'o'}\n",
    )
    assert main(["run", "--config", str(path), "--check"]) == 0
    assert capsys.readouterr().out == "check: rhs finite: ok\n"


def test_check_mode_counts_non_finite_entries(monkeypatch, capsys):
    real_rhs = sgswe.cli.semidiscrete_rhs

    def nan_rhs(*args, **kwargs):
        rhs, fluxes = real_rhs(*args, **kwargs)
        rhs[:3, 0] = np.nan
        return rhs, fluxes

    monkeypatch.setattr(sgswe.cli, "semidiscrete_rhs", nan_rhs)
    cfg = SolverConfig(experiment="dam_break_flat", K=3, nx=16)
    assert run_checks(cfg) == 1
    assert capsys.readouterr().out == "check: rhs finite: FAIL (3 non-finite entries)\n"


def test_main_check_mode_accepts_large_fluxes(tmp_path, capsys):
    # large heights and discharges: the fluxes' rounding alone is far above
    # any fixed absolute tolerance, and the config runs fine
    path = write_cfg(
        tmp_path,
        "experiment = custom\nscheme = es2\nK = 5\nnx = 400\n"
        "w_left = 2e6\nw_right = 1e6\nq_left = 3e5\nq_right = 7e5\n"
        f"output_dir = {tmp_path / 'o'}\n",
    )
    assert main(["run", "--config", str(path), "--check"]) == 0
    assert capsys.readouterr().out == "check: rhs finite: ok\n"


def test_run_checks_direct():
    cfg = SolverConfig(experiment="stochastic_bottom", K=3, nx=32, t_final=0.1)
    assert run_checks(cfg) == 0


def test_version_exposed():
    assert sgswe.__version__
