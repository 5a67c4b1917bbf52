"""Public names: every __all__ entry of the package and its modules resolves,
none is listed twice, and the README lists exactly the package's.  The
benchmark's span tracer (perfbench/tracer.py) wraps the functions in these
__all__ lists and reads some of their arguments and results; the last tests
pin what it reads."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import sgswe
from sgswe import SchemeKind, SolverConfig, build_basis, build_experiment, ssp_rk3_step, velocity

MODULES = ["sgswe"] + [f"sgswe.{m.name}" for m in pkgutil.iter_modules(sgswe.__path__)]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve_once(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_public_api_matches_all():
    # the bullet list right after the heading line, up to the next blank line
    after = README.read_text().split("The public API (`sgswe.__all__`):", 1)[1]
    bullets = after.lstrip("\n").split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", bullets)
    assert sorted(listed) == sorted(n for n in sgswe.__all__ if n != "__version__")


def test_only_core_binds_the_eigensolver():
    # every eigensolve goes through core (_p_eig or symmetrizer_eig), so a
    # second path into the flux-Jacobian eigenproblem shows up here
    binding = [name for name in MODULES
               if any(value is sgswe.linalg.sym_eig
                      for value in vars(importlib.import_module(name)).values())]
    assert binding == ["sgswe.core", "sgswe.linalg"]


# module -> the functions whose spans or counters the tracer reports
TRACED = {
    "basis": ["build_basis", "p_operator"],
    "linalg": ["sym_eig"],
    "core": ["velocity", "symmetrizer_eig"],
    "entropy": ["energy"],
    "schemes": ["semidiscrete_rhs"],
    "timestep": ["positivity_lambda", "cfl_dt", "total_energy", "ssp_rk3_step"],
    "cli": ["build_experiment", "write_snapshot", "write_energy_series"],
}


@pytest.mark.parametrize("short", sorted(TRACED))
def test_traced_functions_are_public(short):
    module = importlib.import_module(f"sgswe.{short}")
    assert set(TRACED[short]) <= set(module.__all__)


@pytest.mark.parametrize(
    "qualname, index, name",
    [
        ("linalg.sym_eig", 0, "A"),
        ("core.symmetrizer_eig", 1, "h_bar"),
        ("cli.write_snapshot", 3, "path"),
        ("cli.write_energy_series", 1, "path"),
    ],
)
def test_traced_argument_positions(qualname, index, name):
    module, fname = qualname.split(".")
    fn = getattr(importlib.import_module(f"sgswe.{module}"), fname)
    assert list(inspect.signature(fn).parameters)[index] == name


def test_traced_results():
    cfg = SolverConfig(experiment="dam_break_flat", K=3, nx=8)
    basis = build_basis(cfg.K)
    field = build_experiment(cfg, basis)
    flags = velocity(basis, field)[0].desingularized
    assert flags.shape == (cfg.nx,) and flags.dtype == bool
    T = cfg.t_final
    step = ssp_rk3_step(basis, velocity(basis, field), SchemeKind.ES2, cfg.g, cfg.cfl, 0.0, T, T)
    assert isinstance(step.restarts, int)
    assert 0.0 < step.dt <= 0.9 * step.lam
