"""Energy-conservative and energy-stable finite volume schemes for the 1D
stochastic Galerkin shallow water equations."""

from .basis import PceBasis, build_basis, eval_basis, mean_variance, p_operator
from .cli import SolverConfig, build_experiment, load_config
from .core import (
    Field,
    Velocity,
    positivity_check,
    project_bottom,
    symmetrizer_eig,
    velocity,
)
from .entropy import energy
from .errors import (
    BlowUpError,
    ConfigError,
    DtUnderflowError,
    HyperbolicityError,
    PositivityError,
    SolverError,
)
from .schemes import SchemeKind, interface_flux, semidiscrete_rhs
from .timestep import (
    cfl_dt,
    integrate,
    positivity_lambda,
    ssp_rk3_step,
    total_energy,
)

__version__ = "0.1.0"

__all__ = [
    "PceBasis",
    "SolverConfig",
    "load_config",
    "build_experiment",
    "build_basis",
    "eval_basis",
    "mean_variance",
    "p_operator",
    "Field",
    "Velocity",
    "velocity",
    "symmetrizer_eig",
    "project_bottom",
    "energy",
    "SchemeKind",
    "interface_flux",
    "semidiscrete_rhs",
    "positivity_check",
    "positivity_lambda",
    "cfl_dt",
    "ssp_rk3_step",
    "integrate",
    "total_energy",
    "SolverError",
    "ConfigError",
    "HyperbolicityError",
    "PositivityError",
    "BlowUpError",
    "DtUnderflowError",
    "__version__",
]
