"""Exception taxonomy shared across the solver; each class's ``exit_code``
is the status ``sgswe run`` exits with when it is raised."""

__all__ = [
    "SolverError",
    "ConfigError",
    "HyperbolicityError",
    "PositivityError",
    "BlowUpError",
    "DtUnderflowError",
]


class SolverError(Exception):
    """Base class for all solver failures.

    Raise sites pass what they know as keywords: `cell` and `node` index
    the offending cell and quadrature node, `t` and `dt` the time and step,
    `detail` a numeric diagnostic such as an eigenvalue.  Each is None when
    not given.
    """

    exit_code = 1

    def __init__(self, message, *, cell=None, node=None, t=None, dt=None, detail=None):
        super().__init__(message)
        self.cell, self.node, self.t, self.dt, self.detail = cell, node, t, dt, detail


class ConfigError(SolverError):
    """Invalid configuration or basis sizes."""

    exit_code = 2


class HyperbolicityError(SolverError):
    """P(h) lost positive definiteness at some cell."""

    exit_code = 3


class PositivityError(SolverError):
    """Height surrogate non-positive at a quadrature node."""

    exit_code = 3


class BlowUpError(SolverError):
    """NaN/Inf detected in the state."""

    exit_code = 4


class DtUnderflowError(SolverError):
    """Adaptive time step shrank below the resolvable scale."""

    exit_code = 5
