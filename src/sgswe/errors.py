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
    """Base class for all solver failures."""

    exit_code = 1


class ConfigError(SolverError):
    """Invalid configuration or basis sizes."""

    exit_code = 2


class HyperbolicityError(SolverError):
    """P(h) lost positive definiteness at some cell.

    `cell` is the offending cell index when known, `detail` an optional
    eigenvalue or node diagnostic.
    """

    exit_code = 3

    def __init__(self, message, cell=None, detail=None):
        super().__init__(message)
        self.cell = cell
        self.detail = detail


class PositivityError(SolverError):
    """Height surrogate non-positive at a quadrature node."""

    exit_code = 3

    def __init__(self, message, cell=None, node=None):
        super().__init__(message)
        self.cell = cell
        self.node = node


class BlowUpError(SolverError):
    """NaN/Inf detected in the state."""

    exit_code = 4

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class DtUnderflowError(SolverError):
    """Adaptive time step shrank below the resolvable scale."""

    exit_code = 5

    def __init__(self, message, t=None, dt=None):
        super().__init__(message)
        self.t = t
        self.dt = dt
