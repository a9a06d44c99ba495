"""Exception types shared across the package."""


class FlatSteadyError(Exception):
    """Base class for all package errors."""


class InputError(FlatSteadyError):
    """Invalid argument (non-finite value, bad range, empty input)."""


class ModelDefinitionError(InputError):
    """A Casimir model definition is inconsistent (e.g. non-monotone Q')."""


class ConvergenceError(FlatSteadyError):
    """An iterative procedure failed to converge."""


class GridTooSmallError(ConvergenceError):
    """The computed support reaches the edge of the radial grid."""
