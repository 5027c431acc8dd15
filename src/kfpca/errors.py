"""Exception types shared across the package.

Each invariant is checked once, by the type or function that owns it; the
command line maps the class of the error to its exit code (``cli.main``).
"""


class KfpcaError(Exception):
    """Base class for all package errors.  The command line exits 3 on
    EstimationError (numerical failure) and 2 on every other subclass (bad
    input or configuration)."""


class ConfigurationError(KfpcaError):
    """A parameter or option is outside its allowed range."""


class InputError(KfpcaError):
    """Input data violates a precondition (size, finiteness, ...)."""


class DimensionError(InputError):
    """Operands live on incompatible grids or have mismatched shapes."""


class EstimationError(KfpcaError):
    """An estimator could not produce a result (degeneracy, non-convergence)."""


class ParseError(KfpcaError):
    """A document or file could not be parsed; ``path`` names the offending
    field, or is empty when the document as a whole is at fault."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path
