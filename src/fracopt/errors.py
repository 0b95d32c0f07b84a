"""Exception types shared across the package."""


class FracoptError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(FracoptError):
    """Operands have incompatible or invalid dimensions."""


class InvalidParameter(FracoptError):
    """A configuration value or model parameter violates its contract."""


class InvalidMatrix(FracoptError):
    """Matrix input is not square or not symmetric enough."""


class PositivityViolation(FracoptError):
    """The denominator g became non-positive at an iterate."""


class NumericalBreakdown(FracoptError):
    """A NaN or otherwise unusable value appeared during evaluation."""


class ShiftViolation(FracoptError):
    """The supplied lower bound on the ratio was not actually a lower bound."""


class InvalidStart(FracoptError):
    """The starting point violates a solver precondition."""


class InnerSolverFailure(FracoptError):
    """The parametric subproblem solver failed to converge."""


class DataError(FracoptError):
    """The input data admit no answer; the command line exits 4 for every subclass."""


class DegenerateModel(DataError):
    """Model data admits no well-defined step size (e.g. all-zero means)."""


class ParseError(DataError):
    """A CSV cell or row could not be parsed.

    Carries 1-based ``row`` and optional ``col`` attributes.
    """

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class InsufficientData(DataError):
    """Too few periods to perform the requested computation."""


class DegenerateSeries(DataError):
    """A return series has zero sample variance; its Sharpe ratio is undefined."""


class WealthWipeout(DataError):
    """A portfolio outcome lost 100% or more of wealth in one period."""
