"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific type that applies.
"""


class RiskcastError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(RiskcastError, ValueError):
    """Tensor, layer, or sample shapes are inconsistent."""


class ParameterError(RiskcastError, ValueError):
    """A configuration value or argument is outside its valid range."""


class DataError(RiskcastError, ValueError):
    """Input data is empty, misaligned, or otherwise unusable."""


class InsufficientHistoryError(DataError):
    """The aligned history is shorter than one window plus its horizon."""


class SchemaError(DataError):
    """A delimited input file does not match its declared schema."""


class NumericalError(RiskcastError, ArithmeticError):
    """A computation produced non-finite values or an unsolvable system."""


class ModelIOError(RiskcastError):
    """A model file could not be written, or read back faithfully."""
