"""Exception hierarchy shared across the package, and :func:`read_file`,
which reads and decodes every input file and raises a decode fault as one of them.

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


def read_file(path, error: type[RiskcastError]) -> tuple[bytes, str]:
    """The bytes of ``path`` and their text, read once and decoded once as UTF-8 with
    the line ends kept, both without one leading UTF-8 byte-order mark.  A byte that
    is not UTF-8 raises ``error`` at its ``file:line`` (lines end at LF, CR or CRLF)."""
    with open(path, "rb") as handle:
        data = handle.read()
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[:exc.start + 1].splitlines())
        raise error(f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x} ({exc.reason})")
