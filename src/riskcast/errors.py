"""Exception hierarchy shared across the package, and :func:`read_file` and
:func:`read_bytes`, which read every input file, check that it is UTF-8 and
raise a decode fault as one of them.

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


_BOM = b"\xef\xbb\xbf"


def _read(path) -> bytes:
    """The bytes of ``path`` after one leading UTF-8 byte-order mark, read
    with no copy of the file: unbuffered, the mark is read on its own and
    the rest in one read.  A file without the mark is read again from its
    start, or, when it cannot seek (a pipe), joined to its first bytes."""
    with open(path, "rb", buffering=0) as handle:
        head = b""
        while len(head) < len(_BOM):
            chunk = handle.read(len(_BOM) - len(head))
            if not chunk:
                return head
            head += chunk
        if head == _BOM:
            return handle.readall()
        if handle.seekable():
            handle.seek(0)
            return handle.readall()
        return head + handle.readall()


def _text(path, data: bytes, error: type[RiskcastError]) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[:exc.start + 1].splitlines())
        raise error(f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x} ({exc.reason})")


def read_file(path, error: type[RiskcastError]) -> tuple[bytes, str]:
    """The bytes of ``path`` and their text, read once and decoded once as UTF-8 with
    the line ends kept, both without one leading UTF-8 byte-order mark.  A byte that
    is not UTF-8 raises ``error`` at its ``file:line`` (lines end at LF, CR or CRLF)."""
    data = _read(path)
    return data, _text(path, data, error)


def read_bytes(path, error: type[RiskcastError]) -> bytes:
    """The bytes of ``path`` as :func:`read_file` gives them, checked the same way.
    An ASCII file is UTF-8 and is not decoded; any other is decoded once to check it."""
    data = _read(path)
    if not data.isascii():
        _text(path, data, error)
    return data
