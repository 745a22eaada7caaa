"""Date-indexed columns: tables of named float64 columns, and dated labels.

``TimeSeriesFrame`` is the carrier for market, financial, sentiment, and
policy series.  Dates are strictly increasing int64 day ordinals, ``days``
(the values of ``date.toordinal()``), converted only at the edges: by
:func:`day_numbers` in and the ``dates`` property out.  Every column has one
entry per date; missing observations are NaN, and alignment fills the gaps.

``DatedLabels`` carries news items and policy events from the CSV reader or
the generator to the writers and the feature pipeline: one int64 day ordinal
and one label per item, in source order, with any number of items on one
day.  The labels are a list of ``str``, or a :class:`TextColumn` of byte
ranges in the buffer the CSV reader read them into, which makes no ``str``
per item until a caller reads ``labels``.  No item is ever held as a ``(date, text)``
pair.
"""

from __future__ import annotations

import datetime as dt
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, ParameterError


def day_numbers(dates: list[dt.date]) -> np.ndarray:
    """Proleptic day ordinals (``date.toordinal()``) of ``dates`` as int64."""
    return np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))


def calendar_dates(days: np.ndarray) -> list[dt.date]:
    """The ``datetime.date`` of each day ordinal: the inverse of :func:`day_numbers`."""
    return list(map(dt.date.fromordinal, days.tolist()))


@dataclass
class TimeSeriesFrame:
    days: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.days = np.asarray(self.days, dtype=np.int64)
        out_of_order = np.diff(self.days) <= 0
        if out_of_order.any():
            i = int(out_of_order.argmax())
            earlier, later = calendar_dates(self.days[i:i + 2])
            raise DataError(f"dates must be strictly increasing: {earlier} followed by {later}")
        cols = {}
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != len(self.days):
                raise DimensionError(
                    f"column {name!r} has length {arr.shape}, expected {len(self.days)}"
                )
            cols[name] = arr
        self.columns = cols

    def __len__(self) -> int:
        return len(self.days)

    @property
    def dates(self) -> list[dt.date]:
        """The rows' dates as ``datetime.date``, for writing and printing."""
        return calendar_dates(self.days)

    def span(self) -> str:
        """``first..last`` date of a nonempty frame, for messages."""
        first, last = calendar_dates(self.days[[0, -1]])
        return f"{first}..{last}"

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ParameterError(f"frame has no column {name!r}")
        return self.columns[name]

    def select(self, names: list[str]) -> "TimeSeriesFrame":
        return TimeSeriesFrame(self.days, {n: self.column(n) for n in names})

    def matrix(self, names: list[str]) -> np.ndarray:
        """Rows x selected columns as one new array (never a view of the frame)."""
        return np.column_stack([self.column(n) for n in names])


# The most bytes between two texts of a :class:`TextColumn` that follow each
# other in its buffer: a separator, the next row's ``YYYY-MM-DD`` and another.
TEXT_GAP = 12


@dataclass(frozen=True, eq=False)
class TextColumn:
    """UTF-8 texts held as byte ranges of one buffer: text ``i`` is
    ``data[starts[i]:stops[i]]``.  The ranges are in increasing order and
    apart; two that are at most :data:`TEXT_GAP` bytes apart follow each
    other, and the bytes between them belong to no text."""

    data: bytes
    starts: np.ndarray
    stops: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)

    def take(self, keep: np.ndarray) -> "TextColumn":
        return TextColumn(self.data, self.starts[keep], self.stops[keep])

    def decode(self) -> list[str]:
        return [self.data[start:stop].decode()
                for start, stop in zip(self.starts.tolist(), self.stops.tolist())]


@dataclass(eq=False)
class DatedLabels:
    """Labels (news texts, policy categories), each on the day ordinal at
    the same position of ``days``, in source order: ``texts`` is a list of
    ``str`` or a :class:`TextColumn`."""

    days: np.ndarray
    texts: list[str] | TextColumn

    def __post_init__(self):
        self.days = np.asarray(self.days, dtype=np.int64)
        if self.days.shape != (len(self.texts),):
            raise DimensionError(f"{len(self.texts)} labels need as many days, "
                                 f"got shape {self.days.shape}")

    def __len__(self) -> int:
        return len(self.days)

    @property
    def labels(self) -> list[str]:
        """The labels as ``str``s, decoded from a :class:`TextColumn` on each read."""
        if isinstance(self.texts, TextColumn):
            return self.texts.decode()
        return self.texts

    def select(self, keep: np.ndarray) -> "DatedLabels":
        """The items that the boolean mask ``keep`` flags, in order."""
        if isinstance(self.texts, TextColumn):
            return DatedLabels(self.days[keep], self.texts.take(keep))
        return DatedLabels(self.days[keep], list(itertools.compress(self.texts, keep.tolist())))


def merge_outer(a: TimeSeriesFrame, b: TimeSeriesFrame) -> TimeSeriesFrame:
    """Outer join on dates; absent observations become NaN.

    Column names must not collide.
    """
    overlap = set(a.columns) & set(b.columns)
    if overlap:
        raise DataError(f"duplicate column names in merge: {sorted(overlap)}")
    # Not np.union1d: its np.unique imports numpy.ma, 1.3 MB of peak memory.
    days = np.sort(np.concatenate((a.days, np.setdiff1d(b.days, a.days, assume_unique=True))))
    out: dict[str, np.ndarray] = {}
    for frame in (a, b):
        rows = np.searchsorted(days, frame.days)
        for name, values in frame.columns.items():
            out[name] = np.full(len(days), np.nan)
            out[name][rows] = values
    return TimeSeriesFrame(days, out)
