"""Date-indexed tables of named float64 columns.

``TimeSeriesFrame`` is the carrier for market, financial, sentiment, and
policy series.  Dates are strictly increasing int64 day ordinals, ``days``
(the values of ``date.toordinal()``), converted only at the edges: by
:func:`day_numbers` in and the ``dates`` property out.  Every column has one
entry per date; missing observations are NaN, and alignment fills the gaps.
"""

from __future__ import annotations

import datetime as dt
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

    def with_columns(self, new_columns: dict[str, np.ndarray]) -> "TimeSeriesFrame":
        """New frame sharing the dates, with columns added or replaced."""
        merged = dict(self.columns)
        merged.update(new_columns)
        return TimeSeriesFrame(self.days, merged)

    def select(self, names: list[str]) -> "TimeSeriesFrame":
        return TimeSeriesFrame(self.days, {n: self.column(n) for n in names})

    def matrix(self, names: list[str]) -> np.ndarray:
        """Rows x selected columns as one new array (never a view of the frame)."""
        return np.column_stack([self.column(n) for n in names])


def drop_incomplete_rows(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Remove every row that has a NaN in any column (warm-up trimming)."""
    if not frame.columns:
        return frame
    keep = np.flatnonzero(np.isfinite(frame.matrix(frame.column_names)).all(axis=1))
    return TimeSeriesFrame(frame.days[keep], {n: v[keep] for n, v in frame.columns.items()})


def merge_outer(a: TimeSeriesFrame, b: TimeSeriesFrame) -> TimeSeriesFrame:
    """Outer join on dates; absent observations become NaN.

    Column names must not collide.
    """
    overlap = set(a.columns) & set(b.columns)
    if overlap:
        raise ParameterError(f"duplicate column names in merge: {sorted(overlap)}")
    # Not np.union1d: its np.unique imports numpy.ma, 1.3 MB of peak memory.
    days = np.sort(np.concatenate((a.days, np.setdiff1d(b.days, a.days, assume_unique=True))))
    out: dict[str, np.ndarray] = {}
    for frame in (a, b):
        rows = np.searchsorted(days, frame.days)
        for name, values in frame.columns.items():
            out[name] = np.full(len(days), np.nan)
            out[name][rows] = values
    return TimeSeriesFrame(days, out)
