"""Date-indexed tables of named float64 columns.

``TimeSeriesFrame`` is the carrier for market, financial, sentiment, and
policy series.  Dates are strictly increasing ``datetime.date`` values and
every column has one entry per date.  Missing observations are represented
as NaN; downstream alignment decides how each source's gaps are filled.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, ParameterError


def day_numbers(dates: list[dt.date]) -> np.ndarray:
    """Date ordinals as int64, for sorted-date searches."""
    return np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))


@dataclass
class TimeSeriesFrame:
    dates: list[dt.date]
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.dates = list(self.dates)
        out_of_order = np.diff(day_numbers(self.dates)) <= 0
        if out_of_order.any():
            i = int(out_of_order.argmax()) + 1
            raise DataError(
                f"dates must be strictly increasing: {self.dates[i - 1]} "
                f"followed by {self.dates[i]}"
            )
        cols = {}
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != len(self.dates):
                raise DimensionError(
                    f"column {name!r} has length {arr.shape}, expected {len(self.dates)}"
                )
            cols[name] = arr
        self.columns = cols

    def __len__(self) -> int:
        return len(self.dates)

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
        return TimeSeriesFrame(self.dates, merged)

    def select(self, names: list[str]) -> "TimeSeriesFrame":
        return TimeSeriesFrame(self.dates, {n: self.column(n) for n in names})

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesFrame":
        return TimeSeriesFrame(
            self.dates[start:stop],
            {n: v[start:stop] for n, v in self.columns.items()},
        )

    def matrix(self, names: list[str]) -> np.ndarray:
        """Rows x selected columns as one array."""
        return np.column_stack([self.column(n) for n in names])

    def date_index(self) -> dict[dt.date, int]:
        return {d: i for i, d in enumerate(self.dates)}


def drop_incomplete_rows(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Remove every row that has a NaN in any column (warm-up trimming)."""
    if not frame.columns:
        return frame
    keep = np.flatnonzero(np.isfinite(frame.matrix(frame.column_names)).all(axis=1))
    dates = [frame.dates[i] for i in keep]
    return TimeSeriesFrame(dates, {n: v[keep] for n, v in frame.columns.items()})


def merge_outer(a: TimeSeriesFrame, b: TimeSeriesFrame) -> TimeSeriesFrame:
    """Outer join on dates; absent observations become NaN.

    Column names must not collide.
    """
    overlap = set(a.columns) & set(b.columns)
    if overlap:
        raise ParameterError(f"duplicate column names in merge: {sorted(overlap)}")
    dates = sorted(set(a.dates) | set(b.dates))
    days = day_numbers(dates)
    out: dict[str, np.ndarray] = {}
    for frame in (a, b):
        rows = np.searchsorted(days, day_numbers(frame.dates))
        for name, values in frame.columns.items():
            out[name] = np.full(len(dates), np.nan)
            out[name][rows] = values
    return TimeSeriesFrame(dates, out)
