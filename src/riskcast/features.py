"""Feature engineering: trend windows, sentiment scoring, standardization,
event encoding, cross-source date alignment, and windowed sample assembly.

All functions here are pure over immutable inputs.  Windowing is strictly
causal: trailing moving averages, targets taken after the input window, and
an exhaustive no-lookahead guarantee on every produced sample.
"""

from __future__ import annotations

import datetime as dt
import re
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DimensionError, ParameterError
from .frames import TimeSeriesFrame, day_numbers
from .lexicon import SentimentLexicon

_TOKEN_RE = re.compile(r"[a-z0-9]+")

SENTIMENT_COLUMNS = ("pos", "neg", "neu", "compound")
_NEUTRAL_SENTIMENT = {"pos": 0.0, "neg": 0.0, "neu": 1.0, "compound": 0.0}


# ---------------------------------------------------------------------------
# Trend and volatility series
# ---------------------------------------------------------------------------


def moving_average(series, window: int) -> np.ndarray:
    """Trailing mean over the last ``window`` entries; causal by construction.

    The first ``window - 1`` entries have no full window and are NaN.  A
    window longer than the series yields an all-NaN result with a warning.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.size == 0:
        raise DataError("moving_average needs a nonempty 1-d series")
    if window < 1:
        raise ParameterError(f"moving average window must be >= 1, got {window}")
    out = np.full(series.size, np.nan)
    if window > series.size:
        warnings.warn(
            f"moving average window {window} exceeds series length {series.size}; "
            "result is all-missing",
            stacklevel=2,
        )
        return out
    # Each row is reduced by the same pairwise sum as np.mean over that 1-d window.
    out[window - 1:] = sliding_window_view(series, window).mean(axis=1)
    return out


def daily_returns(close) -> np.ndarray:
    """Simple returns close[t]/close[t-1] - 1; the first entry is NaN."""
    close = np.asarray(close, dtype=np.float64)
    if close.ndim != 1 or close.size == 0:
        raise DataError("daily_returns needs a nonempty 1-d series")
    out = np.full(close.size, np.nan)
    out[1:] = close[1:] / close[:-1] - 1.0
    return out


def trailing_volatility(returns, window: int) -> np.ndarray:
    """Population standard deviation of the last ``window`` returns.

    Entries whose window is incomplete or touches a NaN return are NaN.
    Reading this column ``window`` rows ahead of an anchor row gives the
    realized volatility of the returns strictly after the anchor.
    """
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim != 1 or returns.size == 0:
        raise DataError("trailing_volatility needs a nonempty 1-d series")
    if window < 1:
        raise ParameterError(f"volatility window must be >= 1, got {window}")
    out = np.full(returns.size, np.nan)
    if window > returns.size:
        return out
    windows = sliding_window_view(returns, window)
    complete = np.isfinite(windows).all(axis=1)
    out[window - 1:][complete] = windows[complete].std(axis=1)
    return out


# ---------------------------------------------------------------------------
# Sentiment
# ---------------------------------------------------------------------------


class SentimentScore(NamedTuple):
    pos: float
    neg: float
    neu: float
    compound: float


def sentiment_score(text: str, lexicon: SentimentLexicon) -> SentimentScore:
    """Lexicon hit fractions over lowercase alphanumeric tokens.

    ``pos`` and ``neg`` are the fractions of tokens matching the respective
    term set, ``neu`` the remainder, and
    ``compound = (n_pos - n_neg) / (n_pos + n_neg + 1)`` in [-1, 1].
    Text with no tokens or no hits scores neutral (0, 0, 1, 0).
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        return SentimentScore(0.0, 0.0, 1.0, 0.0)
    n_pos = sum(map(lexicon.positive.__contains__, tokens))
    n_neg = sum(map(lexicon.negative.__contains__, tokens))
    pos = n_pos / len(tokens)
    neg = n_neg / len(tokens)
    neu = 1.0 - (pos + neg)
    compound = (n_pos - n_neg) / (n_pos + n_neg + 1)
    return SentimentScore(pos, neg, neu, compound)


def _calendar_rows(days: list[dt.date]) -> tuple[np.ndarray, list[dt.date]]:
    """Every calendar date from the earliest to the latest of ``days``, and
    the row of each of ``days`` in that range."""
    ordinals = day_numbers(days)
    first = int(ordinals.min())
    rows = ordinals - first
    return rows, [dt.date.fromordinal(first + i) for i in range(int(rows.max()) + 1)]


def aggregate_daily_sentiment(items: list[tuple[dt.date, SentimentScore]]) -> TimeSeriesFrame:
    """Per-day mean of each score component over a continuous daily range.

    The output covers every calendar day from the earliest to the latest
    item date; days without items are filled with the neutral score
    (0, 0, 1, 0).  An empty item list yields an empty frame.
    """
    if not items:
        return TimeSeriesFrame([], {name: np.array([]) for name in SENTIMENT_COLUMNS})
    rows, dates = _calendar_rows([day for day, _ in items])
    counts = np.bincount(rows)
    observed = counts > 0
    scores = np.array([score for _, score in items], dtype=np.float64)
    cols = {}
    for j, name in enumerate(SENTIMENT_COLUMNS):
        # bincount adds each day's items in item order, like a left-to-right sum.
        sums = np.bincount(rows, weights=scores[:, j])
        col = np.full(len(dates), _NEUTRAL_SENTIMENT[name])
        col[observed] = sums[observed] / counts[observed]
        cols[name] = col
    return TimeSeriesFrame(dates, cols)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

# Columns whose population std falls at or below this (relative to the mean
# magnitude) are flagged zero-variance and map to 0 instead of dividing.
_ZERO_VARIANCE_TOL = 1e-12


class ColumnStats(NamedTuple):
    mean: float
    std: float
    zero_variance: bool


@dataclass
class StandardizationStats:
    """Per-column mean and population std, fit on training rows only."""

    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def __eq__(self, other):
        return isinstance(other, StandardizationStats) and self.columns == other.columns


def fit_standardize(frame: TimeSeriesFrame, train_row_range: tuple[int, int]) -> StandardizationStats:
    """Fit z-score statistics on rows [start, stop) of every column."""
    start, stop = train_row_range
    if not 0 <= start < stop <= len(frame):
        raise DataError(
            f"training row range [{start}, {stop}) is empty or out of bounds "
            f"for a frame of {len(frame)} rows"
        )
    stats = StandardizationStats()
    for name, values in frame.columns.items():
        chunk = values[start:stop]
        mean = float(np.mean(chunk))
        std = float(np.std(chunk))
        zero = std <= _ZERO_VARIANCE_TOL * (1.0 + abs(mean))
        stats.columns[name] = ColumnStats(mean, std, zero)
    return stats


def apply_standardize(frame: TimeSeriesFrame, stats: StandardizationStats) -> TimeSeriesFrame:
    """z = (x - mean) / std per fitted column; zero-variance columns map to 0."""
    new_cols = {}
    for name, col_stats in stats.columns.items():
        values = frame.column(name)
        if col_stats.zero_variance:
            new_cols[name] = np.zeros_like(values)
        else:
            new_cols[name] = (values - col_stats.mean) / col_stats.std
    return frame.with_columns(new_cols)


# ---------------------------------------------------------------------------
# Event encoding
# ---------------------------------------------------------------------------


def one_hot_encode(events: list[tuple[dt.date, str]], vocabulary: list[str]) -> TimeSeriesFrame:
    """Indicator columns per category over the events' calendar range.

    Multiple events on one day set multiple 1s (multi-hot).  Categories not
    in the vocabulary are rejected.  An empty event list yields an empty
    frame with the vocabulary columns.
    """
    if not vocabulary:
        raise ParameterError("one-hot vocabulary must be nonempty")
    if len(set(vocabulary)) != len(vocabulary):
        raise ParameterError("one-hot vocabulary contains duplicates")
    col_index = {cat: i for i, cat in enumerate(vocabulary)}
    if not events:
        return TimeSeriesFrame([], {cat: np.array([]) for cat in vocabulary})
    for day, cat in events:
        if cat not in col_index:
            raise ParameterError(f"unknown category {cat!r} on {day}")
    rows, dates = _calendar_rows([day for day, _ in events])
    matrix = np.zeros((len(dates), len(vocabulary)))
    matrix[rows, [col_index[cat] for _, cat in events]] = 1.0
    return TimeSeriesFrame(dates, {cat: matrix[:, i] for cat, i in col_index.items()})


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


def _forward_fill_onto(days: np.ndarray, source: TimeSeriesFrame) -> dict[str, np.ndarray]:
    """Carry each column's most recent prior finite observation onto the date
    ordinals ``days``; positions before its first finite observation stay NaN."""
    source_days = day_numbers(source.dates)
    out = {}
    for name, values in source.columns.items():
        observed = np.isfinite(values)
        prior = np.searchsorted(source_days[observed], days, side="right") - 1
        have = prior >= 0
        col = np.full(days.size, np.nan)
        col[have] = values[observed][prior[have]]
        out[name] = col
    return out


def _same_day_onto(days: np.ndarray, source: TimeSeriesFrame,
                   fill: dict[str, float]) -> dict[str, np.ndarray]:
    """Each column's finite value dated exactly on ``days``, else ``fill[name]``."""
    _, rows, src = np.intersect1d(days, day_numbers(source.dates), assume_unique=True,
                                  return_indices=True)
    out = {}
    for name, values in source.columns.items():
        col = np.full(days.size, fill[name])
        finite = np.isfinite(values[src])
        col[rows[finite]] = values[src[finite]]
        out[name] = col
    return out


def align_by_date(
    market: TimeSeriesFrame,
    *,
    financial: TimeSeriesFrame | None = None,
    sentiment: TimeSeriesFrame | None = None,
    policy: TimeSeriesFrame | None = None,
) -> TimeSeriesFrame:
    """Join every source onto the market frame's date grid.

    Fill rules per source: financial (and macro) columns are forward-filled
    from the most recent prior report; sentiment gaps take the neutral score;
    policy gaps are zero (no event).  Market rows dated before a financial
    column's first report have no defensible fill and are dropped.
    """
    if len(market) == 0:
        raise DataError("market frame is empty")
    columns: dict[str, np.ndarray] = dict(market.columns)

    def _add(name: str, values: np.ndarray) -> None:
        if name in columns:
            raise ParameterError(f"duplicate column name across sources: {name!r}")
        columns[name] = values

    drop_mask = np.zeros(len(market), dtype=bool)
    days = day_numbers(market.dates)

    if financial is not None and financial.columns:
        for name, values in _forward_fill_onto(days, financial).items():
            _add(name, values)
            drop_mask |= ~np.isfinite(values)

    if sentiment is not None and sentiment.columns:
        unknown = [n for n in sentiment.columns if n not in _NEUTRAL_SENTIMENT]
        if unknown:
            raise ParameterError(
                f"sentiment frame has unrecognized columns {unknown}; "
                f"expected a subset of {list(SENTIMENT_COLUMNS)}"
            )
        for name, values in _same_day_onto(days, sentiment, _NEUTRAL_SENTIMENT).items():
            _add(name, values)

    if policy is not None and policy.columns:
        no_event = dict.fromkeys(policy.columns, 0.0)
        for name, values in _same_day_onto(days, policy, no_event).items():
            _add(name, values)

    keep = np.flatnonzero(~drop_mask)
    if keep.size == 0:
        fin_range = (
            f"{financial.dates[0]}..{financial.dates[-1]}"
            if financial is not None and len(financial)
            else "empty"
        )
        raise DataError(
            "alignment produced no rows: market covers "
            f"{market.dates[0]}..{market.dates[-1]} but financial data covers {fin_range}"
        )
    dates = [market.dates[i] for i in keep]
    return TimeSeriesFrame(dates, {n: v[keep] for n, v in columns.items()})


# ---------------------------------------------------------------------------
# Windowed samples
# ---------------------------------------------------------------------------


@dataclass
class SampleSet:
    """Aligned windowed samples.

    ``x_seq[i]`` holds rows ``t-T+1 .. t`` of the sequence channels,
    ``x_static[i]`` row ``t`` of the static columns, ``y[i]`` the target
    measured strictly after row ``t``, and ``dates[i]`` the prediction date
    (the window's final row ``t``).
    """

    x_seq: np.ndarray      # [N x T x F_seq]
    x_static: np.ndarray   # [N x F_static]
    y: np.ndarray          # [N]
    dates: list[dt.date]

    def __post_init__(self):
        n = self.x_seq.shape[0]
        if not (self.x_static.shape[0] == n and self.y.shape[0] == n and len(self.dates) == n):
            raise DimensionError(
                f"sample count mismatch: x_seq {self.x_seq.shape[0]}, "
                f"x_static {self.x_static.shape[0]}, y {self.y.shape[0]}, "
                f"dates {len(self.dates)}"
            )

    def __len__(self) -> int:
        return self.x_seq.shape[0]

    @property
    def window(self) -> int:
        return self.x_seq.shape[1]

    @property
    def seq_width(self) -> int:
        return self.x_seq.shape[2]

    @property
    def static_width(self) -> int:
        return self.x_static.shape[1]

    def subset(self, start: int, stop: int) -> "SampleSet":
        return SampleSet(
            self.x_seq[start:stop],
            self.x_static[start:stop],
            self.y[start:stop],
            self.dates[start:stop],
        )


def build_windows(
    aligned: TimeSeriesFrame,
    seq_cols: list[str],
    static_cols: list[str],
    target_col: str,
    window: int,
    horizon: int,
) -> SampleSet:
    """Slide a stride-1 window of length ``window`` over the aligned frame.

    One sample per admissible end row ``t``: sequence block rows
    ``t-window+1 .. t``, static row ``t``, target value at row
    ``t + horizon``.  Inputs therefore never include any row at or past the
    target row.
    """
    if window < 1 or horizon < 1:
        raise ParameterError(f"window and horizon must be >= 1, got {window}, {horizon}")
    n_rows = len(aligned)
    if n_rows < window + horizon:
        raise DataError(
            f"insufficient data: {n_rows} rows, need at least window + horizon = "
            f"{window + horizon}"
        )
    seq = aligned.matrix(seq_cols)
    static = aligned.matrix(static_cols) if static_cols else np.zeros((n_rows, 0))
    target = aligned.column(target_col)
    for name, values in (("sequence", seq), ("static", static), ("target", target)):
        if not np.all(np.isfinite(values)):
            raise DataError(f"{name} columns contain missing values; trim warm-up rows first")
    ends = slice(window - 1, n_rows - horizon)  # every admissible end row t
    # sliding_window_view puts the window axis last: [N x F x T] -> [N x T x F].
    x_seq = sliding_window_view(seq[:ends.stop], window, axis=0).transpose(0, 2, 1)
    return SampleSet(np.ascontiguousarray(x_seq), static[ends],
                     target[ends.start + horizon:].copy(), aligned.dates[ends])
