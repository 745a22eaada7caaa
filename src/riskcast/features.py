"""Feature engineering: trend windows, sentiment scoring, standardization,
event encoding, cross-source date alignment, and windowed sample assembly.

All functions here are pure over immutable inputs.  Windowing is strictly
causal: trailing moving averages, targets taken after the input window, and
an exhaustive no-lookahead guarantee on every produced sample.
"""

from __future__ import annotations

import datetime as dt
import itertools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DimensionError, InsufficientHistoryError, ParameterError
from .frames import TimeSeriesFrame, calendar_dates, day_numbers
from .lexicon import SentimentLexicon

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


# Texts scored per pass: bounds how many token strings are alive at once.
_SCORE_CHUNK = 4096
# Token kinds: any other word, a positive term, a negative term, a text separator.
_WORD, _POS, _NEG, _SEP = range(4)
_TOKEN_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz"


def sentiment_scores(texts: Sequence[str], lexicon: SentimentLexicon) -> np.ndarray:
    """``[n x 4]`` lexicon scores (``pos``, ``neg``, ``neu``, ``compound``),
    one row per text; row ``i`` is :func:`sentiment_score` of ``texts[i]``.

    Tokens are the maximal runs of ASCII ``[a-z0-9]`` in the lower-cased
    text.  Each chunk of texts is lower-cased text by text and joined with a
    NUL separator token.  In its UTF-8 bytes every non-ASCII character is
    bytes >= 0x80, never a token byte, so mapping all bytes but token bytes
    and NUL to spaces and splitting on spaces tokenises the whole chunk in
    one pass; a token belongs to the text numbered by the separators before it.
    """
    spaces = bytes(c if c in _TOKEN_BYTES or c == 0 else 0x20 for c in range(256))
    kinds_of = {**{t.encode("utf-8", "surrogatepass"): _POS for t in lexicon.positive},
                **{t.encode("utf-8", "surrogatepass"): _NEG for t in lexicon.negative},
                b"\x00": _SEP}
    out = np.empty((len(texts), len(SENTIMENT_COLUMNS)))
    for start in range(0, len(texts), _SCORE_CHUNK):
        chunk = list(map(str.lower, texts[start:start + _SCORE_CHUNK]))
        joined = " \x00 ".join(chunk)
        if joined.count("\x00") != len(chunk) - 1:
            # A NUL inside a text is a non-token character, like a space.
            joined = " \x00 ".join(text.replace("\x00", " ") for text in chunk)
        tokens = joined.encode("utf-8", "surrogatepass").translate(spaces).split()
        kinds = np.fromiter(map(kinds_of.get, tokens, itertools.repeat(_WORD)),
                            dtype=np.int64, count=len(tokens))
        text_of = np.cumsum(kinds == _SEP)
        counts = np.bincount(text_of * 4 + kinds, minlength=4 * len(chunk)).reshape(-1, 4)
        n_pos, n_neg = counts[:, _POS], counts[:, _NEG]
        # A text with no tokens divides by 1 and scores neutral (0, 0, 1, 0).
        n_tokens = np.maximum(counts[:, _WORD] + n_pos + n_neg, 1)
        scores = out[start:start + len(chunk)]
        scores[:, 0] = n_pos / n_tokens
        scores[:, 1] = n_neg / n_tokens
        scores[:, 2] = 1.0 - (scores[:, 0] + scores[:, 1])
        scores[:, 3] = (n_pos - n_neg) / (n_pos + n_neg + 1)
    return out


def sentiment_score(text: str, lexicon: SentimentLexicon) -> SentimentScore:
    """Lexicon hit fractions over lowercase alphanumeric tokens.

    ``pos`` and ``neg`` are the fractions of tokens matching the respective
    term set, ``neu`` the remainder, and
    ``compound = (n_pos - n_neg) / (n_pos + n_neg + 1)`` in [-1, 1].
    Text with no tokens or no hits scores neutral (0, 0, 1, 0).
    """
    return SentimentScore(*sentiment_scores([text], lexicon)[0].tolist())


def _calendar_rows(dates: Sequence[dt.date]) -> tuple[np.ndarray, np.ndarray]:
    """The row of each of ``dates`` in the calendar range from the earliest
    to the latest of them, and that range's day ordinals."""
    days = day_numbers(dates)
    first = days.min()
    return days - first, first + np.arange(days.max() - first + 1)


def aggregate_daily_sentiment(days: Sequence[dt.date], scores) -> TimeSeriesFrame:
    """Per-day mean of each score component over a continuous daily range.

    ``scores`` holds one row of :data:`SENTIMENT_COLUMNS` per entry of
    ``days`` (as from :func:`sentiment_scores`).  The output covers every
    calendar day from the earliest to the latest date; days without items
    are filled with the neutral score (0, 0, 1, 0).  No items yield an
    empty frame.
    """
    if not len(days):
        return TimeSeriesFrame([], {name: np.array([]) for name in SENTIMENT_COLUMNS})
    rows, calendar = _calendar_rows(days)
    counts = np.bincount(rows)
    observed = counts > 0
    scores = np.asarray(scores, dtype=np.float64)
    cols = {}
    for j, name in enumerate(SENTIMENT_COLUMNS):
        # bincount adds each day's items in item order, like a left-to-right sum.
        sums = np.bincount(rows, weights=scores[:, j])
        col = np.full(len(calendar), _NEUTRAL_SENTIMENT[name])
        col[observed] = sums[observed] / counts[observed]
        cols[name] = col
    return TimeSeriesFrame(calendar, cols)


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
    rows, calendar = _calendar_rows([day for day, _ in events])
    matrix = np.zeros((len(calendar), len(vocabulary)))
    matrix[rows, [col_index[cat] for _, cat in events]] = 1.0
    return TimeSeriesFrame(calendar, {cat: matrix[:, i] for cat, i in col_index.items()})


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


def _forward_fill_onto(days: np.ndarray, source: TimeSeriesFrame) -> dict[str, np.ndarray]:
    """Carry each column's most recent prior finite observation onto the date
    ordinals ``days``; positions before its first finite observation stay NaN."""
    out = {}
    for name, values in source.columns.items():
        observed = np.isfinite(values)
        prior = np.searchsorted(source.days[observed], days, side="right") - 1
        have = prior >= 0
        col = np.full(days.size, np.nan)
        col[have] = values[observed][prior[have]]
        out[name] = col
    return out


def _same_day_onto(days: np.ndarray, source: TimeSeriesFrame,
                   fill: dict[str, float]) -> dict[str, np.ndarray]:
    """Each column's finite value dated exactly on ``days``, else ``fill[name]``."""
    _, rows, src = np.intersect1d(days, source.days, assume_unique=True, return_indices=True)
    out = {}
    for name, values in source.columns.items():
        col = np.full(days.size, fill[name])
        finite = np.isfinite(values[src])
        col[rows[finite]] = values[src[finite]]
        out[name] = col
    return out


def align_by_date(market: TimeSeriesFrame, *,
                  financial: TimeSeriesFrame | None = None) -> TimeSeriesFrame:
    """Join the financial (and macro) columns onto the market frame's date
    grid, each forward-filled from its most recent prior report.  Market rows
    dated before a column's first report have no defensible fill and are
    dropped.  Sentiment and policy join afterwards, by :func:`join_same_day`.
    """
    if len(market) == 0:
        raise DataError("market frame is empty")
    columns: dict[str, np.ndarray] = dict(market.columns)
    drop_mask = np.zeros(len(market), dtype=bool)

    if financial is not None and financial.columns:
        for name, values in _forward_fill_onto(market.days, financial).items():
            _add_column(columns, name, values)
            drop_mask |= ~np.isfinite(values)

    keep = np.flatnonzero(~drop_mask)
    if keep.size == 0:
        fin_range = financial.span() if financial is not None and len(financial) else "empty"
        raise DataError(
            f"alignment produced no rows: market covers {market.span()} "
            f"but financial data covers {fin_range}"
        )
    return TimeSeriesFrame(market.days[keep], {n: v[keep] for n, v in columns.items()})


def _add_column(columns: dict[str, np.ndarray], name: str, values: np.ndarray) -> None:
    if name in columns:
        raise ParameterError(f"duplicate column name across sources: {name!r}")
    columns[name] = values


def join_same_day(
    frame: TimeSeriesFrame,
    *,
    sentiment: TimeSeriesFrame | None = None,
    policy: TimeSeriesFrame | None = None,
) -> TimeSeriesFrame:
    """``frame`` with the sentiment, then the policy columns added: each row
    takes the value dated on its own day, else the neutral score (sentiment)
    or zero (policy).  Neither fill is NaN, so no row is dropped, and a row's
    values do not depend on the other rows: joining a block of rows gives
    those rows of the whole join.  ``frame`` may be empty.
    """
    columns: dict[str, np.ndarray] = dict(frame.columns)
    if sentiment is not None and sentiment.columns:
        unknown = [n for n in sentiment.columns if n not in _NEUTRAL_SENTIMENT]
        if unknown:
            raise ParameterError(
                f"sentiment frame has unrecognized columns {unknown}; "
                f"expected a subset of {list(SENTIMENT_COLUMNS)}"
            )
        for name, values in _same_day_onto(frame.days, sentiment, _NEUTRAL_SENTIMENT).items():
            _add_column(columns, name, values)

    if policy is not None and policy.columns:
        no_event = dict.fromkeys(policy.columns, 0.0)
        for name, values in _same_day_onto(frame.days, policy, no_event).items():
            _add_column(columns, name, values)
    return TimeSeriesFrame(frame.days, columns)


# ---------------------------------------------------------------------------
# Windowed samples
# ---------------------------------------------------------------------------


@dataclass
class SampleSet:
    """Aligned windowed samples.

    ``x_seq[i]`` holds rows ``t-T+1 .. t`` of the sequence channels,
    ``x_static[i]`` row ``t`` of the static columns, ``y[i]`` the target
    measured strictly after row ``t``, and ``days[i]`` the day ordinal of the
    prediction date (the window's final row ``t``).

    From :func:`build_windows`, ``x_seq`` is a read-only strided view:
    neighbouring windows share their rows, so writing to it raises
    ``ValueError``.  Copy it (``np.array(samples.x_seq)``) before editing.
    """

    x_seq: np.ndarray      # [N x T x F_seq]
    x_static: np.ndarray   # [N x F_static]
    y: np.ndarray          # [N]
    days: np.ndarray       # [N] int64 day ordinals

    def __post_init__(self):
        self.days = np.asarray(self.days, dtype=np.int64)
        n = self.x_seq.shape[0]
        if not (self.x_static.shape[0] == n and self.y.shape[0] == n and len(self.days) == n):
            raise DimensionError(
                f"sample count mismatch: x_seq {self.x_seq.shape[0]}, "
                f"x_static {self.x_static.shape[0]}, y {self.y.shape[0]}, "
                f"dates {len(self.days)}"
            )

    def __len__(self) -> int:
        return self.x_seq.shape[0]

    @property
    def dates(self) -> list[dt.date]:
        """The prediction dates as ``datetime.date``, for writing and printing."""
        return calendar_dates(self.days)

    @property
    def window(self) -> int:
        return self.x_seq.shape[1]

    @property
    def static_width(self) -> int:
        return self.x_static.shape[1]

    def subset(self, start: int, stop: int) -> "SampleSet":
        return SampleSet(
            self.x_seq[start:stop],
            self.x_static[start:stop],
            self.y[start:stop],
            self.days[start:stop],
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

    ``x_seq`` is the read-only ``sliding_window_view`` of a private
    ``[rows x F_seq]`` copy of the sequence columns, so the ``[N x T x F_seq]``
    window tensor is never built and no window shares memory with
    ``aligned``.  ``x_static`` and ``y`` are writable arrays of their own.
    """
    n_rows = len(aligned)
    if n_rows < window + horizon:
        raise InsufficientHistoryError(
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
    # Each window keeps the row layout of a [T x F] block; consumers copy what they use.
    x_seq = sliding_window_view(seq[:ends.stop], window, axis=0).transpose(0, 2, 1)
    return SampleSet(x_seq, static[ends], target[ends.start + horizon:].copy(),
                     aligned.days[ends])
