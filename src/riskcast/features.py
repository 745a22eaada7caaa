"""Feature engineering: trend windows, sentiment scoring, standardization,
event encoding, cross-source date alignment, and windowed sample assembly.

All functions here are pure over immutable inputs.  Windowing is strictly
causal: trailing moving averages, targets taken after the input window, and
an exhaustive no-lookahead guarantee on every produced sample.

Financial columns are forward-filled onto the market days.  Daily sentiment
and policy indicators are built straight onto the day ordinals they join,
so no frame holds a day that is not one of its rows; a row takes only the
news and events dated on its own day.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DimensionError, InsufficientHistoryError, ParameterError
from .frames import DatedLabels, TimeSeriesFrame, calendar_dates
from .lexicon import SentimentLexicon

SENTIMENT_COLUMNS = ("pos", "neg", "neu", "compound")
_NEUTRAL_SENTIMENT = {"pos": 0.0, "neg": 0.0, "neu": 1.0, "compound": 0.0}


# ---------------------------------------------------------------------------
# Trend and volatility series
# ---------------------------------------------------------------------------


def moving_average(series, window: int) -> np.ndarray:
    """Trailing mean over the last ``window`` entries; causal by construction.

    The first ``window - 1`` entries have no full window and are NaN, so a
    window longer than the series yields an all-NaN result.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.size == 0:
        raise DataError("moving_average needs a nonempty 1-d series")
    if window < 1:
        raise ParameterError(f"moving average window must be >= 1, got {window}")
    out = np.full(series.size, np.nan)
    if window > series.size:
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


# Texts scored per pass: bounds the chunk's byte buffer and its per-token
# arrays.  On 20,000 days of generated news, 1,024 was no faster and 16,384
# was slower.
_SCORE_CHUNK = 4096
# Token kinds: any other word, a positive term, a negative term.
_WORD, _POS, _NEG = range(3)
_TOKEN_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz"
# Maps every byte but a token byte and NUL to a space, so the token bytes of
# the result are exactly its bytes above 0x20.
_SPACES = bytes(c if c in _TOKEN_BYTES or c == 0 else 0x20 for c in range(256))
# _KEEP[k] keeps the first k bytes of a little-endian word and zeroes the rest.
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Odd multiplier of the key hash (2**64 over the golden ratio).
_MIX = np.uint64(0x9E3779B97F4A7C15)


class _TermTable(NamedTuple):
    """An open-addressing (linear-probing) hash table of a lexicon's terms.

    Slot ``s`` holds a term of ``lengths[s]`` bytes (0 marks an empty slot),
    its kind and its bytes as little-endian ``uint64`` words ``words[:, s]``,
    zero past the term's end.  A term sits in its home slot (from
    :func:`_home_slots`) or after it, with no empty slot in between.  The
    table does not wrap: it runs on past the last home slot and ends in an
    empty slot, so every probe stops inside it.
    """
    shift: np.uint64
    lengths: np.ndarray
    kinds: np.ndarray
    words: np.ndarray


def _home_slots(lengths: np.ndarray, words, shift: np.uint64) -> np.ndarray:
    """The home slot of each key: its length and words mixed by xor and
    multiply, top bits kept.  All of it is ``uint64`` arithmetic, which
    wraps; mixed with ``int64`` it would promote to ``float64``."""
    mixed = lengths.astype(np.uint64)
    for word in words:
        mixed ^= word
        mixed *= _MIX
    return (mixed >> shift).astype(np.intp)


def _term_table(lexicon: SentimentLexicon) -> _TermTable:
    """The table of ``lexicon``'s terms, with at least four slots per term.

    Only a term that is one token can ever count.  Terms are lower case, so
    those are the ASCII alphanumeric ones; the others are left out.
    """
    terms = [t for t in lexicon.positive if t.isascii() and t.isalnum()]
    n_pos = len(terms)
    terms += [t for t in lexicon.negative if t.isascii() and t.isalnum()]
    n_words = max((-(-len(t) // 8) for t in terms), default=1)
    bits = max(1, (4 * len(terms)).bit_length())
    shift = np.uint64(64 - bits)
    lengths = np.array(list(map(len, terms)), dtype=np.intp)
    words = np.array(terms, dtype=f"S{8 * n_words}").view("<u8").reshape(-1, n_words).T
    homes = _home_slots(lengths, words, shift)
    # Placed in home order, a term takes its home slot or the slot after the
    # term placed before it, whichever is later.
    order = np.argsort(homes, kind="stable")
    rank = np.arange(len(terms))
    slots = np.maximum.accumulate(homes[order] - rank) + rank
    size = (1 << bits) + len(terms)
    table = _TermTable(shift, np.zeros(size, dtype=np.intp), np.zeros(size, dtype=np.intp),
                       np.zeros((n_words, size), dtype=np.uint64))
    table.lengths[slots] = lengths[order]
    table.kinds[slots] = np.repeat([_POS, _NEG], [n_pos, len(terms) - n_pos])[order]
    table.words[:, slots] = words[:, order]
    return table


def _token_kinds(table: _TermTable, buf: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """The kind of each token of the byte array ``buf`` that starts at
    ``starts`` and runs for ``lengths`` bytes.  ``buf`` must hold ``8 *
    len(table.words)`` bytes from every token start on."""
    # Word j of a token: the 8 bytes from its byte 8j, read unaligned (as
    # 8-byte void items, which gather faster than an unaligned "<u8" view)
    # with the bytes past the token's end zeroed.
    at = np.ndarray(len(buf) - 7, dtype="V8", buffer=buf, strides=(1,))
    words = [at[starts + 8 * j].view("<u8") & _KEEP[np.clip(lengths - 8 * j, 0, 8)]
             for j in range(len(table.words))]

    def probe(slots, lengths, words):
        """Which tokens the terms in ``slots`` match, and which go on: a slot
        holding another term sends a token on to the next slot, and an empty
        slot means it is no term."""
        found = table.lengths[slots]
        hit = found == lengths
        for term_words, token_words in zip(table.words, words):
            hit &= term_words[slots] == token_words
        return hit, np.flatnonzero(~hit & (found != 0))

    slots = _home_slots(lengths, words, table.shift)
    hit, on = probe(slots, lengths, words)
    kinds = table.kinds[slots] * hit
    probing = np.arange(len(starts))
    while on.size:
        probing, slots, lengths = probing[on], slots[on] + 1, lengths[on]
        words = [token_words[on] for token_words in words]
        hit, on = probe(slots, lengths, words)
        kinds[probing[hit]] = table.kinds[slots[hit]]
    return kinds


def sentiment_scores(texts: Sequence[str], lexicon: SentimentLexicon) -> np.ndarray:
    """``[n x 4]`` lexicon scores (``pos``, ``neg``, ``neu``, ``compound``),
    one row per text; row ``i`` is :func:`sentiment_score` of ``texts[i]``.

    Tokens are the maximal runs of ASCII ``[a-z0-9]`` in the lower-cased
    text.  Each chunk of texts is lower-cased text by text and joined with
    NUL separators.  In its UTF-8 bytes every non-ASCII character is bytes
    >= 0x80, never a token byte, so after mapping all bytes but token bytes
    and NUL to spaces, the tokens are the runs of bytes above 0x20.  Array
    passes over the whole chunk find their starts and lengths, count each
    text's tokens between the separators, and look every token up in one
    hash table of the lexicon's terms (:class:`_TermTable`), comparing its
    length and every 8-byte word exactly.
    """
    table = _term_table(lexicon)
    pad = b" " * (8 * len(table.words))
    out = np.empty((len(texts), len(SENTIMENT_COLUMNS)))
    for start in range(0, len(texts), _SCORE_CHUNK):
        chunk = list(map(str.lower, texts[start:start + _SCORE_CHUNK]))
        joined = "\x00".join(chunk)
        if joined.count("\x00") != len(chunk) - 1:
            # A NUL inside a text is a non-token character, like a space.
            joined = "\x00".join(text.replace("\x00", " ") for text in chunk)
        # A space before the chunk, so that every token starts and ends at an
        # edge of the bytes above 0x20, and spaces after it to read words from.
        buf = np.frombuffer(b" " + joined.encode("utf-8", "surrogatepass").translate(_SPACES)
                            + pad, dtype=np.uint8)
        token = buf > 0x20
        edges = np.flatnonzero(token[1:] != token[:-1]) + 1
        starts = edges[0::2]
        lengths = edges[1::2] - starts
        firsts = np.searchsorted(starts, np.flatnonzero(buf == 0))
        text_of = np.repeat(np.arange(len(chunk)), np.diff(firsts, prepend=0, append=len(starts)))
        kinds = _token_kinds(table, buf, starts, lengths)
        counts = np.bincount(text_of * 3 + kinds, minlength=3 * len(chunk)).reshape(-1, 3)
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


def aggregate_daily_sentiment(days: np.ndarray, scores, onto: np.ndarray) -> TimeSeriesFrame:
    """Per-day mean of each score component on the sorted day ordinals ``onto``.

    ``scores`` holds one row of :data:`SENTIMENT_COLUMNS` per day ordinal of
    ``days`` (as from :func:`sentiment_scores`).  A day of ``onto`` with items
    holds their mean, a day without items the neutral score (0, 0, 1, 0);
    items dated on no day of ``onto`` are left out.
    """
    on = np.isin(days, onto)
    rows = np.searchsorted(onto, days[on])
    counts = np.bincount(rows, minlength=len(onto))
    observed = counts > 0
    scores = np.asarray(scores, dtype=np.float64).reshape(len(days), len(SENTIMENT_COLUMNS))
    cols = {}
    for j, name in enumerate(SENTIMENT_COLUMNS):
        # bincount adds each day's items in item order, like a left-to-right sum.
        sums = np.bincount(rows, weights=scores[on, j], minlength=len(onto))
        col = np.full(len(onto), _NEUTRAL_SENTIMENT[name])
        col[observed] = sums[observed] / counts[observed]
        cols[name] = col
    return TimeSeriesFrame(onto, cols)


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


def fit_standardize(frame: TimeSeriesFrame, train_row_range: tuple[int, int]) -> dict[str, ColumnStats]:
    """Fit z-score statistics on rows [start, stop) of every column, in column order."""
    start, stop = train_row_range
    if not 0 <= start < stop <= len(frame):
        raise DataError(
            f"training row range [{start}, {stop}) is empty or out of bounds "
            f"for a frame of {len(frame)} rows"
        )
    stats = {}
    for name, values in frame.columns.items():
        chunk = values[start:stop]
        mean = float(np.mean(chunk))
        std = float(np.std(chunk))
        zero = std <= _ZERO_VARIANCE_TOL * (1.0 + abs(mean))
        stats[name] = ColumnStats(mean, std, zero)
    return stats


def apply_standardize(frame: TimeSeriesFrame, stats: dict[str, ColumnStats]) -> TimeSeriesFrame:
    """z = (x - mean) / std per fitted column; zero-variance columns map to 0."""
    new_cols = {}
    for name, col_stats in stats.items():
        values = frame.column(name)
        if col_stats.zero_variance:
            new_cols[name] = np.zeros_like(values)
        else:
            new_cols[name] = (values - col_stats.mean) / col_stats.std
    return TimeSeriesFrame(frame.days, {**frame.columns, **new_cols})


# ---------------------------------------------------------------------------
# Event encoding
# ---------------------------------------------------------------------------


def one_hot_encode(events: DatedLabels, vocabulary: list[str],
                   onto: np.ndarray) -> TimeSeriesFrame:
    """Indicator columns per category on the sorted day ordinals ``onto``.

    Multiple events on one day set multiple 1s (multi-hot); a day without
    events is all zero, and events dated on no day of ``onto`` are left out.
    Every event's category is checked: one not in the vocabulary is rejected.
    """
    if not vocabulary:
        raise ParameterError("one-hot vocabulary must be nonempty")
    if len(set(vocabulary)) != len(vocabulary):
        raise ParameterError("one-hot vocabulary contains duplicates")
    col_index = {cat: i for i, cat in enumerate(vocabulary)}
    cols = list(map(col_index.get, events.labels))
    if None in cols:
        at = cols.index(None)
        day = dt.date.fromordinal(int(events.days[at]))
        raise DataError(f"unknown category {events.labels[at]!r} on {day}")
    on = np.isin(events.days, onto)
    matrix = np.zeros((len(onto), len(vocabulary)))
    matrix[np.searchsorted(onto, events.days[on]), np.array(cols, dtype=np.int64)[on]] = 1.0
    return TimeSeriesFrame(onto, {cat: matrix[:, i] for cat, i in col_index.items()})


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


def align_by_date(market: TimeSeriesFrame, *,
                  financial: TimeSeriesFrame | None = None) -> TimeSeriesFrame:
    """Join the financial (and macro) columns onto every market day, each
    forward-filled from its most recent prior report; a row dated before a
    column's first report holds NaN there, and no row is dropped.  A column
    with no report on or before the last market day is a ``DataError``.
    Sentiment and policy join afterwards, by :func:`join_same_day`.
    """
    if len(market) == 0:
        raise DataError("market frame is empty")
    columns: dict[str, np.ndarray] = dict(market.columns)
    if financial is not None:
        for name, values in _forward_fill_onto(market.days, financial).items():
            _add_column(columns, name, values)
            if np.isnan(values[-1]):
                covers = f"covers {financial.span()}" if len(financial) else "has no rows"
                raise DataError(f"alignment produced no rows: market covers "
                                f"{market.span()} but financial data {covers}")
    return TimeSeriesFrame(market.days, columns)


def _add_column(columns: dict[str, np.ndarray], name: str, values: np.ndarray) -> None:
    if name in columns:
        raise DataError(f"duplicate column name across sources: {name!r}")
    columns[name] = values


def join_same_day(frame: TimeSeriesFrame, *sources: TimeSeriesFrame) -> TimeSeriesFrame:
    """``frame`` with the columns of each of ``sources`` added in turn.  Each
    source is dated on ``frame``'s own days, as :func:`aggregate_daily_sentiment`
    and :func:`one_hot_encode` date it when given them."""
    columns: dict[str, np.ndarray] = dict(frame.columns)
    for source in sources:
        for name, values in source.columns.items():
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
