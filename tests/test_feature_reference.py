"""The whole-array feature pipeline against per-row reference loops.

The reference functions below are the per-row loops the pipeline used before
it was vectorised.  The vectorised code keeps their summation order, so the
comparisons are bitwise (``array_equal``), not within a tolerance.  The gap
and NaN cases pin behaviour the loops had implicitly.
"""

import datetime as dt
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import dated_labels, label_pairs
from riskcast import SeededRng, SynthConfig, TimeSeriesFrame, default_lexicon, synth_generate
from riskcast.features import (
    SENTIMENT_COLUMNS,
    SentimentScore,
    aggregate_daily_sentiment,
    align_by_date,
    build_windows,
    daily_returns,
    join_same_day,
    moving_average,
    one_hot_encode,
    sentiment_score,
    trailing_volatility,
)
from riskcast.frames import day_numbers, merge_outer
from riskcast.models import linreg_fit
from riskcast.pipeline import (
    MARKET_CHANNELS,
    SENTIMENT_CHANNELS,
    TARGET_COLUMN,
    PipelineConfig,
    assemble_frame,
)

_NEUTRAL = {"pos": 0.0, "neg": 0.0, "neu": 1.0, "compound": 0.0}


# ---------------------------------------------------------------------------
# Per-row reference loops
# ---------------------------------------------------------------------------


def ref_moving_average(series, window):
    out = np.full(series.size, np.nan)
    for t in range(window - 1, series.size):
        out[t] = np.mean(series[t - window + 1:t + 1])
    return out


def ref_trailing_volatility(returns, window):
    out = np.full(returns.size, np.nan)
    for t in range(window - 1, returns.size):
        chunk = returns[t - window + 1:t + 1]
        if np.all(np.isfinite(chunk)):
            out[t] = np.std(chunk)
    return out


def ref_aggregate_daily_sentiment(items):
    by_day = {}
    for day, score in items:
        by_day.setdefault(day, []).append(score)
    first, last = min(by_day), max(by_day)
    dates = [first + dt.timedelta(days=i) for i in range((last - first).days + 1)]
    cols = {name: np.empty(len(dates)) for name in SENTIMENT_COLUMNS}
    for row, day in enumerate(dates):
        scores = by_day.get(day)
        for j, name in enumerate(SENTIMENT_COLUMNS):
            if scores:
                total = 0.0
                for s in scores:  # left to right, uncompensated
                    total += s[j]
                cols[name][row] = total / len(scores)
            else:
                cols[name][row] = _NEUTRAL[name]
    return TimeSeriesFrame(day_numbers(dates), cols)


def ref_one_hot_encode(events, vocabulary):
    first = min(day for day, _ in events)
    last = max(day for day, _ in events)
    dates = [first + dt.timedelta(days=i) for i in range((last - first).days + 1)]
    matrix = np.zeros((len(dates), len(vocabulary)))
    row_index = {d: i for i, d in enumerate(dates)}
    for day, cat in events:
        matrix[row_index[day], vocabulary.index(cat)] = 1.0
    return TimeSeriesFrame(day_numbers(dates),
                           {cat: matrix[:, i] for i, cat in enumerate(vocabulary)})


def ref_forward_fill_onto(dates, source):
    out = {name: np.full(len(dates), np.nan) for name in source.columns}
    for name, values in source.columns.items():
        pos = 0
        current = np.nan
        for row, day in enumerate(dates):
            while pos < len(source) and source.dates[pos] <= day:
                if np.isfinite(values[pos]):
                    current = values[pos]
                pos += 1
            out[name][row] = current
    return out


def ref_same_day_onto(dates, source, fill):
    index = {d: i for i, d in enumerate(source.dates)}
    out = {}
    for name, values in source.columns.items():
        col = np.full(len(dates), fill[name])
        for row, day in enumerate(dates):
            pos = index.get(day)
            if pos is not None and np.isfinite(values[pos]):
                col[row] = values[pos]
        out[name] = col
    return out


def ref_align_by_date(market, financial=None, sentiment=None, policy=None):
    columns = dict(market.columns)
    if financial is not None and financial.columns:
        columns.update(ref_forward_fill_onto(market.dates, financial))
    if sentiment is not None and sentiment.columns:
        columns.update(ref_same_day_onto(market.dates, sentiment, _NEUTRAL))
    if policy is not None and policy.columns:
        columns.update(ref_same_day_onto(market.dates, policy,
                                         dict.fromkeys(policy.columns, 0.0)))
    return TimeSeriesFrame(market.days, columns)


def ref_drop_incomplete_rows(frame):
    keep = [row for row in range(len(frame))
            if all(np.isfinite(values[row]) for values in frame.columns.values())]
    return TimeSeriesFrame(frame.days[keep], {n: v[keep] for n, v in frame.columns.items()})


def ref_build_windows(aligned, seq_cols, static_cols, target_col, window, horizon):
    seq = aligned.matrix(seq_cols)
    static = aligned.matrix(static_cols)
    target = aligned.column(target_col)
    n = len(aligned) - window - horizon + 1
    x_seq = np.empty((n, window, seq.shape[1]))
    x_static = np.empty((n, static.shape[1]))
    y = np.empty(n)
    dates = []
    for i in range(n):
        end = i + window - 1
        x_seq[i] = seq[i:end + 1]
        x_static[i] = static[end]
        y[i] = target[end + horizon]
        dates.append(aligned.dates[end])
    return x_seq, x_static, y, dates


def ref_assemble_frame(bundle, lexicon, cfg, policy_vocab):
    market = bundle.market
    close = market.column("close")
    returns = daily_returns(close)
    rvol = ref_trailing_volatility(returns, cfg.horizon)
    market_feat = TimeSeriesFrame(market.days, {
        "close": close,
        "ma5": ref_moving_average(close, 5),
        "ma20": ref_moving_average(close, 20),
        "ma60": ref_moving_average(close, 60),
        "volume_log": np.log1p(market.column("volume")),
        "ret1": returns,
        "rvol": rvol,
        TARGET_COLUMN: rvol.copy(),
    })
    scored = [(day, sentiment_score(text, lexicon)) for day, text in label_pairs(bundle.news)]
    aligned = ref_align_by_date(market_feat, financial=bundle.financial,
                                sentiment=ref_aggregate_daily_sentiment(scored),
                                policy=ref_one_hot_encode(label_pairs(bundle.policy),
                                                          policy_vocab))
    return ref_drop_incomplete_rows(aligned)


def _aggregate(items, onto):
    """:func:`aggregate_daily_sentiment` of ``(date, score)`` pairs onto the
    day ordinals ``onto``."""
    return aggregate_daily_sentiment(day_numbers([day for day, _ in items]),
                                     [score for _, score in items], onto)


def ref_sentiment_onto(items, dates):
    """The reference calendar-day means of ``items`` looked up on ``dates``."""
    return TimeSeriesFrame(day_numbers(dates), ref_same_day_onto(
        dates, ref_aggregate_daily_sentiment(items), _NEUTRAL))


def _assert_frames_equal(got, want):
    assert got.dates == want.dates
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert np.array_equal(got.column(name), want.column(name), equal_nan=True), name


def _days(start, n, step=1):
    return [start + dt.timedelta(days=i * step) for i in range(n)]


def _trading_days(start, n):
    """``n`` weekdays from ``start`` on."""
    out, day = [], start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


# ---------------------------------------------------------------------------
# Trend and volatility windows
# ---------------------------------------------------------------------------


# Widths on each side of numpy's 8-lane unrolled and 128-element pairwise blocks.
WINDOWS = (1, 2, 5, 7, 8, 9, 20, 60, 128, 129, 200)


@pytest.mark.parametrize("window", WINDOWS)
def test_moving_average_bitwise_equals_loop(window):
    series = 100.0 + np.cumsum(SeededRng(window).normals(300, 0.0, 1.0))
    assert np.array_equal(moving_average(series, window), ref_moving_average(series, window),
                          equal_nan=True)


@pytest.mark.parametrize("window", WINDOWS)
def test_trailing_volatility_bitwise_equals_loop(window):
    returns = daily_returns(100.0 + np.cumsum(SeededRng(window).normals(300, 0.0, 1.0)))
    assert np.array_equal(trailing_volatility(returns, window),
                          ref_trailing_volatility(returns, window), equal_nan=True)


def test_trailing_volatility_interior_nan_blanks_every_touching_window():
    returns = SeededRng(3).normals(40, 0.0, 0.02)
    returns[17] = np.nan
    returns[30] = np.inf
    vol = trailing_volatility(returns, 5)
    for t in range(40):
        touches = t < 4 or 17 <= t <= 21 or 30 <= t <= 34
        assert np.isnan(vol[t]) == touches, t
    assert np.array_equal(vol, ref_trailing_volatility(returns, 5), equal_nan=True)


def test_trailing_volatility_window_longer_than_series_is_all_nan_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vol = trailing_volatility(np.array([0.01, -0.02, 0.03]), 5)
    assert vol.shape == (3,)
    assert np.isnan(vol).all()


# ---------------------------------------------------------------------------
# Date alignment
# ---------------------------------------------------------------------------


def test_forward_fill_over_merged_financial_and_macro_skips_holes_per_column():
    market = TimeSeriesFrame(day_numbers(_trading_days(dt.date(2021, 1, 4), 120)),
                             {"close": np.linspace(100.0, 110.0, 120)})
    quarters = [dt.date(2021, 1, 4), dt.date(2021, 4, 1), dt.date(2021, 6, 30)]
    financial = TimeSeriesFrame(day_numbers(quarters), {"profit": np.array([1.0, 2.0, 3.0])})
    months = _days(dt.date(2020, 12, 15), 7, step=30)
    macro = TimeSeriesFrame(day_numbers(months), {"cpi": np.arange(7, dtype=float) + 10.0})
    merged = merge_outer(financial, macro)
    assert np.isnan(merged.column("profit")).any() and np.isnan(merged.column("cpi")).any()

    aligned = align_by_date(market, financial=merged)
    _assert_frames_equal(aligned, ref_align_by_date(market, financial=merged))
    # A macro-only date must not reset profit to NaN, nor a report date cpi.
    by_day = dict(zip(aligned.dates, aligned.column("profit")))
    assert by_day[dt.date(2021, 3, 31)] == 1.0
    assert by_day[dt.date(2021, 4, 1)] == 2.0
    assert np.isfinite(aligned.column("cpi")).all()
    assert aligned.dates[0] == dt.date(2021, 1, 4)


def test_report_dated_on_a_weekend_carries_onto_the_next_trading_day():
    market = TimeSeriesFrame(day_numbers(_trading_days(dt.date(2021, 3, 1), 15)),
                             {"close": np.arange(15, dtype=float)})
    saturday = dt.date(2021, 3, 6)
    financial = TimeSeriesFrame(day_numbers([dt.date(2021, 3, 1), saturday]),
                                {"profit": np.array([5.0, 7.0])})
    aligned = align_by_date(market, financial=financial)
    by_day = dict(zip(aligned.dates, aligned.column("profit")))
    assert by_day[dt.date(2021, 3, 5)] == 5.0   # Friday before the report
    assert by_day[dt.date(2021, 3, 8)] == 7.0   # Monday after it
    _assert_frames_equal(aligned, ref_align_by_date(market, financial=financial))


def test_sentiment_and_policy_outside_market_range_or_off_trading_days():
    market = TimeSeriesFrame(day_numbers(_trading_days(dt.date(2021, 3, 1), 10)),
                             {"close": np.arange(10, dtype=float)})
    items = [
        (dt.date(2021, 2, 20), SentimentScore(0.9, 0.0, 0.1, 0.9)),   # before the market
        (dt.date(2021, 3, 6), SentimentScore(0.5, 0.2, 0.3, 0.2)),    # Saturday
        (dt.date(2021, 3, 7), SentimentScore(0.1, 0.6, 0.3, -0.5)),   # Sunday
        (dt.date(2021, 3, 9), SentimentScore(0.3, 0.1, 0.6, 0.4)),    # Tuesday
        (dt.date(2021, 4, 2), SentimentScore(0.0, 0.8, 0.2, -0.8)),   # after the market
    ]
    events = [(dt.date(2021, 2, 1), "hike"), (dt.date(2021, 3, 3), "hike"),
              (dt.date(2021, 3, 13), "hike")]   # before the market, Wednesday, Saturday
    aligned = join_same_day(align_by_date(market), _aggregate(items, market.days),
                            one_hot_encode(dated_labels(events), ["hike"], market.days))
    _assert_frames_equal(aligned, ref_align_by_date(
        market, sentiment=ref_aggregate_daily_sentiment(items),
        policy=ref_one_hot_encode(events, ["hike"])))
    compound = dict(zip(aligned.dates, aligned.column("compound")))
    assert compound[dt.date(2021, 3, 8)] == 0.0   # weekend news does not carry to Monday
    assert compound[dt.date(2021, 3, 9)] == 0.4
    assert sum(v != 0.0 for v in compound.values()) == 1
    assert np.array_equal(aligned.column("neu"),
                          [0.6 if d == dt.date(2021, 3, 9) else 1.0 for d in aligned.dates])
    hike = dict(zip(aligned.dates, aligned.column("hike")))
    assert [d for d, v in hike.items() if v] == [dt.date(2021, 3, 3)]


def test_sentiment_frame_without_rows_fills_neutral():
    market = TimeSeriesFrame(day_numbers(_days(dt.date(2021, 3, 1), 4)), {"close": np.ones(4)})
    aligned = join_same_day(align_by_date(market), _aggregate([], market.days))
    assert np.array_equal(aligned.column("neu"), np.ones(4))
    assert np.array_equal(aligned.column("pos"), np.zeros(4))


# ---------------------------------------------------------------------------
# Daily sentiment aggregation
# ---------------------------------------------------------------------------


def test_aggregate_many_items_per_day_is_a_left_to_right_sum_bitwise():
    day = dt.date(2022, 5, 2)
    # Item order decides these sums: 1e-16 + 1e-16 + 1.0 and 1.0 + 1e-16 + 1e-16 differ.
    items = [
        (day, SentimentScore(1e-16, 0.1, 0.7, 0.3)),
        (day, SentimentScore(1e-16, 0.2, 0.1, -0.7)),
        (day, SentimentScore(1.0, 0.3, 0.2, 0.1)),
        (day + dt.timedelta(days=3), SentimentScore(1.0, 0.1, 0.2, 0.3)),
        (day + dt.timedelta(days=3), SentimentScore(1e-16, 0.2, 0.3, 0.4)),
        (day + dt.timedelta(days=3), SentimentScore(1e-16, 0.3, 0.4, 0.5)),
        (day + dt.timedelta(days=3), SentimentScore(0.1, 0.4, 0.5, 0.6)),
        (day, SentimentScore(0.25, 0.5, 0.125, 0.0625)),
    ]
    dates = _days(day, 4)
    got = _aggregate(items, day_numbers(dates))
    _assert_frames_equal(got, ref_sentiment_onto(items, dates))
    assert got.column("pos")[0] == (1e-16 + 1e-16 + 1.0 + 0.25) / 4
    assert np.array_equal(got.column("neu")[1:3], [1.0, 1.0])


def test_aggregate_bitwise_on_generated_news():
    bundle = synth_generate(SynthConfig(n_days=300, seed=13))
    lexicon = default_lexicon()
    items = [(day, sentiment_score(text, lexicon)) for day, text in label_pairs(bundle.news)]
    assert len(items) > len({day for day, _ in items})
    dates = bundle.market.dates
    _assert_frames_equal(_aggregate(items, day_numbers(dates)), ref_sentiment_onto(items, dates))


# ---------------------------------------------------------------------------
# The assembled frame and its windows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 21])
def test_assemble_frame_and_windows_bitwise_equal_the_loops(seed):
    bundle = synth_generate(SynthConfig(n_days=400, seed=seed))
    lexicon = default_lexicon()
    cfg = PipelineConfig()
    vocab = sorted(set(bundle.policy.labels))
    frame = assemble_frame(bundle, lexicon, cfg, vocab)
    _assert_frames_equal(frame, ref_assemble_frame(bundle, lexicon, cfg, vocab))

    seq_cols = list(MARKET_CHANNELS) + list(SENTIMENT_CHANNELS)
    static_cols = bundle.financial.column_names + vocab
    samples = build_windows(frame, seq_cols, static_cols, TARGET_COLUMN, cfg.window, cfg.horizon)
    x_seq, x_static, y, dates = ref_build_windows(frame, seq_cols, static_cols, TARGET_COLUMN,
                                                  cfg.window, cfg.horizon)
    assert np.array_equal(samples.x_seq, x_seq)
    assert np.array_equal(samples.x_static, x_static)
    assert np.array_equal(samples.y, y)
    assert samples.dates == dates
    # Bitwise, not only equal in value: the windows are the reference's bytes.
    assert np.ascontiguousarray(samples.x_seq).tobytes() == x_seq.tobytes()
    assert samples.x_static.flags.c_contiguous


def test_windows_do_not_share_memory_with_the_frame():
    frame = TimeSeriesFrame(day_numbers(_days(dt.date(2020, 1, 1), 12)), {
        "a": np.arange(12, dtype=float), "s": np.arange(12, dtype=float) * 2.0,
    })
    samples = build_windows(frame, ["a"], ["s"], "a", 3, 2)
    assert not np.shares_memory(samples.x_seq, frame.column("a"))
    with pytest.raises(ValueError, match="read-only"):
        samples.x_seq[:] = -1.0
    samples.x_static[:] = -1.0
    samples.y[:] = -1.0
    assert np.array_equal(frame.column("a"), np.arange(12, dtype=float))
    assert np.array_equal(frame.column("s"), np.arange(12, dtype=float) * 2.0)


_WIDE_SEQ = [f"s{i}" for i in range(10)]
_WIDE_STATIC = ["c0", "c1", "c2"]


def _wide_frame(n_rows, seed=5):
    """``n_rows`` days of standard-normal ``_WIDE_SEQ``, ``_WIDE_STATIC`` and ``y`` columns."""
    rng = SeededRng(seed)
    return TimeSeriesFrame(np.arange(730000, 730000 + n_rows),
                           {name: rng.normals(n_rows) for name in [*_WIDE_SEQ, *_WIDE_STATIC, "y"]})


def _peak_bytes(call):
    """The result of ``call()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_windows_never_builds_the_window_tensor():
    frame = _wide_frame(3000)
    samples, peak = _peak_bytes(lambda: build_windows(frame, _WIDE_SEQ, _WIDE_STATIC, "y", 20, 5))
    assert samples.x_seq.shape == (2976, 20, 10)
    assert peak < samples.x_seq.nbytes / 4


def test_linreg_fit_builds_no_design_matrix():
    """The fit reads the window rows and the static columns, not a design
    matrix: its peak stays below a quarter of the design's bytes."""
    samples = build_windows(_wide_frame(3000), _WIDE_SEQ, _WIDE_STATIC, "y", 20, 5)
    design_bytes = len(samples) * (20 * 10 + 3 + 1) * 8
    _, peak = _peak_bytes(lambda: linreg_fit(samples))
    assert peak < design_bytes / 4
