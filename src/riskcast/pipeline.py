"""End-to-end feature pipeline: raw bundle to windowed, split datasets.

The risk target is forward realized volatility: the population standard
deviation of the ``horizon`` daily returns immediately after each sample's
window, min-max mapped to [0, 1] using the training block's range (values
outside it clip).  Market channels, sentiment channels, and static
financial/macro columns are z-scored with statistics fit on training rows
only, so a zeroed channel means "at its training average"; policy indicator
columns stay binary.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .data_io import DatasetBundle, chronological_split, split_counts
from .errors import DataError
from .features import (
    SampleSet,
    aggregate_daily_sentiment,
    align_by_date,
    apply_standardize,
    build_windows,
    daily_returns,
    fit_standardize,
    join_same_day,
    moving_average,
    one_hot_encode,
    sentiment_scores,
    trailing_volatility,
)
from .frames import TimeSeriesFrame, drop_incomplete_rows
from .lexicon import SentimentLexicon
from .preprocess import PipelineConfig, Preprocess, SplitSpec

MARKET_CHANNELS = ("close", "ma5", "ma20", "ma60", "volume_log", "ret1", "rvol")
SENTIMENT_CHANNELS = ("pos", "neg", "compound")
TARGET_COLUMN = "rvol_raw"


def assemble_frame(bundle: DatasetBundle, lexicon: SentimentLexicon,
                   cfg: PipelineConfig, policy_vocab: list[str],
                   test_block_of: Preprocess | None = None) -> TimeSeriesFrame:
    """Aligned frame of raw (unstandardized) feature and target columns.

    Rows with any missing value (moving-average warm-up, rows before the
    first financial report, the unknowable final target rows excepted) are
    dropped so the windowing stage sees a dense table.  Sentiment and policy
    are joined after that drop, since their same-day fills are never missing;
    the columns stay in market, financial, sentiment, policy order.

    With ``test_block_of``, the frame starts at the first row that the test
    block of that recipe's split reads (:func:`first_test_row`), and only
    the news dated on or after that row's day is scored.  Each of its rows is
    bitwise that row of the full frame.
    """
    market = bundle.market
    close = market.column("close")
    returns = daily_returns(close)
    rvol = trailing_volatility(returns, cfg.horizon)
    market_feat = TimeSeriesFrame(market.days, {
        "close": close,
        "ma5": moving_average(close, 5),
        "ma20": moving_average(close, 20),
        "ma60": moving_average(close, 60),
        "volume_log": np.log1p(market.column("volume")),
        "ret1": returns,
        "rvol": rvol,
        TARGET_COLUMN: rvol.copy(),
    })
    financial = bundle.financial if len(bundle.financial) else None
    policy = None
    if policy_vocab:
        policy = one_hot_encode(bundle.policy, policy_vocab)
    rows = drop_incomplete_rows(align_by_date(market_feat, financial=financial))

    news = bundle.news
    start = 0 if test_block_of is None else first_test_row(rows.days, test_block_of)
    if start:
        rows = TimeSeriesFrame(rows.days[start:], {n: v[start:] for n, v in rows.columns.items()})
        first_day = dt.date.fromordinal(int(rows.days[0]))
        news = [item for item in news if item[0] >= first_day]
    days, texts = zip(*news) if news else ((), ())
    sentiment = aggregate_daily_sentiment(days, sentiment_scores(texts, lexicon))
    return join_same_day(rows, sentiment=sentiment, policy=policy)


def first_test_row(days: np.ndarray, preprocess: Preprocess) -> int:
    """First row, of the aligned rows dated ``days``, that the test block of
    ``preprocess``'s split reads.

    The windows over those rows are counted and checked as
    :func:`chronological_split` counts and checks them.  Window ``i`` reads
    rows ``i .. i + window - 1``, so the test block, the windows from
    ``n_train + n_val`` on, reads the rows from ``n_train + n_val`` on.  A
    history too short for one window gives row 0, so that windowing reports it.
    """
    n_samples = preprocess.config.n_samples(len(days))
    if n_samples < 1:
        return 0
    n_train, n_val, _ = split_counts(n_samples, preprocess.split)
    return n_train + n_val


def _policy_vocabulary(bundle: DatasetBundle) -> list[str]:
    return sorted({category for _, category in bundle.policy})


def _samples(frame: TimeSeriesFrame, preprocess: Preprocess) -> SampleSet:
    """The samples of an assembled frame under ``preprocess``: its columns
    standardized, windowed, and the target min-max mapped (clipped to [0, 1])."""
    samples = build_windows(apply_standardize(frame, preprocess.stats), preprocess.seq_cols,
                            preprocess.static_all, TARGET_COLUMN, preprocess.window,
                            preprocess.config.horizon)
    samples.y = np.clip((samples.y - preprocess.y_min) / (preprocess.y_max - preprocess.y_min),
                        0.0, 1.0)
    return samples


def make_datasets(bundle: DatasetBundle, lexicon: SentimentLexicon,
                  cfg: PipelineConfig, split: SplitSpec
                  ) -> tuple[SampleSet, SampleSet, SampleSet, Preprocess]:
    """Fit the preprocessing recipe and emit chronological train/val/test sets."""
    policy_vocab = _policy_vocabulary(bundle)
    frame = assemble_frame(bundle, lexicon, cfg, policy_vocab)
    static_cols = [name for name in bundle.financial.column_names]
    if not static_cols and not policy_vocab:
        raise DataError("no static features: provide financial/macro data or policy events")

    n_train, _, _ = split_counts(cfg.n_samples(len(frame)), split)
    # Training samples read rows [0, window + n_train - 1) as inputs and
    # their targets from the rows ``horizon`` after each window's last row.
    train_row_stop = cfg.window + n_train - 1
    first_target = cfg.window - 1 + cfg.horizon
    targets = frame.column(TARGET_COLUMN)[first_target:first_target + n_train]
    seq_cols = list(MARKET_CHANNELS) + list(SENTIMENT_CHANNELS)
    preprocess = Preprocess(
        cfg, split, list(MARKET_CHANNELS), list(SENTIMENT_CHANNELS), static_cols, policy_vocab,
        stats=fit_standardize(frame.select(seq_cols + static_cols), (0, train_row_stop)),
        y_min=float(np.min(targets)), y_max=float(np.max(targets)),
    )
    train, val, test = chronological_split(_samples(frame, preprocess), split)
    return train, val, test, preprocess


def build_samples(bundle: DatasetBundle, lexicon: SentimentLexicon,
                  preprocess: Preprocess, test_block: bool = False) -> SampleSet:
    """Rebuild samples from raw data under a stored preprocessing recipe.

    Used by evaluation and prediction so that features match the training
    run bit for bit when given the same source data.  With ``test_block``,
    only the test block of the recipe's split is built, from only the rows
    and news it reads.  Standardization and the target's min-max map act on
    one row at a time with the stored statistics, so the block is bitwise
    the one that :func:`chronological_split` cuts from the full build.
    """
    missing = [name for name in preprocess.static_cols
               if name not in bundle.financial.columns]
    if missing:
        raise DataError(
            f"data lacks the recipe's static column(s) {', '.join(map(repr, missing))}: "
            "financial.csv or macro.csv is missing or incomplete"
        )
    frame = assemble_frame(bundle, lexicon, preprocess.config, preprocess.policy_vocab,
                           test_block_of=preprocess if test_block else None)
    return _samples(frame, preprocess)


def split_for(preprocess: Preprocess) -> SplitSpec:
    return preprocess.split
