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
from .frames import TimeSeriesFrame
from .lexicon import SentimentLexicon
from .preprocess import PipelineConfig, Preprocess, SplitSpec

MARKET_CHANNELS = ("close", "ma5", "ma20", "ma60", "volume_log", "ret1", "rvol")
SENTIMENT_CHANNELS = ("pos", "neg", "compound")
TARGET_COLUMN = "rvol_raw"


def assemble_frame(bundle: DatasetBundle, lexicon: SentimentLexicon,
                   cfg: PipelineConfig, policy_vocab: list[str],
                   test_block_of: Preprocess | None = None) -> TimeSeriesFrame:
    """Aligned frame of raw (unstandardized) feature and target columns.

    The one place that decides where rows start: at the first row whose
    every value is finite, after the moving-average warm-up and the first
    financial report.  A value that is not finite after that row (an
    overflow in the market features) is a ``DataError`` naming its column
    and date, so no row inside the history is ever dropped.

    Policy is encoded onto the market days before alignment, so an unknown
    category is the first fault reported, and its columns are cut with the
    rows.  Only the news dated on a row's day is scored, and its daily means
    are aggregated onto the rows' days.  Neither sentiment's neutral fill nor
    policy's zero is missing, so neither moves the cut.

    With ``test_block_of``, the frame starts at the first row that the test
    block of that recipe's split reads, the windows counted and checked as
    :func:`chronological_split` does; window ``i`` reads rows ``i`` on.  A
    history too short for one window is kept, so that windowing reports it.
    Each row is bitwise that row of the full frame.
    """
    market = bundle.market
    close = market.column("close")
    # An overflow leaves a non-finite value, refused below by column and date.
    with np.errstate(over="ignore", invalid="ignore"):
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
    policy = TimeSeriesFrame(market.days)
    if policy_vocab:
        try:
            policy = one_hot_encode(bundle.policy, policy_vocab, market.days)
        except DataError as exc:
            # Only a recipe's vocabulary can lack a category: make_datasets
            # takes the vocabulary from the events themselves.
            raise DataError(f"policy.csv: {exc}, which is missing from the model's "
                            f"policy vocabulary {policy_vocab}") from None
    rows = align_by_date(market_feat, financial=bundle.financial)
    finite = np.isfinite(rows.matrix(rows.column_names))
    complete = finite.all(axis=1)
    start = int(complete.argmax()) if complete.any() else len(rows)
    gaps = np.argwhere(~finite[start:])
    if len(gaps):
        row, col = gaps[0]
        raise DataError(f"feature {rows.column_names[col]!r} is not finite on "
                        f"{rows.dates[start + row]}, inside the history")
    n_samples = cfg.n_samples(len(rows) - start)
    if test_block_of is not None and n_samples:
        n_train, n_val, _ = split_counts(n_samples, test_block_of.split)
        start += n_train + n_val
    days = rows.days[start:]
    rows, policy = (TimeSeriesFrame(days, {n: v[start:] for n, v in frame.columns.items()})
                    for frame in (rows, policy))
    news = bundle.news.select(np.isin(bundle.news.days, days))
    sentiment = aggregate_daily_sentiment(news.days, sentiment_scores(news.labels, lexicon), days)
    return join_same_day(rows, sentiment, policy)


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
    policy_vocab = sorted(set(bundle.policy.labels))
    frame = assemble_frame(bundle, lexicon, cfg, policy_vocab)
    static_cols = bundle.financial.column_names
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
