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

from dataclasses import dataclass

import numpy as np

from .data_io import DatasetBundle, SplitSpec, chronological_split, split_counts
from .errors import DataError
from .features import (
    SampleSet,
    aggregate_daily_sentiment,
    align_by_date,
    apply_standardize,
    build_windows,
    daily_returns,
    fit_standardize,
    moving_average,
    one_hot_encode,
    sentiment_scores,
    trailing_volatility,
)
from .frames import TimeSeriesFrame, drop_incomplete_rows
from .lexicon import SentimentLexicon
from .preprocess import Preprocess

MARKET_CHANNELS = ("close", "ma5", "ma20", "ma60", "volume_log", "ret1", "rvol")
SENTIMENT_CHANNELS = ("pos", "neg", "compound")
TARGET_COLUMN = "rvol_raw"


@dataclass(frozen=True)
class PipelineConfig:
    window: int = 20
    horizon: int = 5


def assemble_frame(bundle: DatasetBundle, lexicon: SentimentLexicon,
                   cfg: PipelineConfig, policy_vocab: list[str]) -> TimeSeriesFrame:
    """Aligned frame of raw (unstandardized) feature and target columns.

    Rows with any missing value (moving-average warm-up, rows before the
    first financial report, the unknowable final target rows excepted) are
    dropped so the windowing stage sees a dense table.
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

    days, texts = zip(*bundle.news) if bundle.news else ((), ())
    sentiment = aggregate_daily_sentiment(days, sentiment_scores(texts, lexicon))
    financial = bundle.financial if len(bundle.financial) else None
    policy = None
    if policy_vocab:
        policy = one_hot_encode(bundle.policy, policy_vocab)
    aligned = align_by_date(market_feat, financial=financial,
                            sentiment=sentiment, policy=policy)
    return drop_incomplete_rows(aligned)


def _policy_vocabulary(bundle: DatasetBundle) -> list[str]:
    return sorted({category for _, category in bundle.policy})


def _normalize_target(y: np.ndarray, y_min: float, y_max: float) -> np.ndarray:
    if not y_max > y_min:
        raise DataError(
            f"target range is degenerate: min {y_min!r}, max {y_max!r}"
        )
    return np.clip((y - y_min) / (y_max - y_min), 0.0, 1.0)


def make_datasets(bundle: DatasetBundle, lexicon: SentimentLexicon,
                  cfg: PipelineConfig, split: SplitSpec
                  ) -> tuple[SampleSet, SampleSet, SampleSet, Preprocess]:
    """Fit the preprocessing recipe and emit chronological train/val/test sets."""
    policy_vocab = _policy_vocabulary(bundle)
    frame = assemble_frame(bundle, lexicon, cfg, policy_vocab)
    static_cols = [name for name in bundle.financial.column_names]
    if not static_cols and not policy_vocab:
        raise DataError("no static features: provide financial/macro data or policy events")

    n_rows = len(frame)
    n_samples = n_rows - cfg.window - cfg.horizon + 1
    if n_samples < 10:
        raise DataError(
            f"only {max(n_samples, 0)} samples available after alignment; need >= 10"
        )
    n_train, _, _ = split_counts(n_samples, split)
    # Rows visible to training samples as inputs: [0, window + n_train - 1).
    train_row_stop = cfg.window + n_train - 1
    to_standardize = list(MARKET_CHANNELS) + list(SENTIMENT_CHANNELS) + static_cols
    stats = fit_standardize(frame.select(to_standardize), (0, train_row_stop))
    frame = apply_standardize(frame, stats)

    seq_cols = list(MARKET_CHANNELS) + list(SENTIMENT_CHANNELS)
    static_all = static_cols + policy_vocab
    samples = build_windows(frame, seq_cols, static_all, TARGET_COLUMN,
                            cfg.window, cfg.horizon)
    y_min = float(np.min(samples.y[:n_train]))
    y_max = float(np.max(samples.y[:n_train]))
    samples.y = _normalize_target(samples.y, y_min, y_max)

    preprocess = Preprocess(
        window=cfg.window,
        horizon=cfg.horizon,
        train_frac=split.train_frac,
        val_frac=split.val_frac,
        test_frac=split.test_frac,
        market_cols=list(MARKET_CHANNELS),
        sentiment_cols=list(SENTIMENT_CHANNELS),
        static_cols=static_cols,
        policy_vocab=policy_vocab,
        stats=stats,
        y_min=y_min,
        y_max=y_max,
    )
    train, val, test = chronological_split(samples, split)
    return train, val, test, preprocess


def build_samples(bundle: DatasetBundle, lexicon: SentimentLexicon,
                  preprocess: Preprocess) -> SampleSet:
    """Rebuild samples from raw data under a stored preprocessing recipe.

    Used by evaluation and prediction so that features match the training
    run bit for bit when given the same source data.
    """
    missing = [name for name in preprocess.static_cols
               if name not in bundle.financial.columns]
    if missing:
        raise DataError(
            f"data lacks the recipe's static column(s) {', '.join(map(repr, missing))}: "
            "financial.csv or macro.csv is missing or incomplete"
        )
    cfg = PipelineConfig(window=preprocess.window, horizon=preprocess.horizon)
    frame = assemble_frame(bundle, lexicon, cfg, preprocess.policy_vocab)
    frame = apply_standardize(frame, preprocess.stats)
    samples = build_windows(frame, preprocess.seq_cols, preprocess.static_all,
                            TARGET_COLUMN, cfg.window, cfg.horizon)
    samples.y = _normalize_target(samples.y, preprocess.y_min, preprocess.y_max)
    return samples


def split_for(preprocess: Preprocess) -> SplitSpec:
    return SplitSpec(preprocess.train_frac, preprocess.val_frac, preprocess.test_frac)
