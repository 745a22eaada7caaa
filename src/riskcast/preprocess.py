"""Preprocessing recipe attached to trained models.

A model's predictions are only reproducible together with the exact feature
recipe it was trained under: window geometry, split fractions, column
layout, z-score statistics, and the target's min-max range.  ``Preprocess``
captures all of it and checks it; ``riskcast.data_io`` writes it into the
model file and reads it back, so ``evaluate`` and ``predict`` can rebuild
identical inputs from raw CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError, ParameterError
from .features import ColumnStats


@dataclass(frozen=True)
class PipelineConfig:
    """Sample geometry: days per input window and days ahead of its target."""

    window: int = 20
    horizon: int = 5

    def __post_init__(self):
        if self.window < 1 or self.horizon < 1:
            raise ParameterError(
                f"window and horizon must be >= 1, got {self.window}, {self.horizon}"
            )

    def n_samples(self, n_rows: int) -> int:
        """Windows, with their targets, that ``n_rows`` aligned rows hold."""
        return max(n_rows - self.window - self.horizon + 1, 0)


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous chronological train/validation/test fractions.

    Counts are floor allocations for train and validation; the remainder
    goes to the test block.
    """

    train_frac: float = 0.70
    val_frac: float = 0.15
    test_frac: float = 0.15

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ParameterError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ParameterError(f"split fractions must sum to 1, got {sum(fracs)!r}")


def _check_token(name: str) -> str:
    if not name or any(ch.isspace() for ch in name):
        raise DataError(f"column names must be nonempty and whitespace-free: {name!r}")
    return name


@dataclass
class Preprocess:
    """The recipe.  Its geometry and split check themselves, and the static
    columns and policy vocabulary must hold distinct names.  ``stats`` holds
    the statistics of every standardized column, the sequence columns then
    the static ones, in that order.  Statistics for other columns or in
    another order, a statistic that is not finite, a zero std in a column
    not flagged zero-variance, and a target range that is not finite or has
    max <= min are ``DataError``s."""

    config: PipelineConfig
    split: SplitSpec
    market_cols: list[str]
    sentiment_cols: list[str]
    static_cols: list[str]
    policy_vocab: list[str]
    stats: dict[str, ColumnStats]
    y_min: float
    y_max: float

    def __post_init__(self):
        for name in (*self.market_cols, *self.sentiment_cols,
                     *self.static_cols, *self.policy_vocab):
            _check_token(name)
        repeated = sorted({name for name in self.static_all if self.static_all.count(name) > 1})
        if repeated:
            raise ParameterError(f"static columns and policy vocabulary repeat {repeated}")
        if list(self.stats) != self.seq_cols + self.static_cols:
            raise DataError(f"statistics cover columns {list(self.stats)}, expected "
                            f"{self.seq_cols + self.static_cols}")
        for name, cs in self.stats.items():
            if not (math.isfinite(cs.mean) and math.isfinite(cs.std)
                    and (cs.std > 0 or cs.zero_variance)):
                raise DataError(f"column {name!r} has unusable statistics: "
                                f"mean {cs.mean!r}, std {cs.std!r}")
        if not (math.isfinite(self.y_min) and self.y_min < self.y_max < math.inf):
            raise DataError(
                f"target range is degenerate: min {self.y_min!r}, max {self.y_max!r}"
            )

    @property
    def window(self) -> int:
        return self.config.window

    @property
    def seq_cols(self) -> list[str]:
        """Sequence channel order: market block first, then sentiment block."""
        return list(self.market_cols) + list(self.sentiment_cols)

    @property
    def static_all(self) -> list[str]:
        return list(self.static_cols) + list(self.policy_vocab)
