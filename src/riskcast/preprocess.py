"""Preprocessing recipe attached to trained models.

A model's predictions are only reproducible together with the exact feature
recipe it was trained under: window geometry, column layout, z-score
statistics, and the target's min-max range.  ``Preprocess`` captures all of
it and serializes into the model file so ``evaluate`` and ``predict`` can
rebuild identical inputs from raw CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelIOError, ParameterError
from .features import ColumnStats, StandardizationStats


def _check_token(name: str) -> str:
    if not name or any(ch.isspace() for ch in name):
        raise ParameterError(f"column names must be nonempty and whitespace-free: {name!r}")
    return name


@dataclass
class Preprocess:
    window: int
    horizon: int
    train_frac: float
    val_frac: float
    test_frac: float
    market_cols: list[str]
    sentiment_cols: list[str]
    static_cols: list[str]
    policy_vocab: list[str]
    stats: StandardizationStats
    y_min: float
    y_max: float

    def __post_init__(self):
        for name in (*self.market_cols, *self.sentiment_cols,
                     *self.static_cols, *self.policy_vocab):
            _check_token(name)

    @property
    def seq_cols(self) -> list[str]:
        """Sequence channel order: market block first, then sentiment block."""
        return list(self.market_cols) + list(self.sentiment_cols)

    @property
    def static_all(self) -> list[str]:
        return list(self.static_cols) + list(self.policy_vocab)

    def to_lines(self) -> list[str]:
        lines = [
            "preprocess begin",
            f"window {self.window}",
            f"horizon {self.horizon}",
            f"split {self.train_frac!r} {self.val_frac!r} {self.test_frac!r}",
            f"y_range {self.y_min!r} {self.y_max!r}",
            "market_cols " + " ".join(self.market_cols),
            "sentiment_cols " + " ".join(self.sentiment_cols),
            "static_cols " + " ".join(self.static_cols),
            "policy_vocab " + " ".join(self.policy_vocab),
        ]
        for name, cs in self.stats.columns.items():
            lines.append(f"stats {name} {cs.mean!r} {cs.std!r} {int(cs.zero_variance)}")
        lines.append("preprocess end")
        return lines

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Preprocess":
        fields: dict[str, list[str]] = {}
        stats = StandardizationStats()
        try:
            for line in lines:
                tokens = line.split()
                if not tokens:
                    continue
                if tokens[0] == "stats":
                    if len(tokens) != 5:
                        raise ModelIOError(f"malformed stats line: {line!r}")
                    stats.columns[tokens[1]] = ColumnStats(
                        float(tokens[2]), float(tokens[3]), bool(int(tokens[4]))
                    )
                else:
                    fields[tokens[0]] = tokens[1:]
            split = [float(v) for v in fields["split"]]
            y_range = [float(v) for v in fields["y_range"]]
            return cls(
                window=int(fields["window"][0]),
                horizon=int(fields["horizon"][0]),
                train_frac=split[0],
                val_frac=split[1],
                test_frac=split[2],
                market_cols=fields.get("market_cols", []),
                sentiment_cols=fields.get("sentiment_cols", []),
                static_cols=fields.get("static_cols", []),
                policy_vocab=fields.get("policy_vocab", []),
                stats=stats,
                y_min=y_range[0],
                y_max=y_range[1],
            )
        except (KeyError, IndexError, ValueError) as exc:
            raise ModelIOError(f"malformed or incomplete preprocess block: {exc}") from exc
