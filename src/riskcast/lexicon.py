"""Term lists for lexicon-based sentiment scoring of financial text.

The built-in lexicon is a small, hand-picked set of finance words.  A custom
lexicon can be loaded from a plain-text file with one term per line under
``[positive]`` / ``[negative]`` section headers; blank lines and lines
starting with ``#`` are ignored.  The file must be UTF-8 text.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field

from .errors import ParameterError, SchemaError, read_file

_POSITIVE_TERMS = (
    "advance", "advances", "beat", "beats", "boom", "boost", "boosts",
    "breakthrough", "bullish", "climb", "climbs", "confidence", "confident",
    "exceed", "exceeds", "expansion", "gain", "gains", "growth", "improve",
    "improved", "improving", "jump", "jumps", "momentum", "optimism",
    "optimistic", "outperform", "outperforms", "positive", "profit",
    "profitable", "rally", "rallies", "rebound", "record", "recover",
    "recovery", "resilient", "rise", "rises", "rose", "robust", "soar",
    "soars", "stabilize", "stable", "strength", "strong", "surge", "surges",
    "upbeat", "upgrade", "upgraded", "upside", "winner", "winning",
)

_NEGATIVE_TERMS = (
    "bankrupt", "bankruptcy", "bearish", "collapse", "collapses",
    "contraction", "crash", "crashes", "crisis", "decline", "declines",
    "default", "defaults", "distress", "downgrade", "downgraded", "downturn",
    "drop", "drops", "fall", "falls", "fear", "fears", "fell", "fraud",
    "inflation", "investigation", "lawsuit", "loss", "losses", "miss",
    "misses", "negative", "panic", "pessimism", "pessimistic", "plunge",
    "plunges", "recession", "risk", "risky", "selloff", "shortfall", "sink",
    "sinks", "slide", "slides", "slump", "slumps", "trouble", "troubled",
    "tumble", "tumbles", "turmoil", "volatile", "volatility", "warn",
    "warning", "warns", "weak", "weakness",
)


_TOKEN = re.compile(r"[a-z0-9]+")  # the only terms the scorer can count


@dataclass(frozen=True)
class SentimentLexicon:
    positive: frozenset[str] = field(default_factory=frozenset)
    negative: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "positive", frozenset(t.lower() for t in self.positive))
        object.__setattr__(self, "negative", frozenset(t.lower() for t in self.negative))
        overlap = self.positive & self.negative
        if overlap:
            raise ParameterError(
                f"lexicon term sets must be disjoint; shared terms: {sorted(overlap)}"
            )


def default_lexicon() -> SentimentLexicon:
    return SentimentLexicon(frozenset(_POSITIVE_TERMS), frozenset(_NEGATIVE_TERMS))


def load_lexicon(path) -> SentimentLexicon:
    """Read a ``[positive]`` / ``[negative]`` sectioned term file.  Lines end
    at LF, CR or CRLF.  Each of these is a ``file:line`` SchemaError: a byte
    that is not UTF-8, an unknown section, and a term before any section,
    under both sections, or that is not one token (a run of ASCII
    ``[a-z0-9]`` once lower-cased)."""
    sections: dict[str, set[str]] = {"positive": set(), "negative": set()}
    current: str | None = None
    lines = io.StringIO(read_file(path, SchemaError)[1], newline=None)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise SchemaError(f"{path}:{lineno}: unknown lexicon section [{name}]")
            current = name
            continue
        if current is None:
            raise SchemaError(f"{path}:{lineno}: term {line!r} appears before any "
                              "section header")
        term = line.lower()
        other = "negative" if current == "positive" else "positive"
        if not _TOKEN.fullmatch(term):
            raise SchemaError(f"{path}:{lineno}: term {line!r} is not one token of ASCII "
                              "[a-z0-9], so it can never count")
        if term in sections[other]:
            raise SchemaError(f"{path}:{lineno}: term {line!r} is also under [{other}]; "
                              "the sections must be disjoint")
        sections[current].add(term)
    return SentimentLexicon(frozenset(sections["positive"]), frozenset(sections["negative"]))
