"""Seeded synthetic market generator used in place of proprietary feeds.

One instrument per run.  The price path is a geometric random walk whose
volatility switches between two regimes and, when ``kappa > 0``, responds to
a planted daily sentiment signal: news text is sampled from the scoring
lexicon so that the aggregate compound score on day ``t`` anticipates the
realized volatility of the following days with coupling strength ``kappa``.
With the nonlinearity flag set, the volatility response also carries a
multiplicative sentiment-times-trend-sign term that a linear model cannot
fully capture.  Financial, macro, and policy series follow simple documented
processes.  Output is fully determined by the seed.

Each series draws from its own SplitMix64 stream,
``SeededRng(derive_seed(seed, k))``, in a fixed layout.  Every stream is drawn
in bulk and then read by position, so the layout below is part of the output:
changing it changes every file.  A normal takes two uniforms (Box-Muller).

- k=1 sentiment: one normal per day, the AR(1) innovation.
- k=2 regime: one uniform per day; the regime flips when it is below
  ``regime_shift_prob``.
- k=3, 4, 5 price, open, volume: one normal per day each.
- k=6 news, a variable count per day: 2 uniforms for the item count
  (``1 + [u0 < 0.5] + [u1 < 0.25]``), then per item: 2 for the polarity noise
  normal, 6 word picks (positive words, then negative), 1 filler count ``k`` in
  [0, 3), ``2 + k`` filler picks, and ``7 + k`` Fisher-Yates swaps.
- k=7 financial: three normals per quarterly row (profit, debt, cash flow).
- k=8 macro: three normals per monthly row (gdp, cpi, interest rate).
- k=9 policy, a variable count per day: one uniform; on an event day (below
  0.02) one more draw picks the category.

The news and policy streams are read a chunk of days at a time: the draws
left unread by the last chunk are topped up with fresh ones to as many as the
chunk's days can use, so no more draws are made at once than a chunk can use.
One loop over positions then finds where each day starts (and, for news,
where each item starts).  A news chunk's items are composed as arrays from
those positions, one group per filler count, before the next chunk is drawn.

:func:`synth_generate` returns the bundle and, given a directory (as
``gen-data`` gives it), writes the bundle's files there.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import data_io
from .data_io import DatasetBundle
from .errors import NumericalError, ParameterError
from .frames import DatedLabels, TimeSeriesFrame, day_numbers, merge_outer
from .lexicon import default_lexicon
from .tensor import SeededRng, box_muller, check_seed, derive_seed, unit_floats

START_DATE = dt.date(2015, 1, 2)
POLICY_CATEGORIES = ("rate_cut", "rate_hike", "regulation_easing",
                     "regulation_tightening", "stimulus")

# Volatility process constants.
_DRIFT = 0.0002                 # daily log-return drift
_REGIME_VOL_MULT = 1.5          # high-regime volatility multiplier
_SENT_PHI = 0.85                # sentiment AR(1) persistence
_SENT_SD = 0.5                  # sentiment stationary standard deviation
_VOL_COUPLING = 1.5             # sentiment-to-log-vol coupling
_VOL_INTERACTION = 0.9          # sentiment x trend-sign coupling (nonlinearity)
_SENT_SMOOTH = 5                # days of sentiment smoothed into the vol driver
_TREND_LOOKBACK = 5             # days defining the recent trend sign

# News composition constants.
_WORDS_PER_ITEM = 6             # sentiment-bearing words per news item
_ITEM_NOISE_SD = 0.25           # per-item polarity noise around the daily signal
_FILLER_WORDS = (
    "markets", "shares", "trading", "session", "investors", "analysts",
    "report", "quarterly", "earnings", "index", "outlook", "guidance",
    "sector", "prices", "forecast",
)

_FINANCIAL_PERIOD = 63          # trading days between financial reports
_MACRO_PERIOD = 21              # trading days between macro readings
_POLICY_EVENT_PROB = 0.02       # per-day probability of a policy event

# The news and policy streams use a variable number of draws per day, so they
# are read a chunk of days at a time, from draws topped up to the most those
# days can use.  Larger chunks are no faster and raise peak memory.
_CHUNK_DAYS = 512
_MAX_FILLERS = 4                # 2 + randint(3)
# Noise normal, word picks, filler count, filler picks, shuffle swaps.
_MAX_ITEM_DRAWS = 2 + _WORDS_PER_ITEM + 1 + _MAX_FILLERS + (_WORDS_PER_ITEM + _MAX_FILLERS - 1)
_MAX_NEWS_DRAWS_PER_DAY = 2 + 3 * _MAX_ITEM_DRAWS
_MAX_POLICY_DRAWS_PER_DAY = 2
# Weekdays from START_DATE to 9999-12-31, the last day a ``datetime.date`` holds.
_MAX_DAYS = int(np.busday_count(START_DATE, dt.date.max)) + 1


@dataclass(frozen=True)
class SynthConfig:
    n_days: int = 2000
    seed: int = 42
    base_vol: float = 0.01
    regime_shift_prob: float = 0.04
    kappa: float = 0.8          # sentiment signal strength in [0, 1]
    nonlinearity: bool = True

    def __post_init__(self):
        if self.n_days < 200:
            raise ParameterError(f"n_days must be >= 200, got {self.n_days}")
        if self.n_days > _MAX_DAYS:
            raise ParameterError(f"n_days must be <= {_MAX_DAYS}, the trading days from "
                                 f"{START_DATE} to {dt.date.max}, got {self.n_days}")
        if not 0 < self.base_vol < np.inf:
            raise ParameterError(f"base_vol must be positive and finite, got {self.base_vol}")
        if not 0.0 <= self.regime_shift_prob <= 1.0:
            raise ParameterError(
                f"regime_shift_prob must lie in [0, 1], got {self.regime_shift_prob}"
            )
        if not 0.0 <= self.kappa <= 1.0:
            raise ParameterError(f"kappa must lie in [0, 1], got {self.kappa}")
        check_seed(self.seed)


def trading_days(start: dt.date, count: int) -> list[dt.date]:
    """``count`` consecutive weekdays starting at or after ``start``."""
    return np.busday_offset(np.datetime64(start, "D"), np.arange(count), roll="forward").tolist()


def _top_up(rng: SeededRng, unread: np.ndarray, days: int, max_draws_per_day: int) -> np.ndarray:
    """A variable-count stream's ``unread`` draws, topped up with fresh ones
    to as many as ``days`` days can use."""
    fresh = rng.next_uint64s(max(0, days * max_draws_per_day - unread.size))
    return np.concatenate((unread, fresh))


def _trailing_mean(values: np.ndarray, width: int) -> np.ndarray:
    """``out[t] = np.mean(values[max(0, t - width):t])`` bit for bit, and 0 at ``t = 0``."""
    out = np.zeros(values.size)
    for t in range(1, width):
        out[t] = np.mean(values[:t])
    out[width:] = sliding_window_view(values[:-1], width).mean(axis=1)
    return out


def _market(cfg: SynthConfig, sentiment: np.ndarray, regime_mult: np.ndarray,
            rng_price: SeededRng, rng_open: SeededRng, rng_volume: SeededRng
            ) -> dict[str, np.ndarray]:
    """Open, close and volume paths driven by the sentiment and regime series."""
    n = cfg.n_days
    smoothed = _trailing_mean(sentiment, _SENT_SMOOTH)
    response = _VOL_COUPLING * smoothed
    # sigma depends on the close path only through the trend sign, so compute
    # each day's growth factor for trend -1, 0 and +1 and let the close
    # recurrence pick one.
    if cfg.nonlinearity:
        responses = [response + _VOL_INTERACTION * smoothed * trend for trend in (-1.0, 0.0, 1.0)]
    else:
        responses = [response] * 3
    sigmas = np.array([cfg.base_vol * regime_mult * np.exp(cfg.kappa * r) for r in responses])
    growths = np.exp(_DRIFT + sigmas * rng_price.normals(n)).tolist()
    closes = []
    picks = []
    close = 100.0
    for t in range(n):
        pick = 1
        if t > _TREND_LOOKBACK:
            move = closes[t - 1] - closes[t - 1 - _TREND_LOOKBACK]
            pick += (move > 0) - (move < 0)
        close = close * growths[pick][t]
        closes.append(close)
        picks.append(pick)
    closes = np.array(closes)
    sigma = sigmas[picks, np.arange(n)]
    prev_closes = np.concatenate(([100.0], closes[:-1]))
    opens = prev_closes * np.exp(0.25 * sigma * rng_open.normals(n))
    # Scalar ``**``: numpy's array power rounds some values differently.
    vol_scale = np.array([r ** 0.8 for r in (sigma / cfg.base_vol).tolist()])
    volumes = 1e6 * vol_scale * np.exp(0.35 * rng_volume.normals(n))
    return {"open": opens, "close": closes, "volume": volumes}


def _news_items(bits: np.ndarray, days: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk ``days`` days of news draws: the position in ``bits`` where each
    item starts, the day each belongs to, and the position after the last day."""
    # At each position p, as bytes so that indexing yields ints: the item
    # count of a day starting there (next_float() < 0.5 and < 0.25 exactly
    # when the draw is below 2**63 and 2**62), and the draws of an item
    # starting there (its filler count is draw p + 8).
    counts = (1 + (bits[:-1] < np.uint64(1 << 63)).view(np.uint8)
              + (bits[1:] < np.uint64(1 << 62)).view(np.uint8)).tobytes()
    fillers = 2 + (bits[2 + _WORDS_PER_ITEM:] % 3).astype(np.uint8)
    lengths = (2 + 2 * _WORDS_PER_ITEM + 2 * fillers).tobytes()
    items, item_days = [], []
    p = 0
    for day in range(days):
        n_items = counts[p]
        p += 2
        for _ in range(n_items):
            items.append(p)
            item_days.append(day)
            p += lengths[p]
    return np.array(items), np.array(item_days), p


def _compose_news(bits: np.ndarray, items: np.ndarray, levels: np.ndarray,
                  vocab: np.ndarray, n_pos_terms: int, n_neg_terms: int) -> np.ndarray:
    """The text of each item whose draws start at ``items``, around sentiment ``levels``.

    Items are composed as arrays, one group per filler count, over indices
    into ``vocab``: the positive terms, then the negative terms, then the
    fillers.
    """
    noise = box_muller(unit_floats(bits[items]), unit_floats(bits[items + 1]),
                       0.0, _ITEM_NOISE_SD)
    polarity = np.clip(levels + noise, -1.0, 1.0)
    n_pos = (_WORDS_PER_ITEM * (1.0 + polarity) / 2.0 + 0.5).astype(np.intp)
    picks = bits[items[:, None] + np.arange(2, 2 + _WORDS_PER_ITEM)]
    words = np.where(np.arange(_WORDS_PER_ITEM) < n_pos[:, None],
                     picks % n_pos_terms, picks % n_neg_terms + n_pos_terms)
    fillers = 2 + bits[items + 2 + _WORDS_PER_ITEM] % 3
    texts = np.empty(items.size, dtype=object)
    for n_fill in range(2, _MAX_FILLERS + 1):
        rows = np.flatnonzero(fillers == n_fill)
        fill_at = items[rows, None] + 3 + _WORDS_PER_ITEM
        width = _WORDS_PER_ITEM + n_fill
        fill = bits[fill_at + np.arange(n_fill)] % len(_FILLER_WORDS) + (n_pos_terms + n_neg_terms)
        group = np.concatenate((words[rows], fill), axis=1).astype(np.intp)
        # Fisher-Yates, as SeededRng.shuffle: one column swap per step, over all rows.
        swaps = bits[fill_at + np.arange(n_fill, n_fill + width - 1)]
        targets = (swaps % np.arange(width, 1, -1, dtype=np.uint64)).astype(np.intp)
        targets += width * np.arange(rows.size)[:, None]    # flat indices into group
        flat = group.reshape(-1)
        for i, j in zip(range(width - 1, 0, -1), targets.T):
            picked = flat[j]
            flat[j] = group[:, i]
            group[:, i] = picked
        texts[rows] = list(map(" ".join, vocab[group].tolist()))
    return texts


def _news(rng: SeededRng, days: np.ndarray, sentiment: np.ndarray,
          pos_terms: list[str], neg_terms: list[str]) -> DatedLabels:
    """Bag-of-words items whose lexicon compound tracks the day's sentiment.

    Each chunk of days is drawn, walked and composed before the next is
    drawn, so only one chunk's draws are alive at a time."""
    vocab = np.array([*pos_terms, *neg_terms, *_FILLER_WORDS], dtype=object)
    item_days, texts = [], []
    bits, end = np.empty(0, dtype=np.uint64), 0
    for first in range(0, len(days), _CHUNK_DAYS):
        n_days = min(_CHUNK_DAYS, len(days) - first)
        bits = _top_up(rng, bits[end:], n_days, _MAX_NEWS_DRAWS_PER_DAY)
        items, chunk_days, end = _news_items(bits, n_days)
        item_days.append(days[first + chunk_days])
        texts += _compose_news(bits, items, sentiment[first + chunk_days], vocab,
                               len(pos_terms), len(neg_terms)).tolist()
    return DatedLabels(np.concatenate(item_days), texts)


def _policy(rng: SeededRng, days: np.ndarray) -> DatedLabels:
    """Rare policy events, each with a category from the fixed vocabulary."""
    event_days, categories = [], []
    bits, end = np.empty(0, dtype=np.uint64), 0
    for first in range(0, len(days), _CHUNK_DAYS):
        chunk = days[first:first + _CHUNK_DAYS].tolist()
        bits = _top_up(rng, bits[end:], len(chunk), _MAX_POLICY_DRAWS_PER_DAY)
        events = (unit_floats(bits) < _POLICY_EVENT_PROB).tolist()
        end = 0
        for day in chunk:
            if events[end]:
                event_days.append(day)
                categories.append(POLICY_CATEGORIES[int(bits[end + 1]) % len(POLICY_CATEGORIES)])
                end += 1
            end += 1
    return DatedLabels(event_days, categories)


def _rng(cfg: SynthConfig, stream: int) -> SeededRng:
    """The generator of stream ``stream`` in the layout above."""
    return SeededRng(derive_seed(cfg.seed, stream))


def _market_path(cfg: SynthConfig) -> tuple[TimeSeriesFrame, np.ndarray]:
    """The market frame and the latent daily sentiment that drives it.

    A large base_vol drives prices past the float range; that is refused, as
    a NumericalError, rather than handing on a zero or infinite price.
    """
    n = cfg.n_days
    # Latent daily sentiment, AR(1) clipped to [-1, 1].
    innovation_sd = _SENT_SD * np.sqrt(1.0 - _SENT_PHI ** 2)
    levels = []
    s = 0.0
    for innovation in _rng(cfg, 1).normals(n, 0.0, innovation_sd).tolist():
        s = _SENT_PHI * s + innovation
        levels.append(s)
    sentiment = np.clip(levels, -1.0, 1.0)

    # Two-state Markov volatility regime.
    flips = _rng(cfg, 2).next_floats(n) < cfg.regime_shift_prob
    regime_mult = np.where(np.cumsum(flips) % 2 == 1, _REGIME_VOL_MULT, 1.0)

    with np.errstate(over="ignore", invalid="ignore"):
        columns = _market(cfg, sentiment, regime_mult, _rng(cfg, 3), _rng(cfg, 4), _rng(cfg, 5))
    if not all(np.all((values > 0) & (values < np.inf)) for values in columns.values()):
        raise NumericalError(f"base_vol {cfg.base_vol} drives the price path out of the "
                             "float range (a zero or infinite price)")
    return TimeSeriesFrame(day_numbers(trading_days(START_DATE, n)), columns), sentiment


def _financial(cfg: SynthConfig, market: TimeSeriesFrame) -> TimeSeriesFrame:
    """Quarterly financial reports: slow multiplicative walks."""
    days = market.days[::_FINANCIAL_PERIOD]
    profit, debt, cash = 120.0, 0.45, 85.0
    columns = {"profit": [], "debt_ratio": [], "cash_flow": []}
    for z_profit, z_debt, z_cash in _rng(cfg, 7).normals(3 * len(days)).reshape(-1, 3).tolist():
        profit = max(5.0, profit * (1.0 + 0.01 + 0.05 * z_profit))
        debt = min(0.85, max(0.15, debt + 0.03 * z_debt))
        cash = profit * (0.7 + 0.15 * z_cash)
        columns["profit"].append(profit)
        columns["debt_ratio"].append(debt)
        columns["cash_flow"].append(cash)
    return TimeSeriesFrame(days, columns)


def _macro(cfg: SynthConfig, market: TimeSeriesFrame) -> TimeSeriesFrame:
    """Monthly macro readings: gentle trends plus a clipped rate walk."""
    days = market.days[::_MACRO_PERIOD]
    gdp, cpi, rate = 100.0, 100.0, 2.0
    columns = {"gdp": [], "cpi": [], "interest_rate": []}
    for z_gdp, z_cpi, z_rate in _rng(cfg, 8).normals(3 * len(days)).reshape(-1, 3).tolist():
        gdp *= 1.0 + 0.005 + 0.002 * z_gdp
        cpi *= 1.0 + 0.002 + 0.001 * z_cpi
        rate = min(8.0, max(0.0, rate + 0.1 * z_rate))
        columns["gdp"].append(gdp)
        columns["cpi"].append(cpi)
        columns["interest_rate"].append(rate)
    return TimeSeriesFrame(days, columns)


def _provenance(cfg: SynthConfig) -> str:
    return (f"synth(seed={cfg.seed}, n_days={cfg.n_days}, base_vol={cfg.base_vol}, "
            f"regime_shift_prob={cfg.regime_shift_prob}, kappa={cfg.kappa}, "
            f"nonlinearity={cfg.nonlinearity})")


def synth_generate(cfg: SynthConfig, directory=None) -> DatasetBundle:
    """Generate one bundle; identical configs produce bitwise-identical output.

    With ``directory``, which is made if missing, the bundle's five files are
    written there too, financial and macro each from its own frame.  Every
    stream is drawn before anything is written, so a refused ``base_vol``
    writes nothing.
    """
    market, sentiment = _market_path(cfg)
    lexicon = default_lexicon()
    news = _news(_rng(cfg, 6), market.days, sentiment,
                 sorted(lexicon.positive), sorted(lexicon.negative))
    financial, macro = _financial(cfg, market), _macro(cfg, market)
    policy = _policy(_rng(cfg, 9), market.days)
    bundle = DatasetBundle(market=market, financial=merge_outer(financial, macro), news=news,
                           policy=policy, provenance=_provenance(cfg))
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
        for name, frame in (("market", market), ("financial", financial), ("macro", macro)):
            data_io.write_frame_csv(frame, os.path.join(directory, f"{name}.csv"))
        data_io.write_policy_csv(policy, os.path.join(directory, "policy.csv"))
        data_io.write_news_csv(news, os.path.join(directory, "news.csv"))
    return bundle
