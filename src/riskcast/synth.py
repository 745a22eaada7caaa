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
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data_io import DatasetBundle
from .errors import ParameterError
from .frames import TimeSeriesFrame, day_numbers, merge_outer
from .lexicon import default_lexicon
from .tensor import SeededRng, box_muller, derive_seed, unit_floats

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
# are read from blocks of pre-drawn values, topped up whenever fewer remain
# than one day can use.  Larger blocks are no faster and raise peak memory.
_BLOCK_DRAWS = 2048
_MAX_FILLERS = 4                # 2 + randint(3)
# Noise normal, word picks, filler count, filler picks, shuffle swaps.
_MAX_ITEM_DRAWS = 2 + _WORDS_PER_ITEM + 1 + _MAX_FILLERS + (_WORDS_PER_ITEM + _MAX_FILLERS - 1)
_MAX_NEWS_DRAWS_PER_DAY = 2 + 3 * _MAX_ITEM_DRAWS
_MAX_POLICY_DRAWS_PER_DAY = 2


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
        if self.base_vol <= 0:
            raise ParameterError(f"base_vol must be positive, got {self.base_vol}")
        if not 0.0 <= self.regime_shift_prob <= 1.0:
            raise ParameterError(
                f"regime_shift_prob must lie in [0, 1], got {self.regime_shift_prob}"
            )
        if not 0.0 <= self.kappa <= 1.0:
            raise ParameterError(f"kappa must lie in [0, 1], got {self.kappa}")


def trading_days(start: dt.date, count: int) -> list[dt.date]:
    """``count`` consecutive weekdays starting at or after ``start``."""
    return np.busday_offset(np.datetime64(start, "D"), np.arange(count), roll="forward").tolist()


class _DrawBlock:
    """A window of one stream's draws, read by position and topped up in bulk.

    :meth:`refill` returns three lists indexed by position: ``ints[i]`` is draw
    ``i`` as ``next_uint64`` gives it, ``floats[i]`` as ``next_float`` gives it,
    and ``normals[i]`` is what ``normal(0.0, noise_sd)`` gives when its two
    uniforms are draws ``i`` and ``i + 1``.
    """

    def __init__(self, rng: SeededRng, noise_sd: float = 1.0):
        self._rng = rng
        self._noise_sd = noise_sd
        self._bits = np.empty(0, dtype=np.uint64)

    def refill(self, pos: int) -> tuple[list[int], list[float], list[float]]:
        """Drop the draws before ``pos`` and draw on to a full block."""
        fresh = self._rng.next_uint64s(_BLOCK_DRAWS - (self._bits.size - pos))
        self._bits = np.concatenate((self._bits[pos:], fresh))
        floats = unit_floats(self._bits)
        normals = box_muller(floats[:-1], floats[1:], 0.0, self._noise_sd)
        return self._bits.tolist(), floats.tolist(), normals.tolist()


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


def _news(rng: SeededRng, dates: list[dt.date], sentiment: np.ndarray,
          pos_terms: list[str], neg_terms: list[str]) -> list[tuple[dt.date, str]]:
    """Bag-of-words items whose lexicon compound tracks the day's sentiment."""
    n_pos_terms, n_neg_terms, n_filler = len(pos_terms), len(neg_terms), len(_FILLER_WORDS)
    block = _DrawBlock(rng, _ITEM_NOISE_SD)
    ints, floats, noise = block.refill(0)
    p = 0
    news = []
    for day, level in zip(dates, sentiment.tolist()):
        if p + _MAX_NEWS_DRAWS_PER_DAY > len(ints):
            ints, floats, noise = block.refill(p)
            p = 0
        n_items = 1 + (floats[p] < 0.5) + (floats[p + 1] < 0.25)
        p += 2
        for _ in range(n_items):
            polarity = min(1.0, max(-1.0, level + noise[p]))
            n_pos = int(_WORDS_PER_ITEM * (1.0 + polarity) / 2.0 + 0.5)
            p += 2
            words = [pos_terms[i % n_pos_terms] for i in ints[p:p + n_pos]]
            words += [neg_terms[i % n_neg_terms] for i in ints[p + n_pos:p + _WORDS_PER_ITEM]]
            p += _WORDS_PER_ITEM
            n_fill = 2 + ints[p] % 3
            words += [_FILLER_WORDS[i % n_filler] for i in ints[p + 1:p + 1 + n_fill]]
            p += 1 + n_fill
            for i in range(len(words) - 1, 0, -1):  # Fisher-Yates, as SeededRng.shuffle
                j = ints[p] % (i + 1)
                p += 1
                words[i], words[j] = words[j], words[i]
            news.append((day, " ".join(words)))
    return news


def _policy(rng: SeededRng, dates: list[dt.date]) -> list[tuple[dt.date, str]]:
    """Rare policy events, each with a category from the fixed vocabulary."""
    block = _DrawBlock(rng)
    ints, floats, _ = block.refill(0)
    p = 0
    policy = []
    for day in dates:
        if p + _MAX_POLICY_DRAWS_PER_DAY > len(ints):
            ints, floats, _ = block.refill(p)
            p = 0
        if floats[p] < _POLICY_EVENT_PROB:
            policy.append((day, POLICY_CATEGORIES[ints[p + 1] % len(POLICY_CATEGORIES)]))
            p += 1
        p += 1
    return policy


def synth_generate(cfg: SynthConfig) -> DatasetBundle:
    """Generate one bundle; identical configs produce bitwise-identical output."""
    n = cfg.n_days
    rng_sent = SeededRng(derive_seed(cfg.seed, 1))
    rng_regime = SeededRng(derive_seed(cfg.seed, 2))
    rng_price = SeededRng(derive_seed(cfg.seed, 3))
    rng_open = SeededRng(derive_seed(cfg.seed, 4))
    rng_volume = SeededRng(derive_seed(cfg.seed, 5))
    rng_news = SeededRng(derive_seed(cfg.seed, 6))
    rng_financial = SeededRng(derive_seed(cfg.seed, 7))
    rng_macro = SeededRng(derive_seed(cfg.seed, 8))
    rng_policy = SeededRng(derive_seed(cfg.seed, 9))

    dates = trading_days(START_DATE, n)
    lexicon = default_lexicon()
    pos_terms = sorted(lexicon.positive)
    neg_terms = sorted(lexicon.negative)

    # Latent daily sentiment, AR(1) clipped to [-1, 1].
    innovation_sd = _SENT_SD * np.sqrt(1.0 - _SENT_PHI ** 2)
    levels = []
    s = 0.0
    for innovation in rng_sent.normals(n, 0.0, innovation_sd).tolist():
        s = _SENT_PHI * s + innovation
        levels.append(s)
    sentiment = np.clip(levels, -1.0, 1.0)

    # Two-state Markov volatility regime.
    flips = rng_regime.next_floats(n) < cfg.regime_shift_prob
    regime_mult = np.where(np.cumsum(flips) % 2 == 1, _REGIME_VOL_MULT, 1.0)

    market = TimeSeriesFrame(day_numbers(dates), _market(cfg, sentiment, regime_mult,
                                                         rng_price, rng_open, rng_volume))
    news = _news(rng_news, dates, sentiment, pos_terms, neg_terms)

    # Quarterly financial reports: slow multiplicative walks.
    fin_days = market.days[::_FINANCIAL_PERIOD]
    profit, debt, cash = 120.0, 0.45, 85.0
    fin_cols = {"profit": [], "debt_ratio": [], "cash_flow": []}
    for z_profit, z_debt, z_cash in rng_financial.normals(3 * len(fin_days)).reshape(-1, 3).tolist():
        profit = max(5.0, profit * (1.0 + 0.01 + 0.05 * z_profit))
        debt = min(0.85, max(0.15, debt + 0.03 * z_debt))
        cash = profit * (0.7 + 0.15 * z_cash)
        fin_cols["profit"].append(profit)
        fin_cols["debt_ratio"].append(debt)
        fin_cols["cash_flow"].append(cash)
    financial = TimeSeriesFrame(fin_days, fin_cols)

    # Monthly macro readings: gentle trends plus a clipped rate walk.
    macro_days = market.days[::_MACRO_PERIOD]
    gdp, cpi, rate = 100.0, 100.0, 2.0
    macro_cols = {"gdp": [], "cpi": [], "interest_rate": []}
    for z_gdp, z_cpi, z_rate in rng_macro.normals(3 * len(macro_days)).reshape(-1, 3).tolist():
        gdp *= 1.0 + 0.005 + 0.002 * z_gdp
        cpi *= 1.0 + 0.002 + 0.001 * z_cpi
        rate = min(8.0, max(0.0, rate + 0.1 * z_rate))
        macro_cols["gdp"].append(gdp)
        macro_cols["cpi"].append(cpi)
        macro_cols["interest_rate"].append(rate)
    macro = TimeSeriesFrame(macro_days, macro_cols)

    policy = _policy(rng_policy, dates)

    provenance = (
        f"synth(seed={cfg.seed}, n_days={cfg.n_days}, base_vol={cfg.base_vol}, "
        f"regime_shift_prob={cfg.regime_shift_prob}, kappa={cfg.kappa}, "
        f"nonlinearity={cfg.nonlinearity})"
    )
    return DatasetBundle(market=market, financial=merge_outer(financial, macro),
                         news=news, policy=policy, provenance=provenance)
