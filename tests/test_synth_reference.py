"""The bulk-draw generator against the per-draw reference it replaced.

``ref_synth_generate`` below is the generator as it was before its random
streams were drawn in bulk: one ``SeededRng`` call per value.  The bulk code
keeps every stream's draw order and every float operation, so bundles are
compared bitwise (``tobytes``), not within a tolerance.
"""

import datetime as dt

import numpy as np
import pytest

from conftest import dated_labels, label_pairs
from riskcast import SeededRng, SynthConfig, default_lexicon, synth_generate
from riskcast import synth
from riskcast.data_io import DatasetBundle
from riskcast.frames import TimeSeriesFrame, day_numbers, merge_outer
from riskcast.synth import (
    _DRIFT,
    _FILLER_WORDS,
    _FINANCIAL_PERIOD,
    _ITEM_NOISE_SD,
    _MACRO_PERIOD,
    _POLICY_EVENT_PROB,
    _REGIME_VOL_MULT,
    _SENT_PHI,
    _SENT_SD,
    _SENT_SMOOTH,
    _TREND_LOOKBACK,
    _VOL_COUPLING,
    _VOL_INTERACTION,
    _WORDS_PER_ITEM,
    POLICY_CATEGORIES,
    START_DATE,
    trading_days,
)
from riskcast.tensor import derive_seed


# ---------------------------------------------------------------------------
# Per-draw reference
# ---------------------------------------------------------------------------


def ref_trading_days(start, count):
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def ref_compose_news_item(rng, polarity, pos_terms, neg_terms):
    n_pos = int(_WORDS_PER_ITEM * (1.0 + polarity) / 2.0 + 0.5)
    n_neg = _WORDS_PER_ITEM - n_pos
    words = [pos_terms[rng.randint(len(pos_terms))] for _ in range(n_pos)]
    words += [neg_terms[rng.randint(len(neg_terms))] for _ in range(n_neg)]
    words += [_FILLER_WORDS[rng.randint(len(_FILLER_WORDS))]
              for _ in range(2 + rng.randint(3))]
    rng.shuffle(words)
    return " ".join(words)


def ref_synth_generate(cfg):
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

    dates = ref_trading_days(START_DATE, n)
    lexicon = default_lexicon()
    pos_terms = sorted(lexicon.positive)
    neg_terms = sorted(lexicon.negative)

    innovation_sd = _SENT_SD * np.sqrt(1.0 - _SENT_PHI ** 2)
    sentiment = np.empty(n)
    s = 0.0
    for t in range(n):
        s = _SENT_PHI * s + rng_sent.normal(0.0, innovation_sd)
        sentiment[t] = min(1.0, max(-1.0, s))

    regime_mult = np.empty(n)
    high = False
    for t in range(n):
        if rng_regime.next_float() < cfg.regime_shift_prob:
            high = not high
        regime_mult[t] = _REGIME_VOL_MULT if high else 1.0

    closes = np.empty(n)
    opens = np.empty(n)
    volumes = np.empty(n)
    sigma = np.empty(n)
    prev_close = 100.0
    for t in range(n):
        driver = sentiment[max(0, t - _SENT_SMOOTH):t]
        smoothed = float(np.mean(driver)) if driver.size else 0.0
        if t >= _TREND_LOOKBACK + 1:
            trend = float(np.sign(closes[t - 1] - closes[t - 1 - _TREND_LOOKBACK]))
        else:
            trend = 0.0
        response = _VOL_COUPLING * smoothed
        if cfg.nonlinearity:
            response += _VOL_INTERACTION * smoothed * trend
        sigma[t] = cfg.base_vol * regime_mult[t] * np.exp(cfg.kappa * response)
        log_ret = _DRIFT + sigma[t] * rng_price.normal()
        closes[t] = prev_close * np.exp(log_ret)
        opens[t] = prev_close * np.exp(0.25 * sigma[t] * rng_open.normal())
        volumes[t] = 1e6 * (sigma[t] / cfg.base_vol) ** 0.8 * np.exp(0.35 * rng_volume.normal())
        prev_close = closes[t]

    market = TimeSeriesFrame(day_numbers(dates),
                             {"open": opens, "close": closes, "volume": volumes})

    news = []
    for t in range(n):
        n_items = 1 + (rng_news.next_float() < 0.5) + (rng_news.next_float() < 0.25)
        for _ in range(n_items):
            polarity = min(1.0, max(-1.0, sentiment[t] + rng_news.normal(0.0, _ITEM_NOISE_SD)))
            news.append((dates[t], ref_compose_news_item(rng_news, polarity, pos_terms, neg_terms)))

    fin_rows = list(range(0, n, _FINANCIAL_PERIOD))
    profit, debt, cash = 120.0, 0.45, 85.0
    fin_cols = {"profit": [], "debt_ratio": [], "cash_flow": []}
    for _ in fin_rows:
        profit = max(5.0, profit * (1.0 + 0.01 + 0.05 * rng_financial.normal()))
        debt = min(0.85, max(0.15, debt + 0.03 * rng_financial.normal()))
        cash = profit * (0.7 + 0.15 * rng_financial.normal())
        fin_cols["profit"].append(profit)
        fin_cols["debt_ratio"].append(debt)
        fin_cols["cash_flow"].append(cash)
    financial = TimeSeriesFrame(day_numbers([dates[i] for i in fin_rows]),
                                {k: np.array(v) for k, v in fin_cols.items()})

    macro_rows = list(range(0, n, _MACRO_PERIOD))
    gdp, cpi, rate = 100.0, 100.0, 2.0
    macro_cols = {"gdp": [], "cpi": [], "interest_rate": []}
    for _ in macro_rows:
        gdp *= 1.0 + 0.005 + 0.002 * rng_macro.normal()
        cpi *= 1.0 + 0.002 + 0.001 * rng_macro.normal()
        rate = min(8.0, max(0.0, rate + 0.1 * rng_macro.normal()))
        macro_cols["gdp"].append(gdp)
        macro_cols["cpi"].append(cpi)
        macro_cols["interest_rate"].append(rate)
    macro = TimeSeriesFrame(day_numbers([dates[i] for i in macro_rows]),
                            {k: np.array(v) for k, v in macro_cols.items()})

    policy = []
    for t in range(n):
        if rng_policy.next_float() < _POLICY_EVENT_PROB:
            policy.append((dates[t], POLICY_CATEGORIES[rng_policy.randint(len(POLICY_CATEGORIES))]))

    provenance = (
        f"synth(seed={cfg.seed}, n_days={cfg.n_days}, base_vol={cfg.base_vol}, "
        f"regime_shift_prob={cfg.regime_shift_prob}, kappa={cfg.kappa}, "
        f"nonlinearity={cfg.nonlinearity})"
    )
    return DatasetBundle(market=market, financial=merge_outer(financial, macro),
                         news=dated_labels(news), policy=dated_labels(policy),
                         provenance=provenance)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def _assert_frames_identical(got, want):
    assert got.dates == want.dates
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got.column(name).tobytes() == want.column(name).tobytes(), name


def _assert_bundles_identical(got, want):
    _assert_frames_identical(got.market, want.market)
    _assert_frames_identical(got.financial, want.financial)
    assert label_pairs(got.news) == label_pairs(want.news)
    assert label_pairs(got.policy) == label_pairs(want.policy)
    assert got.provenance == want.provenance


@pytest.mark.parametrize("cfg", [
    SynthConfig(n_days=200),
    SynthConfig(n_days=300, seed=123),
    SynthConfig(n_days=2000, seed=7),
    SynthConfig(n_days=1000, seed=11, kappa=0.0, nonlinearity=False),
    SynthConfig(n_days=500, seed=9, base_vol=0.02, regime_shift_prob=1.0, kappa=0.3),
    # About 110k news draws: six chunks, the last one short.
    SynthConfig(n_days=3000, seed=3),
    # Two whole chunks of days, none short.
    SynthConfig(n_days=1024, seed=13),
], ids=lambda cfg: f"{cfg.n_days}d-seed{cfg.seed}-kappa{cfg.kappa}-nl{cfg.nonlinearity}")
def test_bundle_matches_per_draw_reference(cfg):
    _assert_bundles_identical(synth_generate(cfg), ref_synth_generate(cfg))


@pytest.mark.parametrize("chunk_days", [1, 3])
def test_small_chunks_top_up_at_the_walked_position(monkeypatch, chunk_days):
    """A one-day chunk holds exactly one day's maximum of draws, topped up
    before every day from wherever the last day stopped."""
    monkeypatch.setattr(synth, "_CHUNK_DAYS", chunk_days)
    cfg = SynthConfig(n_days=400, seed=5)
    want = ref_synth_generate(cfg)
    _assert_bundles_identical(synth_generate(cfg), want)
    # The bound is exercised: some day uses all of it (three items of ten words).
    words = {}
    for day, text in label_pairs(want.news):
        words.setdefault(day, []).append(len(text.split()))
    assert [2 * _WORDS_PER_ITEM - 2] * 3 in words.values()


@pytest.mark.parametrize("start", [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(7)])
def test_trading_days_match_reference_from_every_weekday(start):
    assert trading_days(start, 40) == ref_trading_days(start, 40)
    assert trading_days(start, 0) == []
