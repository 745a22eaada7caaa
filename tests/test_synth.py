import tracemalloc

import numpy as np
import pytest

from conftest import label_pairs
from riskcast import NumericalError, ParameterError, SynthConfig, default_lexicon, synth_generate
from riskcast.features import (
    aggregate_daily_sentiment,
    daily_returns,
    sentiment_scores,
    trailing_volatility,
)
from riskcast.synth import POLICY_CATEGORIES, START_DATE, trading_days
import datetime as dt


def _bundles_equal(a, b) -> bool:
    if a.market.dates != b.market.dates:
        return False
    for name in a.market.column_names:
        if not np.array_equal(a.market.column(name), b.market.column(name)):
            return False
    for name in a.financial.column_names:
        if not np.array_equal(a.financial.column(name), b.financial.column(name),
                              equal_nan=True):
            return False
    return (label_pairs(a.news) == label_pairs(b.news)
            and label_pairs(a.policy) == label_pairs(b.policy))


def _compound_vs_forward_vol(bundle) -> float:
    lex = default_lexicon()
    agg = aggregate_daily_sentiment(bundle.news.days, sentiment_scores(bundle.news.labels, lex))
    index = {d: i for i, d in enumerate(agg.dates)}
    compound = np.array([
        agg.column("compound")[index[d]] if d in index else 0.0
        for d in bundle.market.dates
    ])
    rvol = trailing_volatility(daily_returns(bundle.market.column("close")), 5)
    forward = np.full(len(bundle.market), np.nan)
    forward[:-5] = rvol[5:]
    ok = np.isfinite(forward)
    return float(np.corrcoef(compound[ok], forward[ok])[0, 1])


class TestDeterminism:
    def test_same_config_twice_is_bitwise_identical(self):
        cfg = SynthConfig(n_days=300, seed=123)
        assert _bundles_equal(synth_generate(cfg), synth_generate(cfg))

    def test_different_seeds_differ(self):
        a = synth_generate(SynthConfig(n_days=300, seed=1))
        b = synth_generate(SynthConfig(n_days=300, seed=2))
        assert not _bundles_equal(a, b)


class TestPlantedSentimentSignal:
    def test_no_coupling_means_no_correlation(self):
        bundle = synth_generate(SynthConfig(n_days=2000, seed=11, kappa=0.0))
        assert abs(_compound_vs_forward_vol(bundle)) < 0.05

    def test_strong_coupling_means_strong_correlation(self):
        bundle = synth_generate(SynthConfig(n_days=2000, seed=11, kappa=0.8))
        assert _compound_vs_forward_vol(bundle) > 0.4


class TestGeneratedSeries:
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SynthConfig(n_days=50)
        with pytest.raises(ParameterError):
            SynthConfig(base_vol=0.0)
        with pytest.raises(ParameterError):
            SynthConfig(kappa=1.5)

    def test_n_days_ends_at_the_last_representable_date(self):
        """Trading day 2,083,186 is 9999-12-31, a Friday and ``date.max``:
        one day more has no ``datetime.date``."""
        last = np.busday_offset(np.datetime64(START_DATE), 2_083_186 - 1, roll="forward")
        assert last == np.datetime64(dt.date.max)
        SynthConfig(n_days=2_083_186)
        with pytest.raises(ParameterError, match="n_days must be <= 2083186"):
            SynthConfig(n_days=2_083_187)

    def test_market_series_are_clean(self):
        bundle = synth_generate(SynthConfig(n_days=250, seed=9))
        market = bundle.market
        assert len(market) == 250
        for i in range(1, 250):
            assert market.dates[i] > market.dates[i - 1]
            assert market.dates[i].weekday() < 5
        for name in ("open", "close", "volume"):
            values = market.column(name)
            assert np.all(np.isfinite(values)) and np.all(values > 0)

    @pytest.mark.parametrize("base_vol", [1e300, 100.0], ids=["overflow", "underflow"])
    def test_price_path_out_of_float_range_is_a_numerical_error(self, base_vol):
        """A finite but huge volatility drives prices to inf or to 0; the
        generator refuses instead of returning them."""
        with pytest.raises(NumericalError, match="out of the float range"):
            synth_generate(SynthConfig(n_days=200, base_vol=base_vol))

    def test_financial_and_macro_start_on_day_one(self):
        bundle = synth_generate(SynthConfig(n_days=250, seed=9))
        fin = bundle.financial
        assert fin.dates[0] == bundle.market.dates[0]
        for name in ("profit", "debt_ratio", "cash_flow", "gdp", "cpi", "interest_rate"):
            values = fin.column(name)
            assert np.any(np.isfinite(values))
        debt = fin.column("debt_ratio")
        observed = debt[np.isfinite(debt)]
        assert np.all((observed >= 0.15) & (observed <= 0.85))

    def test_news_covers_every_trading_day(self):
        bundle = synth_generate(SynthConfig(n_days=250, seed=9))
        news_days = {d for d, _ in label_pairs(bundle.news)}
        assert news_days == set(bundle.market.dates)

    def test_policy_categories_from_fixed_vocabulary(self):
        bundle = synth_generate(SynthConfig(n_days=2000, seed=9))
        assert len(bundle.policy), "2000 days should produce policy events"
        assert {c for _, c in label_pairs(bundle.policy)} <= set(POLICY_CATEGORIES)

    def test_news_draws_die_with_their_chunk(self):
        """The news stream is drawn, walked and composed a chunk at a time, so
        the peak above what the bundle keeps is about one chunk's work, not
        every chunk's draws (about 5.6 MB at 20,000 days)."""
        cfg = SynthConfig(n_days=20000, seed=7)
        tracemalloc.start()
        try:
            bundle = synth_generate(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bundle.news) == 35069
        assert peak - kept < 2e6

    def test_provenance_records_the_config(self):
        bundle = synth_generate(SynthConfig(n_days=250, seed=77, kappa=0.3))
        assert "seed=77" in bundle.provenance
        assert "kappa=0.3" in bundle.provenance


def test_trading_days_skips_weekends():
    days = trading_days(dt.date(2021, 1, 1), 10)  # Friday start
    assert len(days) == 10
    assert all(d.weekday() < 5 for d in days)
    assert days[0] == dt.date(2021, 1, 1)
    assert days[1] == dt.date(2021, 1, 4)
