import datetime as dt
import math
import warnings

import numpy as np
import pytest

from conftest import dated_labels
from riskcast import (
    DataError,
    ParameterError,
    SeededRng,
    TimeSeriesFrame,
    aggregate_daily_sentiment,
    align_by_date,
    apply_standardize,
    build_windows,
    default_lexicon,
    fit_standardize,
    moving_average,
    one_hot_encode,
    sentiment_score,
)
from riskcast.features import SentimentScore, daily_returns, join_same_day, trailing_volatility
from riskcast.frames import day_numbers, merge_outer
from riskcast.lexicon import SentimentLexicon


def _days(start: dt.date, n: int, step: int = 1):
    return [start + dt.timedelta(days=i * step) for i in range(n)]


class TestMovingAverage:
    def test_constant_series(self):
        out = moving_average(np.full(10, 7.0), 5)
        assert np.isnan(out[:4]).all()
        assert np.all(out[4:] == 7.0)

    def test_two_day_window(self):
        out = moving_average([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        assert np.isnan(out[0])
        assert np.array_equal(out[1:], [1.5, 2.5, 3.5, 4.5])

    def test_unit_window_is_identity(self):
        series = np.array([3.0, -1.0, 2.5])
        assert np.array_equal(moving_average(series, 1), series)

    def test_oversized_window_returns_all_missing_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = moving_average([1.0, 2.0], 5)
        assert np.isnan(out).all()

    def test_invalid_window(self):
        with pytest.raises(ParameterError):
            moving_average([1.0], 0)

    def test_matches_bruteforce_window_means(self):
        rng = SeededRng(70)
        for trial in range(20):
            n = 30 + rng.randint(40)
            w = 1 + rng.randint(10)
            series = rng.normals(n, 0.0, 3.0)
            out = moving_average(series, w)
            for t in range(n):
                if t < w - 1:
                    assert np.isnan(out[t])
                else:
                    expected = math.fsum(series[t - w + 1:t + 1]) / w
                    assert abs(out[t] - expected) < 1e-12


class TestSentimentScore:
    def test_empty_text(self):
        assert sentiment_score("", default_lexicon()) == (0.0, 0.0, 1.0, 0.0)

    def test_count_and_divide_example(self):
        lex = SentimentLexicon(frozenset({"gain"}), frozenset({"loss"}))
        score = sentiment_score("gain gain loss", lex)
        assert score.pos == pytest.approx(2 / 3)
        assert score.neg == pytest.approx(1 / 3)
        assert score.neu == 0.0
        assert score.compound == (2 - 1) / (2 + 1 + 1)

    def test_no_lexicon_hits_is_neutral(self):
        score = sentiment_score("the cat sat on the mat", default_lexicon())
        assert score == (0.0, 0.0, 1.0, 0.0)

    def test_tokenization_is_case_and_punctuation_insensitive(self):
        lex = SentimentLexicon(frozenset({"rally"}), frozenset())
        assert sentiment_score("Rally! RALLY, rally.", lex).pos == 1.0

    def test_components_sum_to_one_exactly(self):
        lex = default_lexicon()
        rng = SeededRng(71)
        pos_terms = sorted(lex.positive)
        neg_terms = sorted(lex.negative)
        filler = ["market", "report", "today", "shares"]
        for _ in range(300):
            words = []
            for _ in range(1 + rng.randint(12)):
                bucket = rng.randint(3)
                pool = (pos_terms, neg_terms, filler)[bucket]
                words.append(pool[rng.randint(len(pool))])
            score = sentiment_score(" ".join(words), lex)
            assert score.pos + score.neg + score.neu == 1.0
            assert -1.0 <= score.compound <= 1.0


class TestAggregateDailySentiment:
    def test_single_item_per_day_passes_through(self):
        day = dt.date(2020, 1, 6)
        score = SentimentScore(0.25, 0.25, 0.5, 0.1)
        frame = aggregate_daily_sentiment(day_numbers([day]), [score], day_numbers([day]))
        assert frame.dates == [day]
        assert frame.column("compound")[0] == 0.1

    def test_same_day_mean(self):
        day = dt.date(2020, 1, 6)
        items = [(day, SentimentScore(0.0, 0.0, 1.0, 0.2)),
                 (day, SentimentScore(0.0, 0.0, 1.0, 0.6))]
        frame = aggregate_daily_sentiment(day_numbers([day, day]), [s for _, s in items],
                                          day_numbers([day]))
        assert frame.column("compound")[0] == pytest.approx(0.4)

    def test_gap_day_filled_neutral(self):
        items = [(dt.date(2020, 1, 6), SentimentScore(0.5, 0.0, 0.5, 0.8)),
                 (dt.date(2020, 1, 8), SentimentScore(0.0, 0.5, 0.5, -0.8))]
        frame = aggregate_daily_sentiment(day_numbers([d for d, _ in items]),
                                          [s for _, s in items],
                                          day_numbers(_days(dt.date(2020, 1, 6), 3)))
        assert len(frame) == 3
        gap = 1  # 2020-01-07
        assert frame.column("pos")[gap] == 0.0
        assert frame.column("neu")[gap] == 1.0
        assert frame.column("compound")[gap] == 0.0

    def test_empty_items_give_empty_frame(self):
        frame = aggregate_daily_sentiment(day_numbers([]), [], day_numbers([]))
        assert len(frame) == 0
        assert frame.column_names == ["pos", "neg", "neu", "compound"]

    def test_no_items_fill_every_day_neutral(self):
        onto = day_numbers(_days(dt.date(2020, 1, 6), 3))
        frame = aggregate_daily_sentiment(day_numbers([]), [], onto)
        assert frame.days.tolist() == onto.tolist()
        assert frame.matrix(frame.column_names).tolist() == [[0.0, 0.0, 1.0, 0.0]] * 3

    def test_items_off_the_days_are_left_out(self):
        """Items before, between and after the days change no day's mean."""
        onto = day_numbers([dt.date(2020, 1, 6), dt.date(2020, 1, 8)])
        on_day = (dt.date(2020, 1, 8), SentimentScore(0.5, 0.0, 0.5, 0.8))
        off_days = [(dt.date(2020, 1, d), SentimentScore(0.0, 0.5, 0.5, -0.8))
                    for d in (3, 7, 9)]
        items = [off_days[0], on_day, *off_days[1:]]
        frame = aggregate_daily_sentiment(day_numbers([d for d, _ in items]),
                                          [s for _, s in items], onto)
        assert frame.days.tolist() == onto.tolist()
        assert frame.column("compound").tolist() == [0.0, 0.8]
        assert frame.column("neu").tolist() == [1.0, 0.5]


class TestStandardization:
    def _frame(self, values):
        return TimeSeriesFrame(day_numbers(_days(dt.date(2020, 1, 1), len(values))),
                               {"x": np.asarray(values, dtype=float)})

    def test_three_point_example(self):
        frame = self._frame([1.0, 2.0, 3.0])
        stats = fit_standardize(frame, (0, 3))
        assert stats["x"].mean == 2.0
        assert stats["x"].std == pytest.approx(math.sqrt(2 / 3))
        z = apply_standardize(frame, stats).column("x")
        np.testing.assert_allclose(z, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_column_flagged_and_zeroed(self):
        frame = self._frame([4.2, 4.2, 4.2, 4.2])
        stats = fit_standardize(frame, (0, 4))
        assert stats["x"].zero_variance
        assert not apply_standardize(frame, stats).column("x").any()

    def test_training_rows_have_zero_mean_after_applying(self):
        rng = SeededRng(72)
        frame = self._frame(rng.normals(50, 3.0, 2.0))
        stats = fit_standardize(frame, (0, 30))
        z = apply_standardize(frame, stats).column("x")
        assert abs(float(np.mean(z[:30]))) < 1e-9

    def test_destandardize_reconstructs_training_values(self):
        rng = SeededRng(73)
        frame = self._frame(rng.normals(40, -1.0, 5.0))
        stats = fit_standardize(frame, (0, 40))
        z = apply_standardize(frame, stats).column("x")
        cs = stats["x"]
        np.testing.assert_allclose(z * cs.std + cs.mean, frame.column("x"), atol=1e-9)

    def test_empty_train_range_rejected(self):
        with pytest.raises(DataError):
            fit_standardize(self._frame([1.0, 2.0]), (1, 1))

    def test_bruteforce_zscore_agreement(self):
        rng = SeededRng(74)
        for _ in range(20):
            n = 20 + rng.randint(30)
            stop = 10 + rng.randint(n - 10)
            values = rng.normals(n, 1.0, 4.0)
            frame = self._frame(values)
            stats = fit_standardize(frame, (0, stop))
            z = apply_standardize(frame, stats).column("x")
            mean = math.fsum(values[:stop]) / stop
            var = math.fsum((v - mean) ** 2 for v in values[:stop]) / stop
            expected = (values - mean) / math.sqrt(var)
            np.testing.assert_allclose(z, expected, atol=1e-12)


class TestOneHot:
    VOCAB = ["alpha", "beta", "gamma", "delta"]

    def test_single_event_row(self):
        day = dt.date(2021, 3, 1)
        frame = one_hot_encode(dated_labels([(day, "gamma")]), self.VOCAB, day_numbers([day]))
        row = [frame.column(c)[0] for c in self.VOCAB]
        assert row == [0.0, 0.0, 1.0, 0.0]

    def test_absence_row_is_all_zero(self):
        events = [(dt.date(2021, 3, 1), "alpha"), (dt.date(2021, 3, 3), "beta")]
        frame = one_hot_encode(dated_labels(events), self.VOCAB,
                               day_numbers(_days(dt.date(2021, 3, 1), 3)))
        middle = [frame.column(c)[1] for c in self.VOCAB]
        assert middle == [0.0, 0.0, 0.0, 0.0]

    def test_two_events_same_day_multi_hot(self):
        day = dt.date(2021, 3, 1)
        frame = one_hot_encode(dated_labels([(day, "alpha"), (day, "delta")]), self.VOCAB,
                               day_numbers([day]))
        row = [frame.column(c)[0] for c in self.VOCAB]
        assert row == [1.0, 0.0, 0.0, 1.0]

    def test_unknown_category_error_names_it(self):
        events = [(dt.date(2021, 3, 1), "alpha"), (dt.date(2021, 3, 2), "omega")]
        with pytest.raises(DataError, match="^unknown category 'omega' on 2021-03-02$"):
            one_hot_encode(dated_labels(events), self.VOCAB, day_numbers([dt.date(2021, 3, 1)]))

    def test_events_off_the_days_are_left_out_but_checked(self):
        events = [(dt.date(2021, 2, 27), "beta"), (dt.date(2021, 3, 1), "alpha"),
                  (dt.date(2021, 3, 6), "delta")]
        onto = day_numbers([dt.date(2021, 3, 1), dt.date(2021, 3, 2)])
        frame = one_hot_encode(dated_labels(events), self.VOCAB, onto)
        assert frame.days.tolist() == onto.tolist()
        assert frame.matrix(self.VOCAB).tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0] * 4]
        with pytest.raises(DataError, match="^unknown category 'omega' on 2021-03-06$"):
            one_hot_encode(dated_labels([*events, (dt.date(2021, 3, 6), "omega")]),
                           self.VOCAB, onto)

    def test_row_sums_equal_distinct_event_counts(self):
        """Indicator columns are 0/1, so a row sums to the number of
        distinct categories seen that day."""
        rng = SeededRng(75)
        start = dt.date(2021, 1, 1)
        events = []
        seen: dict[dt.date, set[str]] = {}
        for _ in range(60):
            day = start + dt.timedelta(days=rng.randint(30))
            category = self.VOCAB[rng.randint(4)]
            events.append((day, category))
            seen.setdefault(day, set()).add(category)
        frame = one_hot_encode(dated_labels(events), self.VOCAB, day_numbers(_days(start, 30)))
        matrix = frame.matrix(self.VOCAB)
        for i, day in enumerate(frame.dates):
            assert matrix[i].sum() == len(seen.get(day, set()))


class TestAlign:
    def _market(self, n=10):
        return TimeSeriesFrame(day_numbers(_days(dt.date(2020, 6, 1), n)),
                               {"close": np.arange(n, dtype=float) + 100.0})

    def test_identical_dates_concatenate_columns(self):
        market = self._market(5)
        other = TimeSeriesFrame(market.days, {"profit": np.ones(5)})
        aligned = align_by_date(market, financial=other)
        assert aligned.column_names == ["close", "profit"]
        assert len(aligned) == 5

    def test_quarterly_value_forward_filled(self):
        market = self._market(90)
        report_day = market.dates[0]
        fin = TimeSeriesFrame(day_numbers([report_day]), {"profit": np.array([42.0])})
        aligned = align_by_date(market, financial=fin)
        assert np.all(aligned.column("profit") == 42.0)

    def test_rows_before_first_report_hold_nan(self):
        """Alignment keeps every market day; the pipeline decides where rows start."""
        market = self._market(10)
        fin = TimeSeriesFrame(day_numbers([market.dates[3]]), {"profit": np.array([1.0])})
        aligned = align_by_date(market, financial=fin)
        assert aligned.dates == market.dates
        assert np.array_equal(aligned.column("close"), market.column("close"))
        assert np.isnan(aligned.column("profit")[:3]).all()
        assert np.array_equal(aligned.column("profit")[3:], np.ones(7))

    def test_first_report_on_the_last_market_day_keeps_every_row(self):
        market = self._market(6)
        fin = TimeSeriesFrame(day_numbers([market.dates[-1]]), {"profit": np.array([2.0])})
        aligned = align_by_date(market, financial=fin)
        assert len(aligned) == 6
        assert np.flatnonzero(np.isfinite(aligned.column("profit"))).tolist() == [5]

    def test_sentiment_gaps_neutral_filled_and_policy_zero_filled(self):
        market = self._market(4)
        sent = aggregate_daily_sentiment(day_numbers([market.dates[1]]),
                                         [SentimentScore(0.4, 0.1, 0.5, 0.6)], market.days)
        pol = one_hot_encode(dated_labels([(market.dates[2], "hike")]), ["hike"], market.days)
        aligned = join_same_day(align_by_date(market), sent, pol)
        assert np.array_equal(aligned.column("neu"), [1.0, 0.5, 1.0, 1.0])
        assert np.array_equal(aligned.column("compound"), [0.0, 0.6, 0.0, 0.0])
        assert np.array_equal(aligned.column("hike"), [0.0, 0.0, 1.0, 0.0])

    def test_disjoint_ranges_raise_with_both_ranges(self):
        market = self._market(5)
        fin = TimeSeriesFrame(day_numbers([market.dates[-1] + dt.timedelta(days=30)]),
                              {"profit": np.array([1.0])})
        with pytest.raises(DataError, match="alignment produced no rows"):
            align_by_date(market, financial=fin)

    def test_policy_category_named_like_a_sentiment_column_rejected(self):
        market = self._market(3)
        sent = aggregate_daily_sentiment(day_numbers([]), [], market.days)
        pol = one_hot_encode(dated_labels([(market.dates[0], "pos")]), ["pos"], market.days)
        with pytest.raises(DataError, match="^duplicate column name across sources: 'pos'$"):
            join_same_day(align_by_date(market), sent, pol)

    def test_financial_data_without_rows_raises(self):
        with pytest.raises(DataError, match="financial data has no rows"):
            align_by_date(self._market(3), financial=TimeSeriesFrame([], {"x": []}))

    def test_duplicate_column_names_rejected(self):
        market = self._market(3)
        fin = TimeSeriesFrame(market.days, {"close": np.ones(3)})
        with pytest.raises(DataError):
            align_by_date(market, financial=fin)

    def test_one_column_reported_only_after_the_market_raises(self):
        market = self._market(5)
        late = market.dates[-1] + dt.timedelta(days=1)
        fin = TimeSeriesFrame(day_numbers([market.dates[0], late]),
                              {"profit": np.array([1.0, 2.0]), "cpi": np.array([np.nan, 3.0])})
        with pytest.raises(DataError, match="alignment produced no rows"):
            align_by_date(market, financial=fin)


class TestReturnsAndVolatility:
    def test_daily_returns(self):
        out = daily_returns([100.0, 110.0, 99.0])
        assert np.isnan(out[0])
        np.testing.assert_allclose(out[1:], [0.1, -0.1])

    def test_trailing_volatility_matches_population_std(self):
        rng = SeededRng(76)
        rets = rng.normals(30, 0.0, 0.02)
        vol = trailing_volatility(rets, 5)
        assert np.isnan(vol[:4]).all()
        for t in range(4, 30):
            window = rets[t - 4:t + 1]
            assert abs(vol[t] - float(np.std(window))) < 1e-15


class TestBuildWindows:
    def _frame(self, n):
        rng = SeededRng(77)
        return TimeSeriesFrame(day_numbers(_days(dt.date(2020, 1, 1), n)), {
            "a": rng.normals(n),
            "b": rng.normals(n),
            "s": rng.normals(n),
            "target": rng.uniforms(n, 0.0, 1.0),
        })

    def test_counting_oracle(self):
        samples = build_windows(self._frame(10), ["a", "b"], ["s"], "target", 5, 1)
        assert len(samples) == 5

    def test_boundary_needs_window_plus_horizon(self):
        with pytest.raises(DataError):
            build_windows(self._frame(5), ["a"], ["s"], "target", 5, 1)

    def test_no_lookahead_holds_exhaustively(self):
        frame = self._frame(40)
        window, horizon = 7, 3
        samples = build_windows(frame, ["a", "b"], ["s"], "target", window, horizon)
        for i in range(len(samples)):
            end = i + window - 1
            assert samples.dates[i] == frame.dates[end]
            target_row = end + horizon
            assert samples.dates[i] < frame.dates[target_row]
            assert samples.y[i] == frame.column("target")[target_row]
            assert np.array_equal(samples.x_seq[i],
                                  frame.matrix(["a", "b"])[i:end + 1])
            assert samples.x_static[i][0] == frame.column("s")[end]

    def test_missing_values_rejected(self):
        frame = self._frame(12)
        frame.columns["a"][3] = np.nan
        with pytest.raises(DataError):
            build_windows(frame, ["a"], ["s"], "target", 4, 2)


class TestFrameHelpers:
    def test_strictly_increasing_dates_enforced(self):
        days = [dt.date(2020, 1, 2), dt.date(2020, 1, 2)]
        with pytest.raises(DataError):
            TimeSeriesFrame(day_numbers(days), {"x": np.zeros(2)})

    def test_merge_outer_joins_on_dates(self):
        a = TimeSeriesFrame(day_numbers(_days(dt.date(2020, 1, 1), 2)), {"x": np.array([1.0, 2.0])})
        b = TimeSeriesFrame(day_numbers([dt.date(2020, 1, 2), dt.date(2020, 1, 5)]),
                            {"y": np.array([10.0, 20.0])})
        merged = merge_outer(a, b)
        assert len(merged) == 3
        assert np.isnan(merged.column("y")[0])
        assert merged.column("y")[1] == 10.0
        assert np.isnan(merged.column("x")[2])
