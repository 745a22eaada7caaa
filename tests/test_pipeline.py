import dataclasses

import numpy as np
import pytest

from riskcast import (
    DataError,
    DatedLabels,
    ParameterError,
    HybridModel,
    ModelDims,
    PipelineConfig,
    SampleSet,
    SplitSpec,
    SynthConfig,
    TimeSeriesFrame,
    TrainConfig,
    build_samples,
    default_lexicon,
    fit,
    linreg_fit,
    make_datasets,
    synth_generate,
)
from riskcast.models import prediction_scores
from riskcast.pipeline import MARKET_CHANNELS, SENTIMENT_CHANNELS, assemble_frame, split_for
from riskcast.features import daily_returns, trailing_volatility


@pytest.fixture(scope="module")
def bundle():
    return synth_generate(SynthConfig(n_days=400, seed=55))


@pytest.fixture(scope="module")
def datasets(bundle):
    return make_datasets(bundle, default_lexicon(), PipelineConfig(), SplitSpec())


class TestMakeDatasets:
    def test_shapes_and_column_layout(self, datasets):
        train, val, test, pre = datasets
        assert train.x_seq.shape[2] == len(MARKET_CHANNELS) + len(SENTIMENT_CHANNELS)
        assert pre.seq_cols[:len(MARKET_CHANNELS)] == list(MARKET_CHANNELS)
        assert pre.seq_cols[len(MARKET_CHANNELS):] == list(SENTIMENT_CHANNELS)
        assert train.static_width == len(pre.static_all)
        assert train.x_seq.shape[1] == pre.window == 20

    def test_everything_finite_and_targets_in_unit_interval(self, datasets):
        for part in datasets[:3]:
            assert np.isfinite(part.x_seq).all()
            assert np.isfinite(part.x_static).all()
            assert np.isfinite(part.y).all()
            assert np.all((part.y >= 0.0) & (part.y <= 1.0))

    def test_split_sizes_follow_the_spec(self, datasets):
        train, val, test, pre = datasets
        n = len(train) + len(val) + len(test)
        assert len(train) == int(n * 0.70)
        assert len(val) == int(n * 0.15)

    def test_training_target_range_spans_unit_interval(self, datasets):
        train = datasets[0]
        assert float(np.min(train.y)) == 0.0
        assert float(np.max(train.y)) == 1.0

    def test_standardized_channels_are_centered_on_training_rows(self, bundle, datasets):
        """Training-period z-scored columns should average near zero."""
        train, _, _, pre = datasets
        close_channel = pre.seq_cols.index("close")
        first_window = train.x_seq[0, :, close_channel]
        assert np.isfinite(first_window).all()
        means = train.x_seq[:, -1, close_channel]
        assert abs(float(np.mean(means))) < 0.5

    def test_stats_fit_excludes_the_test_period(self, bundle, datasets):
        _, _, _, pre = datasets
        cfg = PipelineConfig()
        vocab = pre.policy_vocab
        frame = assemble_frame(bundle, default_lexicon(), cfg, vocab)
        n_rows = len(frame)
        n_samples = n_rows - cfg.window - cfg.horizon + 1
        n_train = int(n_samples * 0.70)
        stop = cfg.window + n_train - 1
        raw_close = frame.column("close")
        stats = pre.stats["close"]
        assert stats.mean == pytest.approx(float(np.mean(raw_close[:stop])))
        assert stats.mean != pytest.approx(float(np.mean(raw_close)))


def _copied(samples: SampleSet) -> SampleSet:
    """The same samples with the windows, which are read-only strided views,
    in a contiguous array of their own."""
    assert not samples.x_seq.flags.writeable and not samples.x_seq.flags.c_contiguous
    return SampleSet(np.ascontiguousarray(samples.x_seq), samples.x_static, samples.y,
                     samples.days)


def _hybrid_for(pre, kernel_width: int = 3) -> HybridModel:
    dims = ModelDims(window=pre.window, f_market=len(pre.market_cols),
                     f_sentiment=len(pre.sentiment_cols), f_static=len(pre.static_all),
                     kernel_width=kernel_width, hidden_size=8)
    return HybridModel.initialize(dims, seed=3, dropout_p=0.2)


def _param_bytes(model) -> dict[str, bytes]:
    return {name: value.tobytes() for name, value in model.params().items()}


class TestWindowViews:
    """Every model reads the read-only window views to the bits it reads from a
    contiguous copy of them."""

    def test_linreg_fit(self, datasets):
        train = datasets[0]
        assert _param_bytes(linreg_fit(train)) == _param_bytes(linreg_fit(_copied(train)))

    @pytest.mark.parametrize("kernel_width", [3, 1])
    def test_hybrid_prediction_scores(self, datasets, kernel_width):
        test, pre = datasets[2], datasets[3]
        model = _hybrid_for(pre, kernel_width)
        scores = prediction_scores(model, test)
        assert scores.tobytes() == prediction_scores(model, _copied(test)).tobytes()

    def test_linear_prediction_scores(self, datasets):
        train, test = datasets[0], datasets[2]
        model = linreg_fit(train)
        scores = prediction_scores(model, test)
        assert scores.tobytes() == prediction_scores(model, _copied(test)).tobytes()

    def test_one_fit_epoch(self, datasets):
        train, val, _, pre = datasets
        cfg = TrainConfig(max_epochs=1, batch_size=16, seed=9)
        viewed, viewed_log = fit(_hybrid_for(pre), train, val, cfg)
        copied, copied_log = fit(_hybrid_for(pre), _copied(train), _copied(val), cfg)
        assert _param_bytes(viewed) == _param_bytes(copied)
        assert (viewed_log.train_mse, viewed_log.val_mse) == (copied_log.train_mse,
                                                              copied_log.val_mse)


class TestNoLookahead:
    def test_target_equals_future_realized_volatility(self, bundle, datasets):
        """Each target must be recomputable from closes strictly after the
        prediction date."""
        train, val, test, pre = datasets
        cfg = pre.config
        frame = assemble_frame(bundle, default_lexicon(), cfg, pre.policy_vocab)
        date_to_row = {d: i for i, d in enumerate(frame.dates)}
        raw_target = frame.column("rvol_raw")
        close = bundle.market.column("close")
        market_index = {d: i for i, d in enumerate(bundle.market.dates)}
        rets = daily_returns(close)
        vol = trailing_volatility(rets, cfg.horizon)
        for part in (train, val, test):
            for i in range(0, len(part), 17):
                row = date_to_row[part.dates[i]]
                target_row = row + cfg.horizon
                expected_raw = raw_target[target_row]
                denorm = part.y[i] * (pre.y_max - pre.y_min) + pre.y_min
                if pre.y_min < expected_raw < pre.y_max:
                    assert denorm == pytest.approx(expected_raw, abs=1e-12)
                market_row = market_index[frame.dates[target_row]]
                assert vol[market_row] == pytest.approx(expected_raw)
                # measurement window is rows market_row-horizon+1 .. market_row,
                # all strictly after the prediction date
                first_measured = bundle.market.dates[market_row - cfg.horizon + 1]
                assert part.dates[i] < first_measured

    def test_chronological_blocks_do_not_overlap(self, datasets):
        train, val, test, _ = datasets
        assert max(train.dates) < min(val.dates) < min(test.dates)


class TestBuildSamples:
    def test_reproduces_training_features_bit_for_bit(self, bundle, datasets):
        train, val, test, pre = datasets
        rebuilt = build_samples(bundle, default_lexicon(), pre)
        joined_y = np.concatenate([train.y, val.y, test.y])
        assert np.array_equal(rebuilt.y, joined_y)
        joined_seq = np.concatenate([train.x_seq, val.x_seq, test.x_seq])
        assert np.array_equal(rebuilt.x_seq, joined_seq)
        assert rebuilt.dates == train.dates + val.dates + test.dates

    def test_split_for_roundtrips_fractions(self, datasets):
        pre = datasets[3]
        spec = split_for(pre)
        assert (spec.train_frac, spec.val_frac, spec.test_frac) == (0.70, 0.15, 0.15)


class TestRowStart:
    """``assemble_frame`` alone decides where the rows start."""

    @pytest.mark.parametrize("report_row", [10, 100], ids=["report-in-warm-up",
                                                         "report-after-warm-up"])
    def test_frame_starts_at_the_later_of_warm_up_and_first_report(self, bundle, report_row):
        market = bundle.market
        one_report = TimeSeriesFrame(market.days[[report_row]], {"profit": np.array([1.0])})
        frame = assemble_frame(dataclasses.replace(bundle, financial=one_report),
                               default_lexicon(), PipelineConfig(), sorted(set(bundle.policy.labels)))
        # The 60-day moving average is first complete on row 59.
        assert frame.days.tolist() == market.days[max(59, report_row):].tolist()
        assert np.isfinite(frame.matrix(frame.column_names)).all()

    @pytest.mark.parametrize("block", [False, True], ids=["full", "test-block"])
    def test_a_non_finite_feature_inside_the_history_is_refused(self, bundle, datasets, block):
        """An overflow far before the test block is refused by the test-block
        build too, so evaluation refuses whatever training refuses."""
        close = bundle.market.column("close").copy()
        close[200] *= 1e-302
        market = TimeSeriesFrame(bundle.market.days, {**bundle.market.columns, "close": close})
        pre = datasets[3]
        day = bundle.market.dates[201]
        with pytest.raises(DataError, match=rf"^feature 'rvol' is not finite on {day}, "):
            assemble_frame(dataclasses.replace(bundle, market=market), default_lexicon(),
                           pre.config, pre.policy_vocab, test_block_of=pre if block else None)


@pytest.mark.parametrize("block", [False, True], ids=["full", "test-block"])
def test_news_before_the_first_row_or_after_the_last_leaves_sentiment_unchanged(
        bundle, datasets, block):
    pre = datasets[3]

    def sentiment_with(days):
        news = DatedLabels(np.concatenate((bundle.news.days, days)),
                           bundle.news.labels + ["crash collapse crisis"] * len(days))
        frame = assemble_frame(dataclasses.replace(bundle, news=news), default_lexicon(),
                               pre.config, pre.policy_vocab, test_block_of=pre if block else None)
        return frame.matrix(["pos", "neg", "neu", "compound"]), frame.days

    unedited, days = sentiment_with([])
    market = bundle.market.days
    before = market[market < days[0]]
    assert len(before) >= 59  # the warm-up rows, and the rows before the test block
    outside = [market[0] - 3, *before[::10], before[-1], days[-1] + 1, days[-1] + 30]
    assert np.array_equal(sentiment_with(outside)[0], unedited)
    # The same item on the first row does reach the frame.
    assert not np.array_equal(sentiment_with([days[0]])[0], unedited)


def test_degenerate_policy_free_bundle_still_works():
    bundle = synth_generate(SynthConfig(n_days=400, seed=56))
    bundle.policy = DatedLabels([], [])
    train, val, test, pre = make_datasets(bundle, default_lexicon(),
                                          PipelineConfig(), SplitSpec())
    assert pre.policy_vocab == []
    assert train.static_width == len(pre.static_cols)


def test_too_little_data_is_rejected():
    bundle = synth_generate(SynthConfig(n_days=200, seed=57))
    short = TimeSeriesFrame(bundle.market.days[:90],
                            {n: v[:90] for n, v in bundle.market.columns.items()})
    bundle.market = short
    with pytest.raises(DataError):
        make_datasets(bundle, default_lexicon(), PipelineConfig(), SplitSpec())


@pytest.mark.parametrize("window,horizon", [(0, 5), (20, 0), (-1, 5)])
def test_config_rejects_window_or_horizon_below_one(window, horizon):
    with pytest.raises(ParameterError, match="window and horizon must be >= 1"):
        PipelineConfig(window=window, horizon=horizon)
