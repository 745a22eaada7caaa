import datetime as dt

import numpy as np
import pytest

from conftest import random_samples, tiny_dims, tiny_hybrid
from riskcast import (
    DataError,
    ModelIOError,
    ParameterError,
    SchemaError,
    SeededRng,
    SplitSpec,
    TimeSeriesFrame,
    chronological_split,
    load_model,
    save_model,
)
from riskcast.data_io import (
    load_financial_csv,
    load_macro_csv,
    load_market_csv,
    load_news_csv,
    load_policy_csv,
    write_frame_csv,
    write_news_csv,
    write_policy_csv,
)
from riskcast.frames import day_numbers
from riskcast.models import LinearRegressionModel, prediction_scores
from riskcast.preprocess import PipelineConfig, Preprocess
from riskcast.features import StandardizationStats, ColumnStats


MARKET_3ROW = """date,open,close,volume
2020-01-02,100.0,101.5,1000000.0
2020-01-03,101.5,99.25,1200000.0
2020-01-06,99.25,100.0,900000.0
"""


class TestMarketLoader:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text(MARKET_3ROW)
        frame = load_market_csv(path)
        assert len(frame) == 3
        assert frame.dates[0] == dt.date(2020, 1, 2)
        assert frame.column("close")[1] == 99.25

    def test_missing_column_names_it(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text("date,open,volume\n2020-01-02,1.0,2.0\n")
        with pytest.raises(SchemaError, match="close"):
            load_market_csv(path)

    def test_out_of_order_rows_sorted_with_warning(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text(
            "date,open,close,volume\n"
            "2020-01-03,1.0,2.0,3.0\n"
            "2020-01-02,4.0,5.0,6.0\n"
        )
        with pytest.warns(UserWarning, match="out of date order"):
            frame = load_market_csv(path)
        assert frame.dates == [dt.date(2020, 1, 2), dt.date(2020, 1, 3)]
        assert frame.column("open")[0] == 4.0

    def test_duplicate_dates_rejected(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text(
            "date,open,close,volume\n"
            "2020-01-02,1.0,2.0,3.0\n"
            "2020-01-02,4.0,5.0,6.0\n"
        )
        with pytest.raises(SchemaError, match="duplicate"):
            load_market_csv(path)

    def test_one_duplicate_in_a_large_file_is_named(self, tmp_path):
        days = [dt.date(1960, 1, 1) + dt.timedelta(days=i) for i in range(20_000)]
        days.insert(12_345, days[12_345])
        path = tmp_path / "market.csv"
        path.write_text("date,open,close,volume\n"
                        + "".join(f"{day},1.0,2.0,3.0\n" for day in days))
        with pytest.raises(SchemaError) as err:
            load_market_csv(path)
        assert str(err.value) == f"{path}: duplicate dates [{days[12_345]!r}]"

    def test_duplicate_report_names_the_first_five_sorted(self, tmp_path):
        days = [dt.date(1960, 1, 1) + dt.timedelta(days=i) for i in range(20_000)]
        repeated = [days[i] for i in (19_000, 7, 15_000, 3, 400, 11, 9_999)]
        path = tmp_path / "market.csv"
        path.write_text("date,open,close,volume\n"
                        + "".join(f"{day},1.0,2.0,3.0\n" for day in days + repeated))
        with pytest.raises(SchemaError) as err:
            load_market_csv(path)
        assert str(err.value) == f"{path}: duplicate dates {sorted(repeated)[:5]}"

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text(
            "date,open,close,volume\n"
            "2020-01-02,1.0,2.0,3.0\n"
            "2020-01-03,oops,2.0,3.0\n"
        )
        with pytest.raises(SchemaError, match=":3"):
            load_market_csv(path)

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_value_names_file_line_and_column(self, tmp_path, token):
        path = tmp_path / "market.csv"
        path.write_text(
            "date,open,close,volume\n"
            "2020-01-02,1.0,2.0,3.0\n"
            f"2020-01-03,1.0,{token},3.0\n"
            "2020-01-06,1.0,2.0,3.0\n"
        )
        with pytest.raises(SchemaError, match=r"market\.csv:3: non-finite .* column 'close'"):
            load_market_csv(path)

    def test_non_finite_line_is_the_file_line_when_rows_are_out_of_order(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text(
            "date,open,close,volume\n"
            "2020-01-07,1.0,2.0,3.0\n"
            "2020-01-02,1.0,2.0,3.0\n"
            "2020-01-03,1.0,2.0,inf\n"
        )
        with pytest.raises(SchemaError, match=r"market\.csv:4: non-finite .* 'volume'"):
            load_market_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_market_csv(path)

    def test_roundtrip_preserves_values_including_extra_columns(self, tmp_path):
        rng = SeededRng(80)
        n = 25
        days = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(n)]
        frame = TimeSeriesFrame(day_numbers(days), {
            "open": rng.normals(n, 100.0, 3.0),
            "close": rng.normals(n, 100.0, 3.0),
            "volume": rng.uniforms(n, 1e5, 1e7),
            "extra": rng.normals(n, 0.0, 1e-9),
        })
        path = tmp_path / "market.csv"
        write_frame_csv(frame, path)
        loaded = load_market_csv(path)
        assert loaded.column_names == frame.column_names
        for name in frame.column_names:
            assert np.array_equal(loaded.column(name), frame.column(name))
        assert np.array_equal(loaded.days, frame.days)
        assert loaded.days.dtype == np.int64


class TestOtherLoaders:
    def test_financial_quarterly_rows(self, tmp_path):
        path = tmp_path / "financial.csv"
        rows = ["date,profit,debt_ratio,cash_flow"]
        day = dt.date(2020, 1, 1)
        for q in range(4):
            rows.append(f"{day + dt.timedelta(days=91 * q)},10.{q},0.4,8.0")
        path.write_text("\n".join(rows) + "\n")
        frame = load_financial_csv(path)
        assert len(frame) == 4

    def test_macro_loader(self, tmp_path):
        path = tmp_path / "macro.csv"
        path.write_text("date,gdp,cpi,interest_rate\n2020-01-01,100.0,99.0,2.5\n")
        frame = load_macro_csv(path)
        assert frame.column("interest_rate")[0] == 2.5

    def test_news_roundtrip_with_quoting(self, tmp_path):
        items = [(dt.date(2020, 3, 1), "markets crash on fears"),
                 (dt.date(2020, 3, 2), 'rally, "strong" gains ahead'),
                 (dt.date(2020, 3, 3), "first line\rsecond line")]
        path = tmp_path / "news.csv"
        write_news_csv(items, path)
        assert load_news_csv(path) == items

    def test_policy_loader(self, tmp_path):
        events = [(dt.date(2020, 5, 1), "rate_hike"), (dt.date(2020, 5, 2), "rate\rcut")]
        path = tmp_path / "policy.csv"
        write_policy_csv(events, path)
        assert load_policy_csv(path) == events

    def test_news_header_enforced(self, tmp_path):
        path = tmp_path / "news.csv"
        path.write_text("date,body\n2020-01-01,hello\n")
        with pytest.raises(SchemaError):
            load_news_csv(path)


class TestChronologicalSplit:
    def test_100_samples_split_70_15_15(self):
        samples = random_samples(100, tiny_dims(), seed=81)
        train, val, test = chronological_split(samples, SplitSpec())
        assert (len(train), len(val), len(test)) == (70, 15, 15)

    def test_remainder_goes_to_test(self):
        samples = random_samples(10, tiny_dims(), seed=82)
        train, val, test = chronological_split(samples, SplitSpec())
        assert (len(train), len(val), len(test)) == (7, 1, 2)

    def test_blocks_are_in_chronological_order(self):
        samples = random_samples(37, tiny_dims(), seed=83)
        train, val, test = chronological_split(samples, SplitSpec())
        assert max(train.dates) < min(val.dates) < min(test.dates)

    def test_partition_is_disjoint_and_complete(self):
        samples = random_samples(53, tiny_dims(), seed=84)
        train, val, test = chronological_split(samples, SplitSpec())
        rebuilt = np.concatenate([train.y, val.y, test.y])
        assert np.array_equal(rebuilt, samples.y)
        assert train.dates + val.dates + test.dates == samples.dates

    def test_too_few_samples_rejected(self):
        samples = random_samples(9, tiny_dims(), seed=85)
        with pytest.raises(DataError):
            chronological_split(samples, SplitSpec())

    def test_fractions_validated(self):
        with pytest.raises(ParameterError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ParameterError):
            SplitSpec(1.0, -0.1, 0.1)


class TestDatasetBundle:
    def test_components_must_overlap_the_market_range(self):
        from riskcast import DatasetBundle

        market = TimeSeriesFrame(
            day_numbers([dt.date(2020, 1, 2), dt.date(2020, 1, 3)]),
            {"open": np.ones(2), "close": np.ones(2), "volume": np.ones(2)},
        )
        with pytest.raises(DataError, match="overlap"):
            DatasetBundle(market=market, financial=TimeSeriesFrame([], {}),
                          news=[(dt.date(2021, 6, 1), "late story")], policy=[])


def _sample_preprocess():
    stats = StandardizationStats()
    stats.columns["close"] = ColumnStats(100.123456789, 3.14159, False)
    stats.columns["flat"] = ColumnStats(5.0, 0.0, True)
    return Preprocess(
        config=PipelineConfig(window=6, horizon=2),
        split=SplitSpec(0.7, 0.15, 0.15),
        market_cols=["close", "flat"], sentiment_cols=["pos", "neg", "compound"],
        static_cols=["profit"], policy_vocab=["hike", "cut"],
        stats=stats, y_min=0.001234, y_max=0.0456,
    )


class TestModelPersistence:
    def test_hybrid_roundtrip_is_bit_exact(self, tmp_path):
        model = tiny_hybrid(seed=86)
        model.preprocess = _sample_preprocess()
        path = tmp_path / "model.rcm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "hybrid"
        assert loaded.dims == model.dims
        assert loaded.dropout.p == model.dropout.p
        for name in model.params():
            assert np.array_equal(loaded.params()[name], model.params()[name])
        assert loaded.preprocess == model.preprocess

    def test_save_load_save_produces_identical_bytes(self, tmp_path):
        model = tiny_hybrid(seed=87)
        model.preprocess = _sample_preprocess()
        p1, p2 = tmp_path / "a.rcm", tmp_path / "b.rcm"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_linear_roundtrip(self, tmp_path):
        rng = SeededRng(88)
        model = LinearRegressionModel(rng.normals(12), -0.75, 1e-8)
        path = tmp_path / "linear.rcm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "linear"
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias[0] == model.bias[0]
        assert loaded.ridge_lambda == model.ridge_lambda

    def test_truncated_file_reports_truncation(self, tmp_path):
        model = tiny_hybrid(seed=89)
        path = tmp_path / "model.rcm"
        save_model(model, path)
        content = path.read_text().splitlines()
        (tmp_path / "cut.rcm").write_text("\n".join(content[: len(content) // 2]))
        with pytest.raises(ModelIOError, match="truncated"):
            load_model(tmp_path / "cut.rcm")

    def test_version_mismatch_names_expected_magic(self, tmp_path):
        path = tmp_path / "bad.rcm"
        path.write_text("RISKCAST-MODEL v9\nkind hybrid\nend\n")
        with pytest.raises(ModelIOError, match="RISKCAST-MODEL v1"):
            load_model(path)

    def test_predictions_identical_after_roundtrip(self, tmp_path):
        dims = tiny_dims()
        model = tiny_hybrid(seed=90)
        samples = random_samples(100, dims, seed=91)
        before = prediction_scores(model, samples)
        path = tmp_path / "model.rcm"
        save_model(model, path)
        after = prediction_scores(load_model(path), samples)
        assert np.array_equal(before, after)
