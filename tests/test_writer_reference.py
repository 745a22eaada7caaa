"""The column-wise CSV writers against the per-row writers they replaced.

The reference functions below write one ``csv.writer`` row per data row,
formatting each date with ``date.isoformat()`` and each float with
``repr(float(...))``.  The writers under test format slices of whole columns
at once, so their files are compared with the references' byte for byte.
Their two array formatters are also checked on their own: floats against
``repr`` on edge values and a million random bit patterns, dates against
``np.datetime_as_string`` on every ordinal a ``datetime.date`` holds.
"""

import csv
import datetime as dt
import decimal
import tracemalloc

import numpy as np
import pytest

from conftest import dated_labels
from riskcast import data_io
from riskcast.data_io import (
    write_frame_csv,
    write_news_csv,
    write_policy_csv,
    write_predictions_csv,
)
from riskcast.frames import TimeSeriesFrame, day_numbers

# ---------------------------------------------------------------------------
# Per-row references
# ---------------------------------------------------------------------------


def ref_write_frame_csv(frame, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        names = frame.column_names
        writer.writerow(["date", *names])
        for i, day in enumerate(frame.dates):
            writer.writerow([day.isoformat(), *(repr(float(frame.columns[n][i])) for n in names)])


def ref_write_news_csv(items, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "text"])
        for day, text in items:
            writer.writerow([day.isoformat(), text])


def ref_write_policy_csv(events, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "category"])
        for day, category in events:
            writer.writerow([day.isoformat(), category])


def ref_write_predictions_csv(predictions, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "risk_score"])
        for day, score in predictions:
            writer.writerow([day.isoformat(), repr(score)])


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

# Signed zero, the smallest subnormal, the smallest normal, a sum that
# repr shows with 17 digits, 1e16 (the first power of ten repr writes in
# exponent form), 1e22 (the last one a float holds exactly) and the largest
# finite float.
VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 1e16, 1e22,
          1.7976931348623157e308]
# The first and last dates a ``datetime.date`` holds, and the two days
# either side of the ``datetime64`` epoch.
DATES = [dt.date(1, 1, 1), dt.date(1969, 12, 31), dt.date(1970, 1, 1), dt.date(9999, 12, 31)]
# Increasing, seven of them: one per value.
FRAME_DATES = [DATES[0], dt.date(1, 1, 2), DATES[1], DATES[2], dt.date(2000, 2, 29),
               dt.date(9999, 12, 30), DATES[3]]
# csv quoting: a comma, a double quote and a newline, alone and together;
# then text whose bytes outnumber its characters.
TEXTS = ["plain words", "gains, losses", 'a "strong" rally', "first line\nsecond line",
         'all, "three"\nat once', "", "naïve rally, 日本 — up"]


@pytest.fixture(autouse=True, params=[2, data_io._ROWS_PER_WRITE], ids=lambda n: f"rows{n}")
def rows_per_write(request, monkeypatch):
    """Each comparison runs with slices of two rows too, so rows cross slice boundaries."""
    monkeypatch.setattr(data_io, "_ROWS_PER_WRITE", request.param)


def _from_pairs(write):
    """``write`` (a news or policy writer) taking ``(date, label)`` pairs, as the references do."""
    return lambda pairs, path: write(dated_labels(pairs), path)


def _assert_same_bytes(tmp_path, write, ref_write, data):
    write(data, tmp_path / "got.csv")
    ref_write(data, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("frame", [
    TimeSeriesFrame(day_numbers(FRAME_DATES), {
        "value": VALUES,
        "negated": [-v for v in VALUES],
        "special": [float("nan"), float("inf"), float("-inf"), 0.0, 1.0, -1.5, 1e-7],
    }),
    TimeSeriesFrame(day_numbers(DATES[3:]), {"close": VALUES[-1:]}),
    TimeSeriesFrame(day_numbers(DATES), {}),
], ids=["edge-values", "one-row", "no-columns"])
def test_frame_writer_matches_per_row_reference(tmp_path, frame):
    _assert_same_bytes(tmp_path, write_frame_csv, ref_write_frame_csv, frame)


@pytest.mark.parametrize("items", [
    [(day, text) for day in DATES for text in TEXTS],
    [(DATES[2], 'one, "quoted"\nitem')],
    [],
], ids=["edge-dates-and-quoting", "one-row", "empty"])
def test_news_writer_matches_per_row_reference(tmp_path, items):
    _assert_same_bytes(tmp_path, _from_pairs(write_news_csv), ref_write_news_csv, items)


def test_policy_writer_matches_per_row_reference(tmp_path):
    events = [(day, category) for day in DATES for category in ("rate_cut", "stimulus")]
    write = _from_pairs(write_policy_csv)
    _assert_same_bytes(tmp_path, write, ref_write_policy_csv, events)
    _assert_same_bytes(tmp_path, write, ref_write_policy_csv, [])


def test_predictions_writer_matches_per_row_reference(tmp_path):
    predictions = [(day, value) for day in DATES for value in VALUES]
    _assert_same_bytes(tmp_path, write_predictions_csv, ref_write_predictions_csv, predictions)
    _assert_same_bytes(tmp_path, write_predictions_csv, ref_write_predictions_csv, [])


def test_random_frame_matches_per_row_reference(tmp_path):
    """Rows past several slices, with the values of generated data and some of
    every kind that goes through ``repr`` one at a time."""
    rng = np.random.default_rng(32)
    n = 5000
    special = rng.choice([0.0, -0.0, 5e-324, float("nan"), float("-inf"), 1e300, 1.5e-7], n)
    frame = TimeSeriesFrame(np.sort(rng.choice(np.arange(1, 3_652_060), n, replace=False)), {
        "close": 100 * np.exp(np.cumsum(rng.normal(0, 0.01, n))),
        "volume": rng.lognormal(14, 0.35, n),
        "mixed": np.where(rng.random(n) < 0.05, special, rng.normal(0, 1, n)),
    })
    _assert_same_bytes(tmp_path, write_frame_csv, ref_write_frame_csv, frame)


# ---------------------------------------------------------------------------
# The array formatters on their own
# ---------------------------------------------------------------------------


def _assert_repr(values) -> None:
    """The lines the writers make of ``values``, a writer slice at a time, are ``repr``'s."""
    values = np.asarray(values, dtype=np.float64)
    got = b"".join(data_io._csv_lines([data_io._float_cells(values[start:start + 4096])])
                   for start in range(0, values.size, 4096)).decode().split("\n")[:-1]
    want = list(map(repr, values.tolist()))
    if got != want:
        assert len(got) == len(want)
        assert [(w, g) for w, g in zip(want, got) if w != g][:10] == []


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))


class TestArrayFormatters:
    """The formatters see whole slices, whatever their size."""

    @pytest.fixture(autouse=True)
    def rows_per_write(self):
        """The module's slice sizes do not reach the formatters: run once."""

    @pytest.mark.parametrize("values", [
        np.concatenate([POWERS_OF_TWO, np.nextafter(POWERS_OF_TWO, np.inf),
                        np.nextafter(POWERS_OF_TWO, 0.0)]),
        [float(f"1e{e}") for e in range(-320, 309)],
        [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 0.0, -0.0, 5e-324,
         2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
         float("nan"), float("inf"), float("-inf")],
    ], ids=["powers-of-two-and-neighbours", "powers-of-ten", "switches-and-specials"])
    def test_float_cells_match_repr_on_edge_values(self, values):
        values = np.asarray(values, dtype=np.float64)
        _assert_repr(values)
        _assert_repr(-values)

    def test_float_cells_match_repr_on_random_bit_patterns(self):
        bits = np.random.default_rng(1).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        values = bits.view(np.float64)
        _assert_repr(values[np.isfinite(values)])

    def test_shortest_digits_are_repr_digits_in_every_binade(self):
        """The digit core on its own, also for values that ``repr`` writes in
        exponent form: at a power of two the interval below is half as wide."""
        normal = np.nextafter(np.ldexp(1.0, np.arange(-1022, 1024)), 0.0)[1:]
        random = np.random.default_rng(2).integers(2**52, 2047 * 2**52, 100_000, dtype=np.uint64)
        values = np.concatenate([POWERS_OF_TWO[52:], np.nextafter(POWERS_OF_TWO[52:], np.inf),
                                 normal, random.view(np.float64)])
        digits, k = data_io._shortest_digits(values)
        for value, d, e in zip(values.tolist(), digits.tolist(), k.tolist()):
            want = decimal.Decimal(repr(value)).normalize()
            assert decimal.Decimal(d).scaleb(e).normalize() == want, value

    def test_shortest_digits_keep_an_integer_below_2_53_whole(self):
        """An integer below 2^53 is its own digits with no exponent, even with
        trailing zeros."""
        integers = np.array([1, 2, 10, 100, 120, 2**52 - 1, 2**52 + 2, 2**53 - 2,
                             10**15, 9 * 10**15, 3**33, 4503599627370500])
        digits, k = data_io._shortest_digits(integers.astype(np.float64))
        assert digits.tolist() == integers.tolist()
        assert not k.any()

    def test_date_cells_match_datetime_as_string_on_every_ordinal(self):
        days = np.arange(1, dt.date.max.toordinal() + 1)
        epoch = dt.date(1970, 1, 1).toordinal()
        want = np.datetime_as_string((days - epoch).astype("datetime64[D]")).astype("S10")
        got = data_io._date_cells(days).reshape(-1).view("S10")
        assert np.array_equal(got, want)


def _write_peak(tmp_path, n_rows: int) -> int:
    rng = np.random.default_rng(n_rows)
    frame = TimeSeriesFrame(np.arange(1, n_rows + 1) + 730_000,
                            {name: rng.normal(100, 5, n_rows) for name in ("a", "b", "c")})
    tracemalloc.start()
    try:
        write_frame_csv(frame, tmp_path / f"{n_rows}.csv")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    @pytest.fixture(autouse=True)
    def rows_per_write(self):
        """At the writers' own slice size only."""

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        """Each slice of rows is formatted, joined and written before the next.
        A first write builds Schubfach's table of g, which outlives it."""
        assert data_io._ROWS_PER_WRITE == 4096
        _write_peak(tmp_path, 1)
        assert _write_peak(tmp_path, 20_000) <= 2 * _write_peak(tmp_path, 4096)
