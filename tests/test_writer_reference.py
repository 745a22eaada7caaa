"""The column-wise CSV writers against the per-row writers they replaced.

The reference functions below write one ``csv.writer`` row per data row,
formatting each date with ``date.isoformat()`` and each float with
``repr(float(...))``.  The writers under test format slices of whole columns
at once, so their files are compared with the references' byte for byte.
"""

import csv
import datetime as dt

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
# csv quoting: a comma, a double quote and a newline, alone and together.
TEXTS = ["plain words", "gains, losses", 'a "strong" rally', "first line\nsecond line",
         'all, "three"\nat once', ""]


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
