"""The leak-free, date-anchored and deterministic claims as one table of
metamorphic properties.

Each row of ``PROPERTIES`` edits the 2000-day, seed-7 dataset in a named way,
runs the CLI in-process on the edited copy, and checks a stated relation
between its output and the unedited run's, with the linear baseline:

- ``shared predictions``: ``predict`` with the model fitted on the unedited
  data gives bitwise the same score on every day both runs score;
- ``same model``: ``train --baseline linreg`` writes a byte-identical model
  file;
- ``unseen by training``: the same model file, though the unedited model's
  predictions show that the edit reached the features;
- ``same model as`` another edit: the two edited copies give byte-identical
  model files;
- ``same test block``: ``evaluate`` of the unedited model scores as many
  test samples;
- ``refused``: ``train --baseline linreg`` and ``predict`` with the unedited
  model each exit 3, write no file, and print one stderr line, an error
  naming the feature column that is not finite and its date, and no warning.

A row that fails today is marked expected-to-fail, strictly, with a reason
that names the ROADMAP item that mends it; that change removes the mark.
"""

import contextlib
import datetime as dt
import io
import warnings
from itertools import groupby

import pytest

from riskcast.cli import main
from riskcast.data_io import DATA_FILES


def _run(*argv) -> str:
    """``riskcast argv`` in this process; its stdout, after checking it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0
    return out.getvalue()


def _train(data, out) -> bytes:
    _run("train", "--data", str(data), "--baseline", "linreg", "--out", str(out))
    return out.read_bytes()


def _predictions(data, model, out) -> dict[str, str]:
    """Each scored day's ``risk_score`` field, by date."""
    _run("predict", "--data", str(data), "--model", str(model), "--out", str(out))
    return dict(line.split(",") for line in out.read_text().splitlines()[1:])


def _test_samples(data, model) -> int:
    out = _run("evaluate", "--data", str(data), "--model", str(model))
    return int(next(line for line in out.splitlines() if line.startswith("samples: "))[9:])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The unedited dataset, its linear model and the model's predictions."""
    root = tmp_path_factory.mktemp("base")
    data = root / "data"
    _run("gen-data", "--days", "2000", "--seed", "7", "--out", str(data))
    model = root / "linear.rcm"
    _train(data, model)
    return data, model, _predictions(data, model, root / "predictions.csv")


# Edits of the data files: each maps a file's lines, header first, to new lines.

def _cut_after(last_day):
    def edit(name, lines):
        return lines[:1] + [line for line in lines[1:] if line[:10] <= last_day]
    return edit


def _market_columns(rows, columns, factor):
    """Multiply ``columns`` of the market file's data ``rows`` (a slice) by ``factor``."""
    def edit(name, lines):
        if name != "market.csv":
            return lines
        header = lines[0].split(",")
        at = [header.index(column) for column in columns]
        body = lines[1:]
        for i in range(len(body))[rows]:
            fields = body[i].split(",")
            for j in at:
                fields[j] = repr(float(fields[j]) * factor)
            body[i] = ",".join(fields)
        return lines[:1] + body
    return edit


def _news_texts_of_last(count, text):
    def edit(name, lines):
        if name != "news.csv":
            return lines
        return lines[:-count] + [line[:11] + text for line in lines[-count:]]
    return edit


def _drop_market_rows(count):
    def edit(name, lines):
        return lines[:1] + lines[1 + count:] if name == "market.csv" else lines
    return edit


def _reverse_news_within_days(name, lines):
    if name != "news.csv":
        return lines
    days = [list(items) for _, items in groupby(lines[1:], key=lambda line: line[:10])]
    return lines[:1] + [line for items in days for line in reversed(items)]


def _reverse_news_file(name, lines):
    return lines[:1] + lines[:0:-1] if name == "news.csv" else lines


def _policy_event_on_last_day(category):
    def edit(name, lines):
        return lines + [f"{lines[-1][:10]},{category}"] if name == "policy.csv" else lines
    return edit


def _weekend_items(name, lines):
    """A news item and an event of the file's first category on every
    Saturday and Sunday between its first and last date."""
    if name not in ("news.csv", "policy.csv"):
        return lines
    first, last = (dt.date.fromisoformat(line[:10]) for line in (lines[1], lines[-1]))
    label = "crash collapse crisis bankruptcy markets" if name == "news.csv" else lines[1][11:]
    days = (first + dt.timedelta(days=i) for i in range((last - first).days))
    return lines + [f"{day},{label}" for day in days if day.weekday() >= 5]


def _edited(data, out, edit):
    out.mkdir()
    for name in DATA_FILES:
        lines = (data / name).read_text().splitlines()
        (out / name).write_text("".join(line + "\n" for line in edit(name, lines)))
    return out


# Relations between the unedited run and the edited one.

def _shared_predictions(base, data, tmp_path):
    _, model, reference = base
    edited = _predictions(data, model, tmp_path / "predictions.csv")
    shared = edited.keys() & reference.keys()
    assert len(shared) == len(edited) == 1743
    assert {day: edited[day] for day in shared} == {day: reference[day] for day in shared}


def _same_model(base, data, tmp_path):
    assert _train(data, tmp_path / "linear.rcm") == base[1].read_bytes()


def _unseen_by_training(base, data, tmp_path):
    _, model, reference = base
    assert _predictions(data, model, tmp_path / "predictions.csv") != reference
    _same_model(base, data, tmp_path)


def _same_model_as(other_edit):
    """The model file of ``other_edit``'s data."""
    def relation(base, data, tmp_path):
        other = _edited(base[0], tmp_path / "other", other_edit)
        assert _train(data, tmp_path / "linear.rcm") == _train(other, tmp_path / "other.rcm")
    return relation


def _same_test_block(base, data, tmp_path):
    base_data, model, _ = base
    assert _test_samples(data, model) == _test_samples(base_data, model)


def _refused(column, day):
    """Both commands refuse the edit, naming ``column`` on ``day``."""
    def relation(base, data, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for argv in (["train", "--baseline", "linreg", "--out", str(out / "linear.rcm")],
                     ["predict", "--model", str(base[1]), "--out", str(out / "p.csv")]):
            with contextlib.redirect_stderr(io.StringIO()) as err, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([*argv, "--data", str(data)]) == 3
            assert [str(w.message) for w in caught] == []
            assert err.getvalue().splitlines() == [
                f"riskcast: error: feature {column!r} is not finite on {day}, "
                "inside the history"]
            assert list(out.iterdir()) == []
    return relation


# (id, edit, relation, reason it fails today or None).
PROPERTIES = [
    ("causality-cut-every-file-at-2021-12-31",
     _cut_after("2021-12-31"), _shared_predictions, None),
    ("isolation-last-20-closes-times-1.37",
     _market_columns(slice(-20, None), ["close"], 1.37), _unseen_by_training, None),
    ("isolation-new-texts-for-last-200-news-items",
     _news_texts_of_last(200, "crash collapse crisis bankruptcy markets"), _unseen_by_training,
     None),
    ("isolation-new-policy-category-on-last-day",
     _policy_event_on_last_day("capital_controls"), _same_model,
     "ROADMAP item 2f: the policy vocabulary is taken from every event, the test block's "
     "included"),
    ("anchoring-drop-first-300-market-rows",
     _drop_market_rows(300), _same_test_block,
     "ROADMAP item 2a: the test block is a share of the rows, not anchored to a date, "
     "so it shrinks from 289 to 244 samples"),
    ("order-reverse-news-rows-within-each-day",
     _reverse_news_within_days, _same_model,
     "ROADMAP item 10: daily sentiment means are summed in file order"),
    ("isolation-news-and-policy-on-weekends", _weekend_items, _same_model, None),
    ("order-news-file-reversed-as-within-day-reversal",
     _reverse_news_file, _same_model_as(_reverse_news_within_days), None),
    ("interior-close-2018-11-01-times-1e-302",
     _market_columns(slice(999, 1000), ["close"], 1e-302), _refused("rvol", "2018-11-02"), None),
    ("scale-open-and-close-times-10",
     _market_columns(slice(None), ["open", "close"], 10.0), _same_model,
     "ROADMAP item 11: z-scoring price levels is scale-free only in exact arithmetic"),
]


@pytest.mark.parametrize("edit, relation", [
    pytest.param(edit, relation, id=name,
                 marks=[pytest.mark.xfail(strict=True, reason=reason)] if reason else [])
    for name, edit, relation, reason in PROPERTIES])
def test_property(base, tmp_path, edit, relation):
    relation(base, _edited(base[0], tmp_path / "data", edit), tmp_path)
