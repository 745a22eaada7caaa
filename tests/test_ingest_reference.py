"""The columnar CSV loaders and batched news scorer against per-row references.

The reference functions below are the per-row loaders and the per-item
scorer the read path used before it worked on whole columns.  Loaded frames
and scores are compared bitwise (``tobytes``), news and policy day by day
and label by label, and every rejected file must raise the reference's
exact message: a bad file is reported at its first bad row in file order,
with the csv line number (blank lines and the lines of quoted multi-line
fields count).

Each file is tokenized once, by the one tokenizer its bytes choose:
``csv.reader`` for a file with a quote, a CR or a line longer than
``csv.field_size_limit()``, and a byte tokenizer that bounds fields at LF
and ``,`` for any other.  Both give one parser the same rows, whose fields
it reads in array passes; a field those cannot settle is read on its own,
and a file is never handed to a second tokenizer.  Both tokenizers are
checked against the references, down to the line each row ends on, and a
rejected file is opened only once.
"""

import builtins
import csv
import datetime as dt
import decimal
import fractions
import itertools
import math
import os
import random
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import label_pairs
from riskcast import SchemaError, SentimentLexicon, TimeSeriesFrame, default_lexicon
from riskcast import data_io
from riskcast.cli import main
from riskcast.errors import read_bytes
from riskcast.data_io import (
    load_financial_csv,
    load_macro_csv,
    load_market_csv,
    load_news_csv,
    load_policy_csv,
)
from riskcast.features import (
    _SCORE_CHUNK,
    _home_slots,
    _term_table,
    sentiment_score,
    sentiment_scores,
)
from riskcast.frames import TextColumn, day_numbers

# ---------------------------------------------------------------------------
# Per-row references
# ---------------------------------------------------------------------------


def _ref_read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            rows = [(reader.line_num, row) for row in reader if row]
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    return [name.strip() for name in header], rows


_REF_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _ref_parse_date(token, path, lineno):
    """The documented date rule: ``YYYY-MM-DD`` in ASCII digits once surrounding
    whitespace is stripped, a Gregorian date from year 1."""
    text = token.strip()
    try:
        if not _REF_DATE_RE.fullmatch(text):
            raise ValueError(f"Invalid isoformat string: {text!r}")
        return dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: unparseable date {token!r}: {exc}") from exc


def _ref_parse_float(token, column, path, lineno):
    """The documented value rule: an ASCII decimal float, without the digit-group
    underscores that ``float`` also takes."""
    try:
        if not token.isascii() or "_" in token:
            raise ValueError(f"not an ASCII decimal float: {token!r}")
        return float(token)
    except ValueError as exc:
        raise SchemaError(
            f"{path}:{lineno}: unparseable value {token!r} in column {column!r}"
        ) from exc


def ref_load_numeric_csv(path, required):
    header, rows = _ref_read_rows(path)
    if not header or header[0] != "date":
        raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise SchemaError(f"{path}: header repeats column names {repeated}")
    for column in required:
        if column not in header[1:]:
            raise SchemaError(f"{path}: missing required column {column!r}")
    value_names = header[1:]
    parsed = []
    for lineno, row in rows:
        if len(row) != len(header):
            raise SchemaError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        day = _ref_parse_date(row[0], path, lineno)
        values = [
            _ref_parse_float(tok, name, path, lineno)
            for name, tok in zip(value_names, row[1:])
        ]
        parsed.append((day, values))
    if not parsed:
        raise SchemaError(f"{path}: no data rows")
    days = [day for day, _ in parsed]
    if len(set(days)) != len(days):
        dupes = sorted({d for d in days if days.count(d) > 1})
        raise SchemaError(f"{path}: duplicate dates "
                          f"{', '.join(day.isoformat() for day in dupes[:5])}")
    matrix = np.array([values for _, values in parsed])
    finite = np.isfinite(matrix)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise SchemaError(f"{path}:{rows[row][0]}: non-finite value {float(matrix[row, col])} "
                          f"in column {value_names[col]!r}")
    if any(days[i] > days[i + 1] for i in range(len(days) - 1)):
        warnings.warn(f"{path}: rows are out of date order; loading sorted", stacklevel=2)
        order = sorted(range(len(days)), key=days.__getitem__)
        days, matrix = [days[i] for i in order], matrix[order]
    return TimeSeriesFrame(day_numbers(days),
                           {name: matrix[:, i] for i, name in enumerate(value_names)})


def ref_load_news_csv(path):
    header, rows = _ref_read_rows(path)
    if header != ["date", "text"]:
        raise SchemaError(f"{path}: expected header date,text, got {header}")
    items = []
    for lineno, row in rows:
        if len(row) != 2:
            raise SchemaError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        items.append((_ref_parse_date(row[0], path, lineno), row[1]))
    return items


def ref_load_policy_csv(path):
    header, rows = _ref_read_rows(path)
    if header != ["date", "category"]:
        raise SchemaError(f"{path}: expected header date,category, got {header}")
    events = []
    for lineno, row in rows:
        if len(row) != 2:
            raise SchemaError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        events.append((_ref_parse_date(row[0], path, lineno), row[1].strip()))
    return events


_REF_TOKEN_RE = re.compile(r"[a-z0-9]+")


def ref_sentiment_score(text, lexicon):
    tokens = _REF_TOKEN_RE.findall(text.lower())
    if not tokens:
        return (0.0, 0.0, 1.0, 0.0)
    n_pos = sum(map(lexicon.positive.__contains__, tokens))
    n_neg = sum(map(lexicon.negative.__contains__, tokens))
    pos = n_pos / len(tokens)
    neg = n_neg / len(tokens)
    neu = 1.0 - (pos + neg)
    compound = (n_pos - n_neg) / (n_pos + n_neg + 1)
    return (pos, neg, neu, compound)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

NUMERIC = {
    "market.csv": (load_market_csv, ("open", "close", "volume")),
    "financial.csv": (load_financial_csv, ("profit", "debt_ratio", "cash_flow")),
    "macro.csv": (load_macro_csv, ("gdp", "cpi", "interest_rate")),
}
LOADERS = {
    **{name: (new, lambda path, req=req: ref_load_numeric_csv(path, req))
       for name, (new, req) in NUMERIC.items()},
    "news.csv": (load_news_csv, ref_load_news_csv),
    "policy.csv": (load_policy_csv, ref_load_policy_csv),
}


def _assert_frames_bitwise(got, want):
    assert got.dates == want.dates
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got.column(name).tobytes() == want.column(name).tobytes(), name


def _assert_same_load(path):
    new, ref = LOADERS[path.name]
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = new(path)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = ref(path)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    if isinstance(want, TimeSeriesFrame):
        _assert_frames_bitwise(got, want)
    else:
        assert label_pairs(got) == want
        assert got.days.tobytes() == day_numbers([day for day, _ in want]).tobytes()
    return got


def _assert_same_scores(texts, lexicon):
    got = sentiment_scores(texts, lexicon)
    want = np.array([ref_sentiment_score(t, lexicon) for t in texts],
                    dtype=np.float64).reshape(len(texts), 4)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for text, row in zip(texts[:50], want):
        assert tuple(sentiment_score(text, lexicon)) == tuple(row)


def _assert_column_scores(news, lexicon):
    """The scores of ``news.texts``, a list or a :class:`TextColumn`, are
    bitwise the reference's of its labels, as are those of an item subset
    that leaves gaps of one, two and many items."""
    labels = news.labels
    want = np.array([ref_sentiment_score(t, lexicon) for t in labels],
                    dtype=np.float64).reshape(len(labels), 4)
    assert sentiment_scores(news.texts, lexicon).tobytes() == want.tobytes()
    keep = np.ones(len(news), dtype=bool)
    keep[1::3] = keep[2::7] = False
    keep[len(keep) // 2:len(keep) // 2 + 50] = False
    subset = news.select(keep)
    assert type(subset.texts) is type(news.texts)
    assert subset.labels == list(itertools.compress(labels, keep))
    assert subset.days.tobytes() == news.days[keep].tobytes()
    assert sentiment_scores(subset.texts, lexicon).tobytes() == want[keep].tobytes()


def _write(path, text, newline="\n"):
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return path


# ---------------------------------------------------------------------------
# Generated bundles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("days,seed", [(20000, 7), (2000, 7), (300, 7)])
def test_generated_bundle_loads_and_scores_bitwise(tmp_path, days, seed):
    assert main(["gen-data", "--days", str(days), "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    for name in LOADERS:
        _assert_same_load(tmp_path / name)
    news = load_news_csv(tmp_path / "news.csv")
    assert len(news) > _SCORE_CHUNK or days < 20000
    assert isinstance(news.texts, TextColumn)
    _assert_same_scores(news.labels, default_lexicon())
    _assert_column_scores(news, default_lexicon())
    data_io.write_news_csv(news, tmp_path / "rewritten.csv")
    assert (tmp_path / "rewritten.csv").read_bytes() == (tmp_path / "news.csv").read_bytes()


# ---------------------------------------------------------------------------
# Hand-written files
# ---------------------------------------------------------------------------

RFC_NEWS = (
    "date,text\n"
    "2021-03-01,\"gains, then losses\"\n"
    "2021-03-01,\"the \"\"strong\"\" rally\"\n"
    "2021-03-02,\"first line\nsecond line, with a comma\n\nfourth \"\"line\"\"\"\n"
    "\n"
    "2021-03-03,plain text\n"
    "2021-03-04,\"\"\n"
    "2021-03-05,\"  padded  \"\n"
)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_rfc4180_news_loads_like_the_reference(tmp_path, newline):
    path = _write(tmp_path / "news.csv", RFC_NEWS, newline)
    news = _assert_same_load(path)
    _assert_readers_agree(path)
    assert len(news) == 6
    assert news.labels[2].startswith("first line")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_blank_lines_and_padded_dates_load_like_the_reference(tmp_path, newline):
    _assert_same_load(_write(tmp_path / "market.csv", (
        " date , open ,close,volume,extra\n"
        "\n"
        " 2021-03-01 ,1.5,2.25, 3 ,1000.\n"
        "\n"
        "\n"
        "2021-03-02\t, -0.0 ,1e-310,4e2,+7\n"
        "2021-03-03,0.1,0.30000000000000004,1.7976931348623157e308,-2.5E-3\n"
    ), newline))
    _assert_same_load(_write(tmp_path / "policy.csv", (
        "date,category\n"
        "  2021-03-01,  rate_hike  \n"
        "\n"
        "2021-03-04 ,\"tax, reform\"\n"
    ), newline))
    _assert_same_load(_write(tmp_path / "macro.csv",
                             "date,gdp,cpi,interest_rate\n2021-01-01,1,2,3\n", newline))


def test_out_of_order_file_warns_and_loads_sorted_like_the_reference(tmp_path):
    path = _write(tmp_path / "financial.csv", (
        "date,profit,debt_ratio,cash_flow\n"
        "2021-06-30,3.0,0.3,30.0\n"
        "2021-03-31,1.0,0.1,10.0\n"
        "\n"
        "2021-09-30,4.0,0.4,40.0\n"
        "2021-01-31,0.5,0.05,5.0\n"
    ))
    frame = _assert_same_load(path)
    assert frame.dates == sorted(frame.dates)
    assert list(frame.column("profit")) == [0.5, 1.0, 3.0, 4.0]


def test_header_only_news_and_policy_load_empty(tmp_path):
    assert len(_assert_same_load(_write(tmp_path / "news.csv", "date,text\n"))) == 0
    assert len(_assert_same_load(_write(tmp_path / "policy.csv", "date,category\n\n"))) == 0


# ---------------------------------------------------------------------------
# The two tokenizers
# ---------------------------------------------------------------------------

_CSV_FIELDS = data_io._csv_fields
# A field size limit small enough for short test lines: "2021-03-01," and 53
# more characters make a line of exactly this length.
_SMALL_LIMIT = 64


@pytest.fixture
def csv_reads(monkeypatch):
    """The paths that the loaders hand to the ``csv.reader`` tokenizer, in call order."""
    calls = []

    def spy(path, data):
        calls.append(path)
        return _CSV_FIELDS(path, data)

    monkeypatch.setattr(data_io, "_csv_fields", spy)
    return calls


@pytest.fixture
def small_field_limit():
    old = csv.field_size_limit(_SMALL_LIMIT)
    yield
    csv.field_size_limit(old)


def _assert_same_outcome(path):
    """The loader of ``path`` loads what its reference loads, or raises the
    reference's message."""
    new, ref = LOADERS[path.name]
    try:
        ref(path)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            new(path)
        assert str(got.value) == str(exc)
    else:
        _assert_same_load(path)


def _decoded(rows):
    """The header, the decoded fields row after row, the row widths and the
    row lines of a tokenizer's rows."""
    fields = [field for i in range(len(rows.widths)) for field in rows.row(i)]
    return rows.header, fields, rows.widths, rows.lines


def _read_fields(path):
    """The decoded rows of one read of the file, from the tokenizer its bytes choose."""
    return _decoded(data_io._rows(path, read_bytes(path, SchemaError)))


def _assert_readers_agree(path):
    """The chosen tokenizer and ``csv.reader``'s give the reference's header,
    fields, row widths and row lines (``reader.line_num`` after each row)."""
    header, rows = _ref_read_rows(path)
    want = (header, [field for _, row in rows for field in row], [len(row) for _, row in rows])
    want_lines = [line for line, _ in rows]
    got_header, got_fields, got_widths, got_lines = _read_fields(path)
    assert got_widths.dtype == np.int64
    assert (got_header, got_fields, got_widths.tolist()) == want
    assert got_lines.tolist() == want_lines
    csv_header, csv_fields, csv_widths, csv_lines = _decoded(
        _CSV_FIELDS(path, read_bytes(path, SchemaError)))
    assert ([name.strip() for name in csv_header], csv_fields, csv_widths.tolist()) == want
    assert csv_lines.tolist() == want_lines


@pytest.mark.parametrize("text, reader", [
    ("date,text\n2021-03-01,plain words\n\n2021-03-02,\x00 \u2028 \x85 é\n", "split"),
    ("date,text\n2021-03-01," + "x" * 53 + "\n", "split"),
    ('date,text\n2021-03-01,"quoted, with a comma"\n', "csv"),
    ('date,text\n2021-03-01,a bare " quote\n', "csv"),
    ("date,text\r\n2021-03-01,crlf\r\n", "csv"),
    ("date,text\n2021-03-01,a bare CR ends a row\r2021-03-02,x\n", "csv"),
    ("date,text\n2021-03-01," + "x" * 54 + "\n", "csv"),
    ("date,text" + " " * 60 + "\n2021-03-01,x\n", "csv"),
    ("date,text\n2021-03-01,x\n2021-03-02," + "x" * 65 + "\n", "csv"),
    ("date,text\n2021-03-01," + "é" * 53 + "\n", "split"),
    ("date,text\n2021-03-01," + "é" * 54 + "\n", "csv"),
], ids=["plain", "line-at-the-limit", "quoted-field", "bare-quote", "crlf", "bare-cr",
        "line-over-the-limit", "header-over-the-limit", "field-over-the-limit",
        "multi-byte-line-at-the-limit", "multi-byte-line-over-the-limit"])
def test_each_file_takes_the_reader_its_contents_choose(tmp_path, csv_reads, small_field_limit,
                                                         text, reader):
    """A file with a quote, a CR or a line longer than the field size limit
    goes to ``csv.reader``; any other to the byte tokenizer.  The limit
    counts characters, so a line of 64 two-byte characters takes the byte
    tokenizer.  Either way the file loads like the reference, and only a
    field over the limit is refused, at its line."""
    path = _write(tmp_path / "news.csv", text)
    _assert_same_outcome(path)
    assert csv_reads == ([path] if reader == "csv" else [])
    if reader == "split":
        _assert_readers_agree(path)
    if "x" * 65 in text:
        with pytest.raises(SchemaError, match=rf"^{path}:3: field larger than field limit \(64\)$"):
            load_news_csv(path)
    else:
        assert len(load_news_csv(path)) > 0


# Field pieces with no quote, comma or CR: padding, NUL, non-ASCII text and
# characters that str.splitlines (but not a CSV reader) takes for line ends.
_PIECES = ("", " ", "  ", "\t", "x", "gain", "loss", "é", "日本", "—", "\x00", "\u2028",
           "\x85", "\x0b", "\x0c", "\x1c", "2021-03-01", " 2021-03-02", "1.5", "nan", "1_000")
_NUMBERS = ("1.5", " 2 ", "-0.0", "1e-310", "0.1", "0.30000000000000004", "+7", "3.",
            ".5", "1E3", "1.7976931348623157e308")
# float() takes the last two; a value must be ASCII and hold no underscore.
_BAD_NUMBERS = ("oops", "", "nan", "-inf", "1e500", "0x10", "1_000", "\u20034")


def _random_plain_text(rng: random.Random) -> str:
    """An unquoted CSV text with no CR: a header and up to 11 rows of 1 to 5
    fields, most as wide as the header, some blank, with or without a final LF."""
    width = rng.randint(1, 5)

    def row(n_fields):
        return ",".join("".join(rng.choices(_PIECES, k=rng.randrange(4)))
                        for _ in range(n_fields))

    lines = [row(width)]
    for _ in range(rng.randrange(12)):
        if rng.random() < 0.2:
            lines.append("")
        else:
            lines.append(row(width if rng.random() < 0.8 else rng.randint(1, width + 2)))
    text = "\n".join(lines)
    return text if rng.random() < 0.3 else text + "\n"


def _random_loader_text(rng: random.Random, name: str) -> str:
    """An unquoted ``name`` file: its header, then up to 39 dated rows (some
    blank, padded or bad), with or without a final LF."""
    header = {"news.csv": "date,text", "policy.csv": " date , category ",
              "financial.csv": "date,profit,debt_ratio,cash_flow"}[name]
    n_values = header.count(",")
    day = dt.date(2021, 1, 1)
    lines = [header]
    for _ in range(rng.randrange(40)):
        if rng.random() < 0.1:
            lines.append("")
            continue
        day += dt.timedelta(days=rng.randrange(3) + (name == "financial.csv"))
        date = rng.choice(("{}", " {} ", "{}\t")).format(day)
        if rng.random() < 0.01:
            date = "2021-02-30"
        if name == "financial.csv":
            pool = _BAD_NUMBERS if rng.random() < 0.01 else _NUMBERS
            values = [rng.choice(pool) for _ in range(n_values)]
        else:
            values = ["".join(rng.choices(_PIECES, k=rng.randrange(5)))]
        if rng.random() < 0.01:
            values.append("extra")
        lines.append(",".join([date, *values]))
    text = "\n".join(lines)
    return text if rng.random() < 0.3 else text + "\n"


def _with_blank_lines(text: str, final_lf: bool) -> str:
    """``text`` with a blank line before its first row, amid its rows and
    after its last, ending with or without a final LF."""
    head, *rows = text.split("\n")
    middle = len(rows) // 2
    lines = "\n".join([head, "", *rows[:middle], "", *rows[middle:], ""])
    return lines + "\n" if final_lf else lines


@pytest.mark.parametrize("seed", range(3))
def test_random_unquoted_files_read_as_csv_reads_them(tmp_path, csv_reads, seed):
    """The byte tokenizer gives ``csv.reader``'s header, fields, row widths
    and row lines, down to empty, header-only and blank-line-only files, and with
    multi-byte UTF-8 texts, blank first, middle and last lines and no final LF."""
    rng = random.Random(seed)
    texts = ["", "\n", "\n\n", "date", "date\n", ",\n\n,", "é,日本\n\n—,\u2028\n\n\x85",
             "date,text\n\n2021-03-01,日本 é\n\n\n2021-03-02,—,\n\n"]
    texts += [_random_plain_text(rng) for _ in range(200)]
    texts += [_with_blank_lines(_random_plain_text(rng), final_lf=i % 2 == 0) for i in range(100)]
    for i, text in enumerate(texts):
        path = _write(tmp_path / f"{i}.csv", text)
        if text:
            _assert_readers_agree(path)
        else:
            with pytest.raises(SchemaError, match="file is empty"):
                _read_fields(path)
    assert csv_reads == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["news.csv", "policy.csv", "financial.csv"])
def test_random_unquoted_files_load_like_the_reference(tmp_path, csv_reads, name, seed):
    rng = random.Random(100 * seed + len(name))
    for i in range(60):
        (tmp_path / str(i)).mkdir()
        _assert_same_outcome(_write(tmp_path / str(i) / name, _random_loader_text(rng, name)))
    assert csv_reads == []


# ---------------------------------------------------------------------------
# Dates
# ---------------------------------------------------------------------------

# Years with and without a leap day, at the ends of the range and at the century rules.
_EDGE_YEARS = (1, 1600, 1900, 2000, 2100, 9999)


@pytest.mark.parametrize("reader", ["split", "csv"])
def test_every_day_of_edge_years_loads_to_the_fromisoformat_ordinals(tmp_path, csv_reads, reader):
    tokens = [dt.date.fromordinal(day).isoformat() for year in _EDGE_YEARS
              for day in range(dt.date(year, 1, 1).toordinal(),
                               dt.date(year, 12, 31).toordinal() + 1)]
    text = '"gain"' if reader == "csv" else "gain"
    path = _write(tmp_path / "news.csv", "date,text\n" + "".join(f"{t},{text}\n" for t in tokens))
    news = _assert_same_load(path)
    assert csv_reads == ([path] if reader == "csv" else [])
    assert len(news) == 6 * 365 + 2
    assert news.days.tolist() == [dt.date.fromisoformat(t).toordinal() for t in tokens]


def test_leap_day_and_padded_dates_load_like_fromisoformat(tmp_path):
    tokens = ["2000-02-29", " 2021-01-01 ", "\t2024-02-29", "1904-02-29\u3000"]
    path = _write(tmp_path / "policy.csv",
                  "date,category\n" + "".join(f"{t},x\n" for t in tokens))
    events = _assert_same_load(path)
    assert events.days.tolist() == [dt.date.fromisoformat(t.strip()).toordinal() for t in tokens]


@pytest.mark.parametrize("token", [
    "0000-01-01", "2021-02-29", "1900-02-29", "2100-02-29", "2021-04-31", "2021-13-01",
    "2021-00-10", "2021-01-00", "2021-01-32", "2021/01/01", "2021-01/01", "2021+01-01",
    "2021-1-01", "2021-01-1 x",
    "２０２１-01-01", "٢٠٢١-٠١-٠١", "2021-01-0١", "+021-01-01", " 2021 -01-01"])
def test_a_bad_date_is_refused_at_its_line_with_the_fromisoformat_reason(tmp_path, token):
    """Each of these dates is refused at its own line, after a good row and a
    blank line, with the reason ``date.fromisoformat`` gives for it."""
    with pytest.raises(ValueError) as reason:
        dt.date.fromisoformat(token.strip())
    path = _write(tmp_path / "market.csv",
                  MARKET_HEADER + f"2021-03-01,1,2,3\n\n{token},1,2,3\n2021-03-02,1,2,3\n")
    want = f"{path}:4: unparseable date {token!r}: {reason.value}"
    with pytest.raises(SchemaError, match=f"^{re.escape(want)}$"):
        load_market_csv(path)
    _assert_same_outcome(path)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

AWKWARD_TEXTS = [
    "",
    "   ",
    "...,;!?",
    "—–…",
    "İ",                        # lower case is 'i' + U+0307: adds an ASCII letter
    "İİ gain",
    "K",                   # Kelvin sign: lower case is ASCII 'k'
    "KELVIN KELVIN kelvin",
    "Straße STRASSE ﬀ ǅ Σσς",
    "Ａｂｃ １２３ abc 123",      # full-width letters are not ASCII tokens
    "١٢٣ gain",
    "éclair gain-loss x2y2",
    "GAIN\tGAIN\nLOSS\rloss",
    "\x00",
    "\x00\x00gain\x00loss\x00",
    "ok\x00ok",
    "a\x00b\x00c",
    "lone surrogate \ud800 gain",
    "gain" * 3 + " " + "gain",
    "rally! RALLY, rally.",
]


@pytest.mark.parametrize("lexicon", [
    default_lexicon(),
    SentimentLexicon(frozenset({"GAIN", "Kelvin", "I", "ok", "A", "x2y2", "\x00", "two words"}),
                     frozenset({"LOSS", "K", "Straße", "b", "123"})),
], ids=["default", "custom-upper-case"])
def test_awkward_texts_score_like_the_reference(lexicon):
    _assert_same_scores(AWKWARD_TEXTS, lexicon)


def test_texts_across_chunks_with_separators_score_like_the_reference():
    rng = random.Random(5)
    pieces = AWKWARD_TEXTS + ["gain", "loss", "rally", "the", "crash", " ", ",", "\x00"]
    texts = ["".join(rng.choices(pieces, k=rng.randrange(8)))
             for _ in range(2 * _SCORE_CHUNK + 17)]
    texts[_SCORE_CHUNK + 3] = ""             # an empty text in a chunk with NULs
    _assert_same_scores(texts, default_lexicon())
    _assert_same_scores(texts[:_SCORE_CHUNK], default_lexicon())


def test_news_file_with_awkward_texts_scores_like_the_reference(tmp_path):
    path = tmp_path / "news.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(["date", "text"])
        for i, text in enumerate(t for t in AWKWARD_TEXTS if "\ud800" not in t):
            writer.writerow([f"2021-01-{i + 1:02d}", text])
    news = _assert_same_load(path)
    _assert_same_scores(news.labels, default_lexicon())


def test_no_texts_give_an_empty_score_matrix():
    assert sentiment_scores([], default_lexicon()).shape == (0, 4)


_TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"
# Lengths at and around the 8-byte word edges, then up to 40 bytes (5 words).
_EDGE_LENGTHS = (1, 7, 8, 9, 15, 16, 17, 24, 25, 39, 40)
# Terms sharing their first 8 bytes, at different and at equal lengths.
_PREFIX_PAIRS = ("pessimism", "pessimistic", "investigation", "investigators")
# Terms that are not one token and so can never count.
_NON_TOKEN_TERMS = ("two words", "\x00", "Straße")


def _fuzz_lexicon(rng: random.Random, n_terms: int) -> SentimentLexicon:
    """``n_terms`` terms of 1 to 40 bytes, split between the two sides; from
    50 terms on, these include the prefix pairs and the non-token terms."""
    terms = set()
    if n_terms >= 50:
        terms.update(_PREFIX_PAIRS + _NON_TOKEN_TERMS)
    lengths = itertools.chain(_EDGE_LENGTHS, iter(lambda: rng.randint(1, 40), None))
    while len(terms) < n_terms:
        terms.add("".join(rng.choices(_TOKEN_CHARS, k=next(lengths))))
    terms = sorted(terms)
    rng.shuffle(terms)
    return SentimentLexicon(frozenset(terms[::2]), frozenset(terms[1::2]))


def _fuzz_texts(rng: random.Random, lexicon: SentimentLexicon, n_texts: int) -> list[str]:
    """Texts of lexicon terms (some upper case, cut short or run on), random
    tokens of 8, 9, 16, 17 and 41 bytes, and separators of every kind."""
    terms = sorted(lexicon.positive | lexicon.negative) or ["gain"]
    near = [t.upper() for t in terms] + [t[:-1] for t in terms] + [t + "x" for t in terms]
    seps = (" ", " ", "  ", ",", "\t", "\n", "é", "—", "\x00", "-", "")
    texts = []
    for _ in range(n_texts):
        words = []
        for _ in range(rng.randrange(12)):
            roll = rng.random()
            if roll < 0.4:
                words.append(rng.choice(terms))
            elif roll < 0.6:
                words.append(rng.choice(near))
            else:
                words.append("".join(rng.choices(_TOKEN_CHARS, k=rng.choice((8, 9, 16, 17, 41)))))
            words.append(rng.choice(seps))
        texts.append("".join(words))
    # Texts that end their chunk on the longest term, read up to its last word.
    longest = max(terms, key=len)
    texts[_SCORE_CHUNK - 1] += " " + longest
    texts[-1] += longest
    return texts


@pytest.mark.parametrize("n_terms", [0, 1, 50, 3000])
def test_fuzzed_lexicons_and_texts_score_like_the_reference(n_terms):
    rng = random.Random(29 + n_terms)
    lexicon = _fuzz_lexicon(rng, n_terms)
    texts = _fuzz_texts(rng, lexicon, _SCORE_CHUNK + 300)
    table = _term_table(lexicon)
    held = np.flatnonzero(table.lengths)
    shifted = held - _home_slots(table.lengths[held], table.words[:, held], table.shift)
    if n_terms == 3000:
        # Some terms sit past their home slot: finding them walks a probe
        # chain.  The first text holds every such term.
        assert shifted.max() >= 1
        texts[0] = table.words[:, held[shifted > 0]].T.tobytes().replace(b"\x00", b" ").decode()
    full = held[table.lengths[held] == 40]
    if full.size:
        # A token that runs on past a term filling all its words has the
        # term's words and, at some lengths, its home slot: only the length
        # tells them apart.
        words = table.words[:, full[:1]]
        home = _home_slots(np.array([40]), words, table.shift)
        run_on = np.arange(41, 41 + 64 * len(table.lengths))
        homes = _home_slots(run_on, [np.repeat(w, len(run_on)) for w in words], table.shift)
        term = words.T.tobytes().decode()
        texts[1] = f"{term} {term}{'x' * (run_on[homes == home][0] - 40)}"
    _assert_same_scores(texts, lexicon)


# ---------------------------------------------------------------------------
# News scored from the file's bytes
# ---------------------------------------------------------------------------

_TOKEN_BYTE = re.compile("[a-z0-9]")


def test_only_two_characters_beyond_ascii_lower_case_into_token_bytes():
    """The byte scorer folds only ASCII case, and rewrites U+0130 and the
    Kelvin sign U+212A as their lower case would read: a later Unicode
    table that lower-cases another character into ASCII ``[a-z0-9]`` fails here."""
    found = [c for c in range(0x80, 0x110000) if _TOKEN_BYTE.search(chr(c).lower())]
    assert found == [0x130, 0x212A]
    assert "\u0130".lower() == "i\u0307" and "\u212a".lower() == "k"
    assert not _TOKEN_BYTE.search("\u0307")


# Pieces of a text that the byte path reads: no ``,``, ``"``, LF or CR.
# Upper case, U+0130 and the Kelvin sign next to letters, other non-ASCII
# characters, NUL, and characters that str.splitlines takes for line ends.
_BYTE_PIECES = ("gain", "GAIN", "Loss", "rally", "CRASH", "ok", "i", "kelvin", " ", "  ", "\t",
                "\x00", "é", "日本", "—", "Straße", "ǅ", "Σσς", "\u2028", "\x85", "\x0b",
                "\u0130", "\u0130stanbul", "x\u0130", "\u212a", "\u212aelvin", "x\u212a",
                "\u212a\u212a", "İ\u212a")
# Terms that a token only matches when U+0130 and the Kelvin sign fold and
# split tokens as str.lower makes them.
_BYTE_LEXICON = SentimentLexicon(frozenset({"gain", "rally", "ok", "kelvin", "i", "xk"}),
                                 frozenset({"loss", "crash", "stanbul", "xi", "kk", "ik"}))


def _random_news_lines(rng: random.Random, n_items: int) -> list[str]:
    lines, day = ["date,text"], dt.date(2021, 1, 1)
    for _ in range(n_items):
        day += dt.timedelta(days=rng.randrange(2))
        lines.append(f"{day},{''.join(rng.choices(_BYTE_PIECES, k=rng.randrange(7)))}")
    return lines


def _news_file(lines: list[str], layout: str) -> bytes:
    """The bytes of the news file of ``lines`` in one of several layouts:
    all but ``quoted`` take the byte tokenizer."""
    if layout == "blank-lines":
        lines = [*lines[:3], "", *lines[3:], ""]
    elif layout == "quoted":
        lines = [lines[0], *(f'{line[:10]},"{line[11:]}"' for line in lines[1:])]
    elif layout == "padded-date":
        lines = [*lines[:2], " " + lines[2], *lines[3:]]
    text = "\n".join(lines) + ("" if layout == "no-final-lf" else "\n")
    return (b"\xef\xbb\xbf" if layout == "bom" else b"") + text.encode()


_LAYOUTS = ["plain", "no-final-lf", "bom", "blank-lines", "quoted", "padded-date"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_news_file_bytes_score_like_the_reference(tmp_path, csv_reads, layout, seed):
    """A news file loads and scores like the per-item references from either
    tokenizer: its labels, read, are the reference loader's, and its scores,
    and those of a subset with gaps, are bitwise the reference scorer's."""
    rng = random.Random(seed)
    lines = _random_news_lines(rng, _SCORE_CHUNK + 700 if seed == 0 else rng.randrange(3, 300))
    path = tmp_path / "news.csv"
    path.write_bytes(_news_file(lines, layout))
    news = load_news_csv(path)
    # The reference loader keeps a byte-order mark, which the loaders drop.
    unmarked = tmp_path / "unmarked.csv"
    unmarked.write_bytes(path.read_bytes().removeprefix(b"\xef\xbb\xbf"))
    assert label_pairs(news) == ref_load_news_csv(unmarked)
    assert isinstance(news.texts, TextColumn)
    assert csv_reads == ([path] if layout == "quoted" else [])
    for lexicon in (_BYTE_LEXICON, default_lexicon()):
        _assert_column_scores(news, lexicon)


@pytest.mark.parametrize("text", [
    "date,text\n", "date,text", "date,text\n2021-03-01,\n", "date,text\n2021-03-01,x",
    "date,text\n2021-03-01,gain\n2021-03-01,a,b\n\n021-03-01,x\n",
    "date,text\n2021-03-01,gain\n2021-03-01,a,b\n2021-03-02\n",
    "date,text\n2021-03-01,gain\n2021-03-02,a,b\n",
    "date,text\n2021-02-29,gain\n", "date,text\n2021-03-01\t,gain\n",
    "date,text\n2021-03-01,x\n2021-03-0,x\n", "date, text\n2021-03-01,x\n",
    "date,text\n2021-03-01," + "x" * 53 + "\n", "date,text\n2021-03-01," + "x" * 54 + "\n",
], ids=["header-only", "header-without-lf", "empty-text", "no-final-lf", "comma-and-blank-line",
        "comma-and-dateless-line", "extra-comma", "bad-date", "padded-date", "short-date", "padded-header",
        "line-at-the-limit", "line-over-the-limit"])
def test_news_files_at_the_byte_path_edges_load_like_the_reference(tmp_path, small_field_limit,
                                                                   text):
    """Every file whose lines balance their ``,`` count in other ways, or whose
    fields the array passes cannot all settle, loads or fails as the
    reference does."""
    path = _write(tmp_path / "news.csv", text)
    _assert_same_outcome(path)
    try:
        news = load_news_csv(path)
    except SchemaError:
        return
    for lexicon in (_BYTE_LEXICON, default_lexicon()):
        _assert_column_scores(news, lexicon)


# ---------------------------------------------------------------------------
# Rejected files: the reference's exact message, first bad row in file order
# ---------------------------------------------------------------------------

MARKET_HEADER = "date,open,close,volume\n"
BAD_FILES = {
    "value-line-3-before-date-line-5": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,3\n"
        "2021-03-02,oops,2,3\n"
        "2021-03-03,1,2,3\n"
        "2021-13-04,1,2,3\n"), ":3: unparseable value 'oops'"),
    "date-line-3-before-value-line-5": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,3\n"
        "03/02/2021,1,2,3\n"
        "2021-03-03,1,2,3\n"
        "2021-03-04,1,x,3\n"), ":3: unparseable date"),
    "field-count-before-value": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,3\n"
        "2021-03-02,1,2\n"
        "2021-03-03,1,bad,3\n"), ":3: expected 4 fields, got 3"),
    "bad-date-and-field-count-on-one-row": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,3\n"
        "nope,1,2\n"), ":3: expected 4 fields, got 3"),
    "second-value-of-a-row": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,three\n"
        "2021-03-02,one,2,3\n"), ":2: unparseable value 'three' in column 'volume'"),
    "blank-lines-counted": ("market.csv", MARKET_HEADER + (
        "\n"
        "2021-03-01,1,2,3\n"
        "\n"
        "\n"
        "2021-03-02,1,2,\n"), ":6: unparseable value ''"),
    "crlf-blank-lines-counted": ("financial.csv", (
        "date,profit,debt_ratio,cash_flow\r\n"
        "\r\n"
        "2021-03-31,1,2,3\r\n"
        "\r\n"
        "2021-06-31,1,2,3\r\n"), ":5: unparseable date '2021-06-31'"),
    "multi-line-quoted-value-counted": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,3\n"
        "2021-03-02,1,\"2\n\n\",3\n"         # float() strips the newlines
        "2021-03-03,1,2,x\n"), ":6: unparseable value 'x'"),
    "news-multi-line-text-then-bad-date": ("news.csv", (
        "date,text\n"
        "2021-03-01,\"one\ntwo\nthree\"\n"
        "\n"
        "2021-03-0x,after\n"), ":6: unparseable date '2021-03-0x'"),
    "news-field-count-after-bad-date": ("news.csv", (
        "date,text\n"
        "2021-03-01,fine\n"
        "2021-02-30,bad date\n"
        "2021-03-03,too,many\n"), ":3: unparseable date"),
    "news-field-count": ("news.csv", (
        "date,text\n"
        "2021-03-01,\"quoted, comma\",extra\n"), ":2: expected 2 fields, got 3"),
    "news-extra-header-column": ("news.csv", (
        "date,text,source\n"
        "2021-03-01,gain,wire\n"), ": expected header date,text, got ['date', 'text', 'source']"),
    "policy-extra-header-column": ("policy.csv", (
        "date,category,note\n"
        "2021-03-01,rate_cut,x\n"), ": expected header date,category, "
                                       "got ['date', 'category', 'note']"),
    "date-without-dashes": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,3\n"
        "20210101,1,2,3\n"), ":3: unparseable date '20210101': "
                               "Invalid isoformat string: '20210101'"),
    "iso-week-date": ("news.csv", (
        "date,text\n"
        "2021-W01-1,gain\n"), ":2: unparseable date '2021-W01-1': "
                             "Invalid isoformat string: '2021-W01-1'"),
    "policy-bad-date": ("policy.csv", (
        "date,category\n"
        "2021-03-01,rate_hike\n"
        "\n"
        "2021-03-01T00:00,rate_cut\n"), ":4: unparseable date"),
    "duplicates-after-parse-errors": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,3\n"
        "2021-03-01,1,2,3\n"
        "2021-03-02,1,2,x\n"), ":4: unparseable value 'x'"),
    "bad-date-after-non-finite": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,nan,3\n"
        "2021-03-02,1,2,3\n"
        "2021-03-3,1,2,3\n"), ":4: unparseable date"),
    "duplicates-before-non-finite": ("market.csv", MARKET_HEADER + (
        "2021-03-04,1,inf,3\n"
        "2021-03-02,1,2,3\n"
        "2021-03-04,1,2,3\n"
        "2021-03-02,1,2,3\n"
        "2021-03-01,1,2,3\n"), ": duplicate dates 2021-03-02, 2021-03-04"),
    "first-non-finite-in-file-order": ("market.csv", MARKET_HEADER + (
        "2021-03-05,1,2,3\n"
        "\n"
        "2021-03-02,1,2,-inf\n"
        "2021-03-01,nan,2,3\n"), ":4: non-finite value -inf in column 'volume'"),
    "first-non-finite-column-of-a-row": ("macro.csv", (
        "date,gdp,cpi,interest_rate\n"
        "2021-01-01,1,2,3\n"
        "2021-02-01,1,1e500,nan\n"), ":3: non-finite value inf in column 'cpi'"),
    "value-with-digit-group-underscore": ("market.csv", MARKET_HEADER + (
        "2021-03-01,1,2,3\n"
        "2021-03-02,1,1_00.5,3\n"), ":3: unparseable value '1_00.5' in column 'close'"),
    "value-in-arabic-indic-digits": ("financial.csv", (
        "date,profit,debt_ratio,cash_flow\n"
        "2021-03-31,1,2,3\n"
        "2021-06-30,\u0661\u0660\u0660.\u0665,2,3\n"),
        ":3: unparseable value '\u0661\u0660\u0660.\u0665' in column 'profit'"),
    "missing-column": ("market.csv", "date,open,volume\n2021-03-01,1,2\n",
                       ": missing required column 'close'"),
    "date-not-first": ("market.csv", "open,date,close,volume\n1,2021-03-01,2,3\n",
                       ": first column must be 'date'"),
    "no-data-rows": ("market.csv", MARKET_HEADER + "\n\n", ": no data rows"),
    "market-repeated-column": ("market.csv", (
        "date,open,close,volume,close\n"
        "2021-03-01,1,2,3,1.0\n"), ": header repeats column names ['close']"),
    "financial-repeated-columns": ("financial.csv", (
        "date,profit,debt_ratio,profit,cash_flow,debt_ratio\n"
        "2021-03-31,1,2,3,4,5\n"), ": header repeats column names ['debt_ratio', 'profit']"),
    "empty-file": ("policy.csv", "", ": file is empty"),
    "field-over-the-limit": ("news.csv", (
        "date,text\n"
        "2021-03-01,fine\n"
        "2021-03-02," + "gain " * 30000 + "\n"
        "2021-03-0x,after\n"), ":3: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_bad_file_raises_the_reference_message(tmp_path, case):
    name, text, fragment = BAD_FILES[case]
    path = _write(tmp_path / name, text)
    new, ref = LOADERS[name]
    with pytest.raises(SchemaError) as want:
        ref(path)
    with pytest.raises(SchemaError) as got:
        new(path)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{path}{fragment}")


@pytest.mark.parametrize("case", ["value-line-3-before-date-line-5",
                                  "multi-line-quoted-value-counted",
                                  "news-multi-line-text-then-bad-date",
                                  "field-over-the-limit", "news-extra-header-column",
                                  "policy-extra-header-column", "market-repeated-column",
                                  "date-without-dashes", "iso-week-date",
                                  "value-with-digit-group-underscore",
                                  "value-in-arabic-indic-digits"])
def test_bad_file_through_the_cli_exits_3_with_file_line(tmp_path, capsys, case):
    name, text, fragment = BAD_FILES[case]
    data = tmp_path / "data"
    assert main(["gen-data", "--days", "300", "--seed", "7", "--out", str(data)]) == 0
    _write(data / name, text)
    out = tmp_path / "model.rcm"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--baseline", "linreg"]) == 3
    assert f"{data / name}{fragment}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, text, fragment", [
    ("market.csv", MARKET_HEADER + "2021-03-01,1,2,3\n2021-03-02,oops,2,3\n",
     ":3: unparseable value 'oops' in column 'open'"),
    ("market.csv", MARKET_HEADER + "2021-03-01,1,2,3\n\n2021-03-02,1,2,inf\n",
     ":4: non-finite value inf in column 'volume'"),
    ("market.csv", MARKET_HEADER + "2021-03-01,1,2,3\n2021-03-02,1,2,-5\n",
     ":3: negative value -5.0 in column 'volume'"),
    ("news.csv", 'date,text\n2021-03-01,"one,\ntwo"\n2021-03-0x,three\n',
     ":4: unparseable date '2021-03-0x'"),
], ids=["bad-row", "non-finite", "negative-volume", "quoted-bad-row"])
def test_a_rejected_file_is_opened_once(tmp_path, monkeypatch, name, text, fragment):
    """The fault is located from the one read that produced the values: the
    loader opens its file once (through ``open`` as ``data_io`` resolves it,
    the builtin) and never reads it again to name the line."""
    path = _write(tmp_path / name, text)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    with pytest.raises(SchemaError) as got:
        LOADERS[name][0](path)
    monkeypatch.undo()
    assert str(got.value).startswith(f"{path}{fragment}")
    assert opened.count(os.fspath(path)) == 1


def test_a_byte_order_mark_leaves_the_trained_model_unchanged(tmp_path, capsys):
    """Spreadsheet programs start a UTF-8 CSV with U+FEFF.  One leading mark
    is dropped from a file's bytes and text alike, so a set whose every file
    carries one trains to the same model bytes."""
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert main(["gen-data", "--days", "2000", "--seed", "7", "--out", str(plain)]) == 0
    marked.mkdir()
    for name in data_io.DATA_FILES:
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (plain / name).read_bytes())
    for data in (plain, marked):
        assert main(["train", "--data", str(data), "--out", str(tmp_path / f"{data.name}.rcm"),
                     "--baseline", "linreg"]) == 0
    assert (tmp_path / "plain.rcm").read_bytes() == (tmp_path / "marked.rcm").read_bytes()
    assert "warning" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Values read from the file's bytes
# ---------------------------------------------------------------------------


def _digits(rng: random.Random, n: int) -> str:
    """``n`` random digits, the first not 0."""
    return str(rng.randrange(10 ** (n - 1), 10 ** n))


def _decimal_token(rng: random.Random) -> str:
    """A decimal of 1 to 19 significant digits times 10^q, q from -19 to 19,
    in the grammar ``[+-]?(digits[.digits]|digits.|.digits)``: a sign or none,
    leading zeros, trailing zeros, and no integer or no fraction digits."""
    digits, q = _digits(rng, rng.randint(1, 19)), rng.randint(-19, 19)
    if q >= 0:
        whole, fraction = digits + "0" * q, ""
    else:
        padded = digits.rjust(-q, "0")
        whole, fraction = padded[:q] or "0", padded[q:]
    whole = "0" * rng.choice((0, 0, 0, 1, 3)) + whole
    fraction += "0" * rng.choice((0, 0, 0, 1, 2))
    if fraction or rng.random() < 0.3:
        token = f"{whole}.{fraction}"
        if whole.strip("0") == "" and fraction and rng.random() < 0.5:
            token = token.lstrip("0")          # ".5"
    else:
        token = whole
    return rng.choice(("", "", "-", "+")) + token


def _repr_tokens(rng: np.random.Generator, n: int) -> list[str]:
    """``repr`` of ``n`` doubles from 1e-6 to 1e20, either sign, as the writers lay floats out."""
    return list(map(repr, (rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n)
                           * 10.0 ** rng.integers(-6, 20, n)).tolist()))


def _midpoint_tokens(rng: random.Random) -> list[str]:
    """The exact midpoint between a double and the next, then that midpoint
    rounded down and up to 17, 18 and 19 significant digits, from decimal:
    the midpoints of doubles from 2^49 up are at most 19 digits long, and
    a rounded one can lie closer to the midpoint than an x87 extended
    double can tell apart."""
    if rng.random() < 0.5:
        low = float(rng.randrange(2**49, 2**64))
    else:
        low = rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-5, 18)
    with decimal.localcontext(decimal.Context(prec=800)):
        middle = (decimal.Decimal(low) + decimal.Decimal(math.nextafter(low, math.inf))) / 2
    tokens = [format(middle, "f")]
    for places in (17, 18, 19):
        exponent = middle.adjusted() + 1 - places
        for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            near = middle.quantize(decimal.Decimal(1).scaleb(exponent), rounding=rounding)
            tokens.append(format(near, "f"))
    return tokens


# Tokens at the grammar's and the conversion's edges: zeros and signs, no
# integer or no fraction digits, 19 and 20 significant digits, 19 and 20
# fraction digits, and tokens outside the grammar that float() reads.
_EDGE_TOKENS = ["0", "-0", "+0", "0.0", "-0.0", "00", "000.000", ".5", "5.", "-.5", "+5.",
                "9" * 19, "9" * 20, "1" + "0" * 18, "1" + "0" * 19, "18446744073709551615",
                "18446744073709551616", ".0000000000000000001", "0.00000000000000000001",
                "9007199254740993", "4503599627370496.5", "1.000000000000000111",
                "1.000000000000000112", "1e5", "-2.5E-3", " 1", "1 ", "inf", "-nan"]


def _token_bytes(tokens: list[str]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """``tokens`` as one file's bytes after an 8-byte line, one per line,
    and each token's start and end in them."""
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    ends = np.cumsum(lengths + 1) + 8
    return b"header,\n" + "\n".join(tokens).encode() + b"\n", ends - lengths - 1, ends - 1


_GRAMMAR = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)")


def _exact_path(token: str) -> bool:
    """Whether ``token`` is in the byte path's grammar and fits its exact
    conversion: shorter than 24 bytes, with at most 19 digits after its point
    and at most 19 from its first non-zero digit to its last."""
    if len(token) >= 24 or not _GRAMMAR.fullmatch(token):
        return False
    whole, _, fraction = token.lstrip("+-").partition(".")
    return len(fraction) <= 19 and len((whole + fraction).lstrip("0")) <= 19


def _on_midpoint(token: str) -> bool:
    """Whether the value of ``token``, rounded to a 64-bit significand, lies
    exactly halfway between two doubles."""
    value, double = fractions.Fraction(token), float(token)
    toward = math.nextafter(double, math.inf if value > double else -math.inf)
    middle = (fractions.Fraction(double) + fractions.Fraction(toward)) / 2
    # 64-bit significands are 2^(e - 64) apart in [2^(e - 1), 2^e).
    return middle != 0 and abs(value - middle) <= fractions.Fraction(2) ** (
        math.frexp(abs(middle))[1] - 65)


@pytest.fixture(scope="module")
def decimal_tokens() -> tuple[list[str], list[str]]:
    """Over a million tokens: random decimals, ``repr`` of random doubles,
    exact and near midpoints between adjacent doubles and the edge tokens;
    and the midpoint tokens alone."""
    rng = random.Random(35)
    midpoints = [token for _ in range(10_000) for token in _midpoint_tokens(rng)]
    tokens = [_decimal_token(rng) for _ in range(450_000)]
    tokens += _repr_tokens(np.random.default_rng(35), 500_000)
    return tokens + midpoints + _EDGE_TOKENS, midpoints


@pytest.fixture
def float_calls(monkeypatch):
    """The tokens ``data_io`` converts with ``float()``, in call order."""
    calls = []

    def spy(token):
        calls.append(token)
        return float(token)

    monkeypatch.setattr(data_io, "float", spy, raising=False)
    return calls


def test_decimal_tokens_read_from_bytes_as_float_reads_them(decimal_tokens, float_calls):
    """Every token converts to the bits ``float()`` gives it.  ``float()`` is
    left exactly the tokens outside the grammar or the exact conversion, and
    those whose extended result lies on a midpoint, exact midpoints and
    19-digit tokens next to them among them."""
    tokens, midpoints = decimal_tokens
    data, starts, ends = _token_bytes(tokens)
    got = data_io._decimal_fields(data, starts, ends)
    assert len(tokens) > 10**6
    assert got.tobytes() == np.array(list(map(float, tokens))).tobytes()
    slow = set(float_calls)
    exact = set(filter(_exact_path, tokens))
    assert len(exact) > len(set(tokens)) / 2
    assert slow | exact == set(tokens)
    assert all(map(_on_midpoint, slow & exact))
    on_midpoint = set(filter(_on_midpoint, exact.intersection(midpoints)))
    assert on_midpoint <= slow
    assert len(on_midpoint) > 1000 and len(on_midpoint - set(midpoints[::7])) > 100
    assert {"9007199254740993", "4503599627370496.5", "1.000000000000000111"} <= slow
    assert "1.000000000000000112" not in slow


def test_decimal_tokens_read_through_float_without_extended_precision(decimal_tokens,
                                                                        float_calls, monkeypatch):
    """Where extended precision is not x87's, ``float()`` converts every
    token, to the same bits."""
    monkeypatch.setattr(data_io, "_EXACT", False)
    tokens, _ = decimal_tokens
    data, starts, ends = _token_bytes(tokens)
    got = data_io._decimal_fields(data, starts, ends)
    assert float_calls == tokens
    assert got.tobytes() == np.array(list(map(float, tokens))).tobytes()


@pytest.mark.parametrize("name", ["market.csv", "financial.csv", "macro.csv"])
def test_generated_numeric_files_take_the_byte_path(tmp_path, monkeypatch, float_calls, name):
    """A numeric file as ``gen-data`` writes it is read by the byte
    tokenizer, its dates in one array pass, and ``float()`` converts only
    values whose extended result lies on a midpoint: a silent fall back to
    ``csv.reader`` or to reading fields one at a time fails here."""
    assert main(["gen-data", "--days", "2000", "--seed", "7", "--out", str(tmp_path)]) == 0

    def no_slow_path(*args):
        raise AssertionError(f"slow path taken for {args[0]!r}")

    monkeypatch.setattr(data_io, "_csv_fields", no_slow_path)
    monkeypatch.setattr(data_io, "_date_fault", no_slow_path)
    frame = NUMERIC[name][0](tmp_path / name)
    assert len(frame) > 0
    assert all(_exact_path(token) and _on_midpoint(token) for token in float_calls)
    assert len(float_calls) < len(frame) * len(frame.column_names) / 1000


@pytest.fixture(scope="module")
def generated_20000(tmp_path_factory):
    """The directory of the files ``gen-data`` writes for 20,000 days, seed 7."""
    out = tmp_path_factory.mktemp("generated_20000")
    assert main(["gen-data", "--days", "20000", "--seed", "7", "--out", str(out)]) == 0
    return out


def _traced_peak(load, path):
    """What ``load(path)`` returns, and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        loaded = load(path)
        return loaded, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("change", ["padded-date", "blank-line", "bad-value"])
def test_a_market_file_with_one_odd_row_is_tokenized_once(tmp_path, monkeypatch, csv_reads,
                                                          generated_20000, change):
    """One padded date, one blank line or one bad value amid the 20,000 rows
    of a generated ``market.csv`` is settled within the file's one byte
    tokenization: it loads, or fails, as the reference does, and is never
    scanned again or handed to ``csv.reader``."""
    lines = (generated_20000 / "market.csv").read_bytes().split(b"\n")
    if change == "padded-date":
        lines[10_000] = b" " + lines[10_000]
    elif change == "blank-line":
        lines.insert(10_000, b"")
    else:
        lines[10_000] = lines[10_000].replace(b",", b",x", 1)
    path = tmp_path / "market.csv"
    path.write_bytes(b"\n".join(lines))
    scans = []
    line_scan = data_io._line_scan

    def spy(data):
        scans.append(len(data))
        return line_scan(data)

    monkeypatch.setattr(data_io, "_line_scan", spy)
    _assert_same_outcome(path)
    assert scans == [path.stat().st_size]
    assert csv_reads == []


def test_the_generated_policy_file_takes_the_byte_tokenizer(csv_reads, generated_20000):
    """``gen-data``'s ``policy.csv`` reaches neither ``csv.reader`` nor a
    ``str.split`` of more than its header line."""
    path = generated_20000 / "policy.csv"
    split_sizes = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "split" \
                and isinstance(getattr(arg, "__self__", None), str):
            split_sizes.append(len(arg.__self__))

    sys.setprofile(profile)
    try:
        events = load_policy_csv(path)
    finally:
        sys.setprofile(None)
    assert len(events) > 100
    assert csv_reads == []
    assert max(split_sizes, default=0) <= len(path.read_bytes().split(b"\n", 1)[0])
    assert label_pairs(events) == ref_load_policy_csv(path)


def test_a_generated_market_file_loads_in_under_4_times_its_size(generated_20000):
    """The byte tokenizer's field bounds are the one array of separator
    positions, read a column and a block of rows at a time."""
    path = generated_20000 / "market.csv"
    frame, peak = _traced_peak(load_market_csv, path)
    assert len(frame) > 19_000
    assert peak < 4 * path.stat().st_size


def test_a_quoted_news_file_loads_in_under_5_times_its_size(tmp_path, csv_reads, generated_20000):
    """``csv.reader`` reads its lines from a decoder of a few KB at a time,
    and its fields are re-encoded a block at a time: the file's text is
    never held whole, neither decoded nor at 4 bytes a character."""
    plain = generated_20000 / "news.csv"
    head, *lines = plain.read_bytes().rstrip(b"\n").split(b"\n")
    path = tmp_path / "news.csv"
    path.write_bytes(b"\n".join([head, *(b'%s,"%s"' % (line[:10], line[11:]) for line in lines)])
                     + b"\n")
    news, peak = _traced_peak(load_news_csv, path)
    assert csv_reads == [path]
    assert peak < 5 * path.stat().st_size
    want = load_news_csv(plain)
    assert news.days.tobytes() == want.days.tobytes()
    assert news.labels == want.labels


# Bytes a mutation writes: the grammar's own, separators, an exponent, padding,
# an underscore, a letter, a quote and a two-byte character.
_MUTATIONS = [*"0123456789", ".", ".", "+", "-", "e", ",", "\n", " ", "\t", "_", "x", '"', "é"]


def _grammar_file(rng: random.Random, header: str) -> bytes:
    """A numeric file of up to 30 dated rows whose values come from the
    grammar (and now and then an exponent, ``inf``, ``nan`` or padding),
    with or without a final LF, and then, in most files, one byte
    replaced, inserted or deleted."""
    day = dt.date(2021, 1, 1)
    lines = [header]
    for _ in range(rng.randint(1, 30)):
        day += dt.timedelta(days=rng.randint(1, 3))
        values = [_decimal_token(rng) if rng.random() < 0.9 else
                  rng.choice(["12.375", "1e5", "inf", "nan", " 2 ", "-.5E-3", "1.5e-07"])
                  for _ in range(header.count(","))]
        lines.append(",".join([day.isoformat(), *values]))
    data = bytearray(("\n".join(lines) + ("\n" if rng.random() < 0.8 else "")).encode())
    if rng.random() < 0.8:
        at = rng.randrange(len(data))
        kind = rng.choice(("replace", "insert", "delete"))
        data[at:at + (kind != "insert")] = b"" if kind == "delete" else rng.choice(
            _MUTATIONS).encode()
    return bytes(data)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["financial.csv", "macro.csv"])
def test_mutated_grammar_files_load_like_the_reference(tmp_path, monkeypatch, name, seed):
    """A grammar-based differential test (McKeeman 1998): files written from
    the value grammar, most with one byte mutated, load exactly when the
    reference loader loads them, to the same values, or fail with its
    ``file:line`` message; the array passes settle every field of many, and
    many reach the per-field date check, for a date those leave or while
    the first bad row is sought."""
    per_field = []
    date_fault = data_io._date_fault

    def spy(token):
        per_field[-1] = True
        return date_fault(token)

    monkeypatch.setattr(data_io, "_date_fault", spy)
    rng = random.Random(1000 * seed + len(name))
    header = {"financial.csv": "date,profit,debt_ratio,cash_flow",
              "macro.csv": "date,gdp,cpi,interest_rate"}[name]
    for i in range(150):
        (tmp_path / str(i)).mkdir()
        path = tmp_path / str(i) / name
        path.write_bytes(_grammar_file(rng, header))
        per_field.append(False)
        with warnings.catch_warnings():     # a mutated date can put rows out of order
            warnings.simplefilter("ignore")
            _assert_same_outcome(path)
    assert 30 < sum(per_field) < len(per_field) - 30


@pytest.mark.parametrize("value", ["", ".", "+", "-", "+.", "-.", "..5", "5..", "1.2.3", "+-1",
                                   "--1", "1-", "1+", "e5", "1e", " ", "_1", "1_0", "1,5",
                                   "١", "0x1", "1.5\x00", "inf", "-nan", "\t7 ", "+.5", "-5."])
def test_a_value_at_the_grammar_edge_loads_or_fails_like_the_reference(tmp_path, value):
    """A value with no digit, two points or signs, a sign after its digits,
    a bare or half exponent, padding, a separator, a non-ASCII digit or
    ``inf`` and ``nan`` loads or fails as the reference does, among rows
    that the array passes read."""
    rows = [f"2021-03-{day:02d},1.5,-0.25,{day}" for day in range(1, 29)]
    rows[13] = f"2021-03-14,1.5,{value},14"
    path = _write(tmp_path / "macro.csv", "date,gdp,cpi,interest_rate\n" + "\n".join(rows) + "\n")
    _assert_same_outcome(path)


def test_fields_at_the_start_of_the_bytes_read_as_float_reads_them():
    """A field that starts in the first 8 bytes, whose cell would wrap round
    to the end of the bytes, converts to ``float()``'s bits, though the
    bytes end with a number that such a cell would read."""
    tokens = ["12345.5", "-0.125", *(["9.75"] * 20), "88888888.8"]
    data = "\n".join(tokens).encode()
    ends = np.cumsum([len(token) + 1 for token in tokens]) - 1
    starts = ends - [len(token) for token in tokens]
    got = data_io._decimal_fields(data, starts, ends)
    assert got.tobytes() == np.array(list(map(float, tokens))).tobytes()
