"""The columnar CSV loaders and batched news scorer against per-row references.

The reference functions below are the per-row loaders and the per-item
scorer the read path used before it worked on whole columns.  Loaded frames
and scores are compared bitwise (``tobytes``), and every rejected file must
raise the reference's exact message: a bad file is reported at its first bad
row in file order, with the csv line number (blank lines and the lines of
quoted multi-line fields count).
"""

import csv
import datetime as dt
import random
import re
import warnings

import numpy as np
import pytest

from riskcast import SchemaError, SentimentLexicon, TimeSeriesFrame, default_lexicon
from riskcast.cli import main
from riskcast.data_io import (
    load_financial_csv,
    load_macro_csv,
    load_market_csv,
    load_news_csv,
    load_policy_csv,
)
from riskcast.features import _SCORE_CHUNK, sentiment_score, sentiment_scores
from riskcast.frames import day_numbers

# ---------------------------------------------------------------------------
# Per-row references
# ---------------------------------------------------------------------------


def _ref_read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        rows = [(reader.line_num, row) for row in reader if row]
    return [name.strip() for name in header], rows


def _ref_parse_date(token, path, lineno):
    try:
        return dt.date.fromisoformat(token.strip())
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: unparseable date {token!r}: {exc}") from exc


def _ref_parse_float(token, column, path, lineno):
    try:
        return float(token)
    except ValueError as exc:
        raise SchemaError(
            f"{path}:{lineno}: unparseable value {token!r} in column {column!r}"
        ) from exc


def ref_load_numeric_csv(path, required):
    header, rows = _ref_read_rows(path)
    if not header or header[0] != "date":
        raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
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
        raise SchemaError(f"{path}: duplicate dates {dupes[:5]}")
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
    if header[:2] != ["date", "text"]:
        raise SchemaError(f"{path}: expected header date,text, got {header}")
    items = []
    for lineno, row in rows:
        if len(row) != 2:
            raise SchemaError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        items.append((_ref_parse_date(row[0], path, lineno), row[1]))
    return items


def ref_load_policy_csv(path):
    header, rows = _ref_read_rows(path)
    if header[:2] != ["date", "category"]:
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
        assert got == want
        assert all(type(day) is dt.date and type(text) is str for day, text in got)
    return got


def _assert_same_scores(texts, lexicon):
    got = sentiment_scores(texts, lexicon)
    want = np.array([ref_sentiment_score(t, lexicon) for t in texts],
                    dtype=np.float64).reshape(len(texts), 4)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for text, row in zip(texts[:50], want):
        assert tuple(sentiment_score(text, lexicon)) == tuple(row)


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
    _assert_same_scores([text for _, text in news], default_lexicon())


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
    news = _assert_same_load(_write(tmp_path / "news.csv", RFC_NEWS, newline))
    assert len(news) == 6
    assert news[2][1].startswith("first line")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_blank_lines_and_padded_dates_load_like_the_reference(tmp_path, newline):
    _assert_same_load(_write(tmp_path / "market.csv", (
        " date , open ,close,volume,extra\n"
        "\n"
        " 2021-03-01 ,1.5,2.25, 3 ,1_000\n"
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
    assert _assert_same_load(_write(tmp_path / "news.csv", "date,text\n")) == []
    assert _assert_same_load(_write(tmp_path / "policy.csv", "date,category\n\n")) == []


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
    _assert_same_scores([text for _, text in news], default_lexicon())


def test_no_texts_give_an_empty_score_matrix():
    assert sentiment_scores([], default_lexicon()).shape == (0, 4)


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
        "2021-03-01,1,2,3\n"), ": duplicate dates [datetime.date(2021, 3, 2), "
                               "datetime.date(2021, 3, 4)]"),
    "first-non-finite-in-file-order": ("market.csv", MARKET_HEADER + (
        "2021-03-05,1,2,3\n"
        "\n"
        "2021-03-02,1,2,-inf\n"
        "2021-03-01,nan,2,3\n"), ":4: non-finite value -inf in column 'volume'"),
    "first-non-finite-column-of-a-row": ("macro.csv", (
        "date,gdp,cpi,interest_rate\n"
        "2021-01-01,1,2,3\n"
        "2021-02-01,1,1e500,nan\n"), ":3: non-finite value inf in column 'cpi'"),
    "missing-column": ("market.csv", "date,open,volume\n2021-03-01,1,2\n",
                       ": missing required column 'close'"),
    "date-not-first": ("market.csv", "open,date,close,volume\n1,2021-03-01,2,3\n",
                       ": first column must be 'date'"),
    "no-data-rows": ("market.csv", MARKET_HEADER + "\n\n", ": no data rows"),
    "empty-file": ("policy.csv", "", ": file is empty"),
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
                                  "news-multi-line-text-then-bad-date"])
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
