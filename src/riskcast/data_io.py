"""CSV ingestion and writing, chronological splits, and model persistence.

File schemas (``YYYY-MM-DD`` dates, decimal floats, RFC-4180 quoting).  Each
file is read once by :func:`~riskcast.errors.read_file`, as bytes and as
text, and turned into columns, and every fault is located from that read.
A file with no ``"``, no CR and no line longer than
``csv.field_size_limit()`` characters is split on LF and ``,``: one array
pass over its bytes finds each line's length, comma count and blankness,
and one ``split`` of its text gives the fields.  Any other file goes
through ``csv.reader``, which parses quoted fields and CR line ends and
refuses a field over that limit.  Both give the same rows and the line each
ends on: blank lines are skipped, whitespace in fields is kept.  A date is
``YYYY-MM-DD`` in ASCII digits, a Gregorian date from year 1, with
surrounding whitespace stripped; a date column is parsed as one byte array.
A value is an ASCII decimal float as ``float()`` reads it, with no ``_``.
One leading UTF-8 byte-order mark is dropped.  News and policy load as
:class:`~riskcast.frames.DatedLabels`.  A news file that the split would
read, and whose every data line is a 10-byte date, a ``,`` and its text,
is not split at all: its LF positions give each text's byte range, its
dates are parsed from the ``[n x 10]`` bytes at the lines' starts, and its
texts load as a :class:`~riskcast.frames.TextColumn` that sentiment is
scored from, with no ``str`` per item.  Any other news file loads through
the split or ``csv.reader`` like the rest.  The writers build the bytes of
``_ROWS_PER_WRITE`` rows at a time from whole column slices, with no Python
object per value: dates by civil-from-days arithmetic, floats as the
shortest round-trip digits (Schubfach) laid out as ``repr`` lays them out,
and text fields encoded once, quoted only when they hold a ``,``, ``"``, LF
or CR:

* ``market.csv``    - ``date,open,close,volume``
* ``financial.csv`` - ``date,profit,debt_ratio,cash_flow``
* ``macro.csv``     - ``date,gdp,cpi,interest_rate`` (folded into the static frame)
* ``news.csv``      - ``date,text``, exactly
* ``policy.csv``    - ``date,category``, exactly

The numeric files may carry extra columns, which load as floats.  No
header may name a column twice.

Model files are a versioned, self-describing text format, written and read
only here: the magic line ``RISKCAST-MODEL v1``, headers from the model's own
fields (a hybrid's ``ModelDims`` and dropout, a linear model's feature count
and ridge term), its ``Preprocess`` recipe, then parameter blocks in its
``params()`` order.  Floats round-trip bit-exactly via shortest-repr
formatting.  One loop reads a file back: every parameter block must parse,
hold as many values as its shape and only finite ones, and the recipe must
pass its own checks and describe the model's inputs.  A file that is not
UTF-8 is a ``file:line`` SchemaError, or ModelIOError for a model file.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import os
import warnings
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import DataError, ModelIOError, SchemaError, read_file
from .features import ColumnStats, SampleSet
from .frames import (DatedLabels, TextColumn, TimeSeriesFrame, calendar_dates, day_numbers,
                     merge_outer)
from .models import HybridModel, LinearRegressionModel, ModelDims
from .layers import Conv1DLayer, DenseLayer, DropoutSpec, LSTMCell
from .preprocess import PipelineConfig, Preprocess, SplitSpec

MODEL_MAGIC = "RISKCAST-MODEL v1"

MARKET_COLUMNS = ("open", "close", "volume")
FINANCIAL_COLUMNS = ("profit", "debt_ratio", "cash_flow")
MACRO_COLUMNS = ("gdp", "cpi", "interest_rate")
# The files of one dataset directory, in the order gen-data lists them.
DATA_FILES = ("market.csv", "financial.csv", "macro.csv", "news.csv", "policy.csv")
# Market values no price or volume can take: per column, the fault and its test against 0.
_MARKET_INVALID = {"close": ("non-positive", np.less_equal), "volume": ("negative", np.less)}
_LF, _COMMA = ord("\n"), ord(",")


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def _csv_fields(path, text: str) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """:func:`_read_fields`' stripped header, fields, widths and row lines,
    parsed from the file's ``text`` by ``csv.reader``, which alone parses
    quoted fields and CR line ends and refuses a field over
    ``csv.field_size_limit()`` (a ``file:line`` SchemaError)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    try:
        header = next(reader)
        for row in filter(None, reader):
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    return ([name.strip() for name in header], list(itertools.chain.from_iterable(rows)), widths,
            np.array(lines, dtype=np.int64))


def _read_fields(path) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """:func:`_fields` of one read of the file."""
    return _fields(path, *read_file(path, SchemaError))


def _fields(path, data: bytes, text: str) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """The stripped header names of a CSV file, the fields of its non-blank
    data rows in one flat list, row after row, each row's field count, and
    the file line each row ends on (``csv.reader``'s ``line_num``), from the
    file's ``data`` and ``text`` as :func:`~riskcast.errors.read_file` gives them.

    A file with no ``"``, no CR and no line longer than
    ``csv.field_size_limit()`` characters is split on LF and ``,``, which
    gives the fields ``csv.reader`` would; any other goes to
    :func:`_csv_fields`.  The split path finds every line's end, length and
    comma count in one array pass over the file's bytes: LF and ``,`` are
    single bytes that never occur inside a multi-byte UTF-8 character.
    """
    if not data:
        raise SchemaError(f"{path}: file is empty, expected a header row")
    if b'"' in data or b"\r" in data:
        return _csv_fields(path, text)
    raw = np.frombuffer(data, dtype=np.uint8)
    is_sep = raw == _LF
    is_sep |= raw == _COMMA             # in place: one byte mask fewer held at once
    seps = np.flatnonzero(is_sep)
    del is_sep
    # Each line's end as an index into ``seps``; the end of the file closes
    # the last line, which is empty after a final LF and then not a line.
    final_lf = data.endswith(b"\n")
    ends = np.flatnonzero(np.append(raw[seps] == _LF, not final_lf))
    stops = np.append(seps, len(data))[ends]
    lengths = np.diff(stops, prepend=-1) - 1
    commas = np.diff(ends, prepend=-1) - 1
    over = np.flatnonzero(lengths > csv.field_size_limit())  # bytes: at least the characters
    if any(len(data[stop - length:stop].decode()) > csv.field_size_limit()
           for stop, length in zip(stops[over].tolist(), lengths[over].tolist())):
        return _csv_fields(path, text)
    del data, raw, seps
    joined = text.replace("\n", ",")
    del text
    fields = joined.split(",")
    del joined
    header = fields[:commas[0] + 1] if lengths[0] else []
    del fields[:commas[0] + 1]
    if final_lf:
        fields.pop()  # the empty field after the final LF
    kept = lengths[1:] > 0
    if not kept.all():
        fields = list(itertools.compress(fields, np.repeat(kept, commas[1:] + 1).tolist()))
    return [name.strip() for name in header], fields, commas[1:][kept] + 1, 2 + np.flatnonzero(kept)


# The positions of a ``YYYY-MM-DD`` date's digits, and the days of each month in a common year.
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _date_fields(cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """Whether each row of the ``[n x 10]`` uint8 array ``cells`` is
    ``YYYY-MM-DD`` in ASCII digits, and the year, month and day it spells
    (int32: a byte below ``0`` wraps past 9, and int32 holds any of them)."""
    d = (cells[:, _DATE_DIGITS] - ord("0")).astype(np.int32)
    formed = (d < 10).all(axis=1) & (cells[:, 4] == ord("-")) & (cells[:, 7] == ord("-"))
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    return formed, year, d[:, 4] * 10 + d[:, 5], d[:, 6] * 10 + d[:, 7]


def _date_ordinals(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The day ordinals of the dates in the rows of the ``[n x 10]`` uint8
    array ``cells``, and which rows are dates: ``YYYY-MM-DD`` in ASCII
    digits, a Gregorian date from year 1 (surrounding whitespace is not
    stripped here)."""
    valid, year, month, day = _date_fields(cells)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + (leap & (month == 2))
    valid &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    # Days from civil: count from 1 March of year 0, so that a leap day ends its year.
    year = year - (month <= 2)
    era, year_of_era = np.divmod(year, 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return (era * 146097 + day_of_era - 305).astype(np.int64), valid


def _token_dates(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_date_ordinals` of date fields, joined with LFs and encoded:
    only when each is exactly 10 bytes long does every LF fall at the end
    of a row of 11."""
    n = len(tokens)
    joined = ("\n".join(tokens) + "\n").encode()
    if len(joined) != 11 * n:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    rows = np.frombuffer(joined, dtype=np.uint8).reshape(n, 11)
    days, valid = _date_ordinals(rows[:, :10])
    return days, valid & (rows[:, 10] == _LF)


def _date_fault(token: str) -> str | None:
    """Why one date field is refused once surrounding whitespace is
    stripped, or None when it is a date: its form from :func:`_date_fields`,
    then its range from ``datetime.date``, in the words
    ``date.fromisoformat`` uses for the fields it refuses too."""
    text = token.strip()
    cells = np.frombuffer(text.encode(), dtype=np.uint8).reshape(1, -1)
    if cells.shape[1] == 10:
        formed, year, month, day = _date_fields(cells)
        if formed[0]:
            try:
                dt.date(int(year[0]), int(month[0]), int(day[0]))
            except ValueError as exc:
                return str(exc)
            return None
    return f"Invalid isoformat string: {text!r}"


def _check_rows(path, fields: list[str], widths: np.ndarray, lines: np.ndarray, width: int,
                value_names: list[str]) -> None:
    """Raise the ``file:line`` SchemaError of the first bad row of
    :func:`_read_fields`' rows: wrong field count, bad date or bad value."""
    for end, count, lineno in zip(np.cumsum(widths).tolist(), widths.tolist(), lines.tolist()):
        row, where = fields[end - count:end], f"{path}:{lineno}:"
        if count != width:
            raise SchemaError(f"{where} expected {width} fields, got {count}")
        fault = _date_fault(row[0])
        if fault:
            raise SchemaError(f"{where} unparseable date {row[0]!r}: {fault}")
        for name, token in zip(value_names, row[1:]):
            try:
                if not token.isascii() or "_" in token:
                    raise ValueError("not an ASCII decimal float")
                float(token)
            except ValueError as exc:
                raise SchemaError(f"{where} unparseable value {token!r} "
                                  f"in column {name!r}") from exc


def _columns(path, fields: list[str], widths: np.ndarray, lines: np.ndarray, width: int,
             value_names: list[str]) -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
    """Parse the flat ``fields`` of rows ``width`` fields wide column by
    column: the dates as day ordinals, the ``value_names`` columns as one
    ``[columns x rows]`` float matrix, and the remaining raw columns.

    The dates are parsed in one array pass, and again stripped when any
    fails.  A row of another width, or any bad field, is reported at its
    file line by :func:`_check_rows`.
    """
    values = np.empty((len(value_names), len(widths)))
    try:
        if (widths != width).any():
            raise ValueError("rows with the wrong field count")
        days, valid = _token_dates(fields[0::width])
        if not valid.all():
            days, valid = _token_dates(list(map(str.strip, fields[0::width])))
            if not valid.all():
                raise ValueError("bad dates")
        for column, row in enumerate(values, start=1):
            tokens = fields[column::width]
            # float() also takes digit-group underscores and any Unicode digit.
            joined = "".join(tokens)
            if not joined.isascii() or "_" in joined:
                raise ValueError("a value that is not an ASCII decimal float")
            row[:] = list(map(float, tokens))
    except ValueError:
        _check_rows(path, fields, widths, lines, width, value_names)
        raise
    return days, values, [fields[column::width] for column in range(len(values) + 1, width)]


def _reject_first(path, lines: np.ndarray, bad: np.ndarray, matrix: np.ndarray,
                  value_names: list[str], faults: dict[str, str]) -> None:
    """Raise the ``file:line`` SchemaError of the first value that ``bad`` flags
    in ``matrix`` (``[columns x rows]``), in file order, naming its column's fault."""
    if bad.any():
        row, col = np.argwhere(bad.T)[0]
        name = value_names[col]
        raise SchemaError(f"{path}:{lines[row]}: {faults[name]} value "
                          f"{float(matrix[col, row])} in column {name!r}")


def _load_numeric_csv(path, required: tuple[str, ...],
                      invalid: dict[str, tuple] | None = None) -> TimeSeriesFrame:
    """Shared loader: a ``date`` column plus named float columns.

    Extra columns are kept as floats; a name given twice in the header is
    rejected.  Rows arriving out of order are sorted with a warning;
    duplicate dates, non-finite values and the values ``invalid`` flags
    (column -> fault and test against 0) are rejected.
    A bad file is reported at its first bad row in file order.
    """
    header, fields, widths, lines = _read_fields(path)
    if not header or header[0] != "date":
        raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise SchemaError(f"{path}: header repeats column names {repeated}")
    for column in required:
        if column not in header[1:]:
            raise SchemaError(f"{path}: missing required column {column!r}")
    if not len(widths):
        raise SchemaError(f"{path}: no data rows")
    value_names = header[1:]
    days, matrix, _ = _columns(path, fields, widths, lines, len(header), value_names)
    del fields
    order = np.argsort(days, kind="stable")
    ranked = days[order]
    repeated = ranked[1:] == ranked[:-1]
    if repeated.any():
        dupes = calendar_dates(np.unique(ranked[1:][repeated])[:5])
        raise SchemaError(f"{path}: duplicate dates {', '.join(map(str, dupes))}")
    _reject_first(path, lines, ~np.isfinite(matrix), matrix, value_names,
                  dict.fromkeys(value_names, "non-finite"))
    invalid = invalid or {}
    bad = np.zeros(matrix.shape, dtype=bool)
    for name, (_, test) in invalid.items():
        bad[value_names.index(name)] = test(matrix[value_names.index(name)], 0)
    _reject_first(path, lines, bad, matrix, value_names, {n: f for n, (f, _) in invalid.items()})
    if (np.diff(days) < 0).any():
        warnings.warn(f"{path}: rows are out of date order; loading sorted", stacklevel=2)
    return TimeSeriesFrame(ranked, dict(zip(value_names, matrix[:, order])))


def load_market_csv(path) -> TimeSeriesFrame:
    return _load_numeric_csv(path, MARKET_COLUMNS, _MARKET_INVALID)


def load_financial_csv(path) -> TimeSeriesFrame:
    return _load_numeric_csv(path, FINANCIAL_COLUMNS)


def load_macro_csv(path) -> TimeSeriesFrame:
    return _load_numeric_csv(path, MACRO_COLUMNS)


def _load_dated_labels(path, label: str, data: bytes, text: str) -> DatedLabels:
    """The dated labels of a file whose header is exactly ``date,<label>``,
    in file order, from its ``data`` and ``text``."""
    header, fields, widths, lines = _fields(path, data, text)
    if header != ["date", label]:
        raise SchemaError(f"{path}: expected header date,{label}, got {header}")
    days, _, (labels,) = _columns(path, fields, widths, lines, 2, [])
    return DatedLabels(days, labels)


def _news_column(data: bytes) -> DatedLabels | None:
    """The items of a news file's ``data`` as a :class:`TextColumn`, or None
    unless its header line is ``date,text`` and it takes the split path
    (no ``"``, no CR, no line longer than ``csv.field_size_limit()``
    bytes) with every data line a ``YYYY-MM-DD`` date, a ``,`` and a text
    with no ``,``: each line is at least 11 bytes long with a ``,`` as its
    byte 10, and the lines hold as many ``,`` as there are lines.  Any other file,
    blank lines and padded or bad dates included, is left to the split or
    ``csv.reader`` path, which reports each fault at its line."""
    header_end = data.find(b"\n")
    if header_end < 0 or data[:header_end] != b"date,text" or b'"' in data or b"\r" in data:
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw[header_end:] == _LF) + header_end
    starts = ends + 1
    stops = np.append(ends[1:], len(data))
    if data.endswith(b"\n"):
        starts, stops = starts[:-1], stops[:-1]
    lengths = stops - starts
    if len(starts) and (lengths.min() < 11 or lengths.max() > csv.field_size_limit()
                        or (raw[starts + 10] != _COMMA).any()
                        or np.count_nonzero(raw[header_end:] == _COMMA) != len(starts)):
        return None
    days, valid = _date_ordinals(raw[starts[:, None] + np.arange(10)])
    if not valid.all():
        return None
    return DatedLabels(days, TextColumn(data, starts + 11, stops))


def load_news_csv(path) -> DatedLabels:
    data, text = read_file(path, SchemaError)
    news = _news_column(data)
    return news if news is not None else _load_dated_labels(path, "text", data, text)


def load_policy_csv(path) -> DatedLabels:
    events = _load_dated_labels(path, "category", *read_file(path, SchemaError))
    return DatedLabels(events.days, list(map(str.strip, events.labels)))


# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------


# Rows formatted at once: whole columns are faster to format than single
# rows, and slices of them keep the writers' transient memory small.
_ROWS_PER_WRITE = 4096

# Each number 0 to 99 as its 2 ASCII digits in one uint16.  Tables this small
# are built at import among its objects: 4-digit ones (280 KB) built at the
# first write kept about 1 MB more resident through a later command's peak.
_TEXTS2 = [f"{i:02d}" for i in range(100)]
_DIGITS2 = np.frombuffer("".join(_TEXTS2).encode(), dtype="<u2")
# Offsets into :data:`_LEADING` and :data:`_TRAILING`.
_BLANK, _LAST = 100, 200


def _stripped_digits(strip, zero: str) -> np.ndarray:
    """:data:`_DIGITS2`; then each with ``strip`` turning zeros into NULs (0
    all NULs) from :data:`_BLANK`; then the same with 0 as ``zero`` from
    :data:`_LAST`."""
    stripped = [strip(text) for text in _TEXTS2]
    return np.frombuffer("".join([*_TEXTS2, *stripped, zero, *stripped[1:]]).encode(),
                         dtype="<u2")


# Integer blocks lose their leading zeros, fraction blocks their trailing ones.
_LEADING = _stripped_digits(lambda text: text.lstrip("0").rjust(2, "\x00"), "\x000")
_TRAILING = _stripped_digits(lambda text: text.rstrip("0").ljust(2, "\x00"), "0\x00")
_DATE_CELL = np.dtype([("century", "<u2"), ("year", "<u2"), ("dash1", "u1"), ("month", "<u2"),
                       ("dash2", "u1"), ("day", "<u2")])


def _date_cells(days: np.ndarray) -> np.ndarray:
    """``date.isoformat()`` of each day ordinal from 1 to 3,652,059, as the
    rows of an ``[n x 10]`` uint8 array.  Civil from days, the inverse of
    :func:`_date_ordinals`: count from 1 March of year 0, so that a leap day
    ends its year, and split into eras of 400 years."""
    era, day_of_era = np.divmod(days + 305, 146097)
    year_of_era = (day_of_era - day_of_era // 1460 + day_of_era // 36524
                   - day_of_era // 146096) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    shifted_month = (5 * day_of_year + 2) // 153          # 0 is March
    month = shifted_month + np.where(shifted_month < 10, 3, -9)
    year = era * 400 + year_of_era + (month <= 2)
    cells = np.empty(len(days), dtype=_DATE_CELL)
    cells["century"], cells["year"] = _DIGITS2[year // 100], _DIGITS2[year % 100]
    cells["dash1"] = cells["dash2"] = ord("-")
    cells["month"] = _DIGITS2[month]
    cells["day"] = _DIGITS2[day_of_year - (153 * shifted_month + 2) // 5 + 1]
    return cells.view(np.uint8).reshape(len(days), 10)


# Shortest round-trip digits of a double by Schubfach (Giulietti 2020, "The
# Schubfach way to render doubles"), on uint64 arrays.  ``_u(n)`` is a uint64
# scalar, so that no operation leaves uint64.
_u = np.uint64
_LOW32, _LOW63 = _u(2**32 - 1), _u(2**63 - 1)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_G_K_MIN = -324                     # g(k) is tabled for k in [-324, 292]


@functools.cache
def _schubfach_g() -> tuple[np.ndarray, ...]:
    """g(k) = floor(10^-k * 2^(125 - floor(-k log2 10))) + 1, a 126-bit integer,
    as its high and low 63 bits and each of those as 32-bit halves.  Made on
    first use."""
    high, low = [], []
    for k in range(_G_K_MIN, 293):
        if k <= 0:
            power = 10 ** -k
            shift = 126 - power.bit_length()
            g = (power << shift if shift >= 0 else power >> -shift) + 1
        else:
            power = 10 ** k
            g = (1 << (125 + power.bit_length())) // power + 1
        high.append(g >> 63)
        low.append(g & (2**63 - 1))
    g1, g0 = np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)
    return g1, g0, g1 >> _u(32), g1 & _LOW32, g0 >> _u(32), g0 & _LOW32


def _mul_high(a_high, a_low, b_high, b_low):
    """The high 64 bits of the 128-bit product of ``a`` < 2^63 and ``b`` < 2^60,
    each given as its 32-bit halves."""
    cross = a_high * b_low
    cross += a_low * b_high         # < 2^63 + 2^60: no carry out
    low = a_low * b_low
    low >>= _u(32)
    low += cross & _LOW32
    low >>= _u(32)
    cross >>= _u(32)
    cross += low
    cross += a_high * b_high
    return cross


def _round_to_odd(g, cp):
    """floor(g * cp / 2^127), its last bit set when the floor is inexact: Schubfach's
    ``rop`` for the 126-bit g (:func:`_schubfach_g`' halves) and ``cp`` < 2^60."""
    g1, g0, g1_high, g1_low, g0_high, g0_low = g
    cp_high, cp_low = cp >> _u(32), cp & _LOW32
    z = g1 * cp                     # the low 64 bits
    z >>= _u(1)
    z += _mul_high(g0_high, g0_low, cp_high, cp_low)
    v = _mul_high(g1_high, g1_low, cp_high, cp_low)
    v += z >> _u(63)
    z &= _LOW63
    z += _LOW63
    z >>= _u(63)
    v |= z
    return v


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal ``d * 10^k`` that reads back as each positive normal
    double of ``x``, nearest to it and with an even last digit on a tie, as
    ``repr`` chooses it: ``d`` uint64 of at most 17 digits, ``k`` int64.  An
    integer below 2^53 is itself, with k = 0."""
    bits = x.view(np.uint64)
    fraction = bits & _u(2**52 - 1)
    c = fraction | _u(2**52)
    biased = (bits >> _u(52)).astype(np.int64)
    q = biased - 1075
    # At a power of two the interval below is half as wide (but not at the smallest normal).
    closer = (fraction == 0) & (biased > 1)
    k = (q * 661971961083 - closer * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    g = tuple(column[k - _G_K_MIN] for column in _schubfach_g())
    cb = c << _u(2)
    vb = _round_to_odd(g, cb << h)
    odd = c & _u(1)
    lower = _round_to_odd(g, (cb - _u(2) + closer.astype(np.uint64)) << h) + odd
    upper = _round_to_odd(g, (cb + _u(2)) << h) - odd
    s = vb >> _u(2)
    # One digit fewer: the one multiple of 10 that the interval can hold.
    tens = s // _u(10) * _u(40)
    up_in, over_in = lower <= tens, tens + _u(40) <= upper
    s4 = s << _u(2)
    s_in, next_in = lower <= s4, s4 + _u(4) <= upper
    tie_up = (vb > s4 + _u(2)) | ((vb == s4 + _u(2)) & (s & _u(1)).astype(bool))
    d = np.where(up_in != over_in, (tens >> _u(2)) + _u(10) * over_in,
                 s + np.where(s_in != next_in, next_in, tie_up))
    power = d == _POW10[17]         # 10^17 becomes 10^16, to keep 17 digits
    d[power] = _POW10[16]
    k += power
    # An integer below 2^53 with a fraction below 1 ulp: c >> (1075 - biased).
    shift = np.clip(1075 - biased, 0, 63).astype(np.uint64)
    integer = (q < 0) & (q > -53) & ((c >> shift) << shift == c)
    d[integer] = (c >> shift)[integer]
    k[integer] = 0
    return d, k


def _blocks(values, n_blocks: int, n_digits: int) -> list[np.ndarray]:
    """The first ``n_blocks`` 2-digit blocks of the uint64 ``values``, each
    read as ``n_digits`` digits, most significant first, as intp."""
    if n_blocks <= 0:
        return []
    if n_digits > 2 * n_blocks:
        values = values // _POW10[n_digits - 2 * n_blocks]
    blocks = []
    for _ in range(n_blocks - 1):
        high = values // _u(100)
        blocks.append((values - high * _u(100)).astype(np.intp))
        values = high
    blocks.append(values.astype(np.intp))
    return blocks[::-1]


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 of ``values`` as the rows of an ``[n x width]``
    uint8 array, padded with NULs.

    A value with e digits before its decimal point, -4 < e <= 16 (e < 1
    counts the zeros after the point as -e), is laid out as ``repr`` does:
    integer digits (``0`` if none), a point and fraction digits (``0`` if
    none), behind a ``-`` if negative.  Each part is written in 2-digit
    blocks from :data:`_LEADING` or :data:`_TRAILING`, which turn the zeros
    before the integer and after the fraction into NULs.  Zero, subnormals,
    non-finite values and the exponent form go through ``repr`` one at a time.
    """
    magnitude = np.abs(values)
    biased = magnitude.view(np.uint64) >> _u(52)
    normal = (biased != 0) & (biased != 2047)
    digits, k = _shortest_digits(np.where(normal, magnitude, 1.0))
    point = 16 + (digits >= _POW10[16]) + k           # digits before the point
    fixed = normal & (point > -4) & (point <= 16)
    # The integer part is the value's own: no shortest decimal crosses an integer below 2^53.
    integer = np.where(fixed, magnitude, 0.0).astype(np.uint64)
    places = np.where(fixed, np.maximum(-k, 0), 0)    # fraction digits, at most 20
    fraction = digits - integer * _POW10[np.minimum(places, 19)]
    fraction[places == 0] = 0
    # The fraction left-aligned in 20 digits: the first 8, then the last 12.
    over = _POW10[np.maximum(places - 8, 0)]
    high = fraction // over
    low = (fraction - high * over) * _POW10[np.clip(20 - places, 0, 19)]
    high *= _POW10[np.maximum(8 - places, 0)]
    n_int = 1 + int((integer.max(initial=0) >= _POW10[2:16:2]).sum())   # 2-digit blocks
    n_frac = max(1, -(-int(places.max(initial=0)) // 2))

    columns = []
    for i, block in enumerate(_blocks(integer, n_int, 2 * n_int)):
        above_zero = integer < _POW10[2 * (n_int - i)]      # no digit before this block
        columns.append(_LEADING[block + (_LAST if i == n_int - 1 else _BLANK) * above_zero])
    columns.append(np.full(len(values), ord("."), dtype="<u2"))
    fraction_blocks = _blocks(high, min(n_frac, 4), 8) + _blocks(low, n_frac - 4, 12)
    below_zero = np.ones(len(values), dtype=bool)           # no digit after this block
    tail = []
    for i in range(n_frac - 1, -1, -1):
        block = fraction_blocks[i]
        tail.append(_TRAILING[block + (_LAST if i == 0 else _BLANK) * below_zero])
        below_zero &= block == 0
    columns += tail[::-1]
    body = np.stack(columns, axis=1).view(np.uint8)
    rows = np.flatnonzero(~fixed)
    width = max(1 + body.shape[1], 24 if rows.size else 0)  # no repr is longer than 24
    cells = np.zeros((len(values), width), dtype=np.uint8)
    cells[:, 0] = np.where(np.signbit(values), ord("-"), 0)
    cells[:, 1:1 + body.shape[1]] = body
    if rows.size:
        texts = [repr(value).encode().ljust(width, b"\0") for value in values[rows].tolist()]
        cells[rows] = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(rows.size, width)
    return cells


def _csv_lines(cells: list[np.ndarray]):
    """One CSV line per row of the ``[n x width]`` uint8 ``cells`` blocks, with
    a ``,`` between them and an LF after the last, as one uint8 array: NUL
    bytes pad the cells and are dropped."""
    n = len(cells[0])
    comma, lf = np.full((n, 1), _COMMA, dtype=np.uint8), np.full((n, 1), _LF, dtype=np.uint8)
    rows = np.concatenate([cells[0], *itertools.chain.from_iterable(
        (comma, cell) for cell in cells[1:]), lf], axis=1).ravel()
    return rows[rows != 0]


def _labelled_lines(dates: np.ndarray, labels: Sequence[str]):
    """One ``date,label`` line per row of the ``[n x 10]`` uint8 ``dates`` and
    entry of ``labels`` (fields as written), as one uint8 array.  The labels
    are joined and encoded once; the dates fill the gaps left before each."""
    joined = "\n".join(labels) + "\n"
    text = joined.encode()
    if len(text) == len(joined):    # ASCII: a label's characters are its bytes
        lengths = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
    else:
        lengths = np.fromiter(map(len, map(str.encode, labels)), dtype=np.int64,
                              count=len(labels))
    lengths += 1
    starts = np.cumsum(lengths) - lengths + 11 * np.arange(len(labels))
    at = (starts[:, None] + np.arange(11)).ravel()
    lines = np.empty(len(text) + at.size, dtype=np.uint8)
    is_text = np.ones(lines.size, dtype=bool)
    is_text[at] = False
    lines[is_text] = np.frombuffer(text, dtype=np.uint8)
    lines[at] = np.concatenate((dates, np.full((len(dates), 1), _COMMA, dtype=np.uint8)),
                               axis=1).ravel()
    return lines


# The characters RFC 4180 quotes a field for: the delimiter, the quote, LF and CR.
_QUOTED_CHARS = (",", '"', "\n", "\r")


def _quoted(fields: Sequence[str]) -> Sequence[str]:
    """``fields`` as a CSV row holds them: a field with a ``,``, ``"``, LF or
    CR is wrapped in quotes with its quotes doubled, the rest stay as they are.

    This is ``csv.writer``'s minimal quoting, except that a bare CR is quoted
    too, so ``csv.reader`` reads every field back whole.  The joined fields
    are searched once; fields are tested one by one only when that finds one.
    """
    joined = "".join(fields)
    if not any(char in joined for char in _QUOTED_CHARS):
        return fields
    return ['"' + field.replace('"', '""') + '"'
            if any(char in field for char in _QUOTED_CHARS) else field
            for field in fields]


def _write_csv(path, header: list[str], n_rows: int, lines) -> None:
    """``header``, then the bytes ``lines(part)`` gives for each slice ``part`` of ``n_rows``."""
    with open(path, "wb") as handle:
        handle.write((",".join(_quoted(header)) + "\n").encode())
        for start in range(0, n_rows, _ROWS_PER_WRITE):
            handle.write(lines(slice(start, start + _ROWS_PER_WRITE)))


def write_frame_csv(frame: TimeSeriesFrame, path) -> None:
    """``date`` column followed by the frame's columns, full float precision."""
    names = frame.column_names
    _write_csv(path, ["date", *names], len(frame), lambda part: _csv_lines(
        [_date_cells(frame.days[part]), *(_float_cells(frame.columns[name][part])
                                          for name in names)]))


def _write_labels(items: DatedLabels, path, header: list[str]) -> None:
    labels = items.labels       # once: a TextColumn decodes on each read
    _write_csv(path, header, len(items), lambda part: _labelled_lines(
        _date_cells(items.days[part]), _quoted(labels[part])))


def write_news_csv(items: DatedLabels, path) -> None:
    _write_labels(items, path, ["date", "text"])


def write_policy_csv(events: DatedLabels, path) -> None:
    _write_labels(events, path, ["date", "category"])


def write_predictions_csv(predictions: list[tuple[dt.date, float]], path) -> None:
    dates, scores = zip(*predictions) if predictions else ((), ())
    days, scores = day_numbers(dates), np.array(scores, dtype=np.float64)
    _write_csv(path, ["date", "risk_score"], len(days), lambda part: _csv_lines(
        [_date_cells(days[part]), _float_cells(scores[part])]))


# ---------------------------------------------------------------------------
# Dataset bundle
# ---------------------------------------------------------------------------


@dataclass
class DatasetBundle:
    """Everything one instrument's run consumes, loaded or synthesized."""

    market: TimeSeriesFrame
    financial: TimeSeriesFrame          # company financials plus macro, outer-joined
    news: DatedLabels
    policy: DatedLabels
    provenance: str = ""

    def __post_init__(self):
        if len(self.market) == 0:
            raise DataError("bundle has an empty market frame")
        lo, hi = self.market.days[[0, -1]]
        if len(self.financial) and (self.financial.days[0] > hi or self.financial.days[-1] < lo):
            raise DataError(f"financial dates {self.financial.span()} "
                            f"do not overlap market range {self.market.span()}")
        for name, events in (("news", self.news), ("policy", self.policy)):
            if len(events) and (events.days.min() > hi or events.days.max() < lo):
                raise DataError(f"{name} dates do not overlap market range {self.market.span()}")


def load_bundle(directory) -> DatasetBundle:
    """Load ``market/financial/macro/news/policy.csv`` from one directory.

    ``market.csv`` is required; the rest default to empty when absent.
    """

    def _path(name):
        return os.path.join(directory, name)

    market = load_market_csv(_path("market.csv"))
    financial = TimeSeriesFrame([], {})
    if os.path.exists(_path("financial.csv")):
        financial = load_financial_csv(_path("financial.csv"))
    if os.path.exists(_path("macro.csv")):
        financial = merge_outer(financial, load_macro_csv(_path("macro.csv")))

    def _labels(name, load):
        return load(_path(name)) if os.path.exists(_path(name)) else DatedLabels([], [])

    return DatasetBundle(market=market, financial=financial,
                         news=_labels("news.csv", load_news_csv),
                         policy=_labels("policy.csv", load_policy_csv),
                         provenance=f"csv:{directory}")


# ---------------------------------------------------------------------------
# Chronological split
# ---------------------------------------------------------------------------


def split_counts(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    """Train, validation and test counts of ``n`` samples; fewer than 10
    samples, or a block left empty, is a ``DataError``."""
    if n < 10:
        raise DataError(f"chronological split needs at least 10 samples, got {n}")
    n_train = int(n * spec.train_frac)
    n_val = int(n * spec.val_frac)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise DataError(
            f"split of {n} samples leaves an empty block: {n_train}/{n_val}/{n_test}"
        )
    return n_train, n_val, n_test


def chronological_split(samples: SampleSet, spec: SplitSpec) -> tuple[SampleSet, SampleSet, SampleSet]:
    """Partition samples into contiguous, time-ordered train/val/test blocks."""
    n_train, n_val, _ = split_counts(len(samples), spec)
    return (
        samples.subset(0, n_train),
        samples.subset(n_train, n_train + n_val),
        samples.subset(n_train + n_val, len(samples)),
    )


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

_VALUES_PER_LINE = 12
# The recipe's column lists, one ``key name name ...`` line each.
_RECIPE_COLUMNS = ("market_cols", "sentiment_cols", "static_cols", "policy_vocab")


def save_model(model, path) -> None:
    """Write a model (and its preprocessing recipe, if any) as versioned text."""
    if isinstance(model, HybridModel):
        headers = {**asdict(model.dims), "dropout_p": model.dropout.p}
    elif isinstance(model, LinearRegressionModel):
        headers = {"n_features": model.n_features, "ridge_lambda": model.ridge_lambda}
    else:
        raise ModelIOError(f"cannot persist model of type {type(model).__name__}")
    lines = [MODEL_MAGIC, f"kind {model.kind}"]
    lines += [f"{name} {value!r}" for name, value in headers.items()]
    pre = model.preprocess
    if pre is not None:
        lines += ["preprocess begin", f"window {pre.window}", f"horizon {pre.config.horizon}",
                  "split " + " ".join(map(repr, astuple(pre.split))),
                  f"y_range {pre.y_min!r} {pre.y_max!r}"]
        # An empty list keeps its key's trailing space.
        lines += [f"{key} " + " ".join(getattr(pre, key)) for key in _RECIPE_COLUMNS]
        lines += [f"stats {name} {cs.mean!r} {cs.std!r} {int(cs.zero_variance)}"
                  for name, cs in pre.stats.items()]
        lines.append("preprocess end")
    for name, array in model.params().items():
        lines.append(f"param {name} {array.ndim} {' '.join(map(str, array.shape))}")
        values = list(map(repr, array.reshape(-1).tolist()))
        lines += [" ".join(values[start:start + _VALUES_PER_LINE])
                  for start in range(0, len(values), _VALUES_PER_LINE)]
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _read_param(path, header: str, lines) -> tuple[str, np.ndarray]:
    """The name and array of the parameter that the ``param`` line ``header``
    opens, its values taken from the lines that follow in ``lines``, up to
    the next ``param`` or ``end`` line.  The header must parse, the value
    count must match its shape and every value must be finite."""
    tokens = header.split()
    try:
        name, ndim, shape = tokens[1], int(tokens[2]), tuple(map(int, tokens[3:]))
        valid = len(shape) == ndim and min(shape, default=0) >= 0
    except (IndexError, ValueError):
        valid = False
    if not valid:
        raise ModelIOError(f"{path}: malformed param header {header!r}")
    count = int(np.prod(shape))
    values: list[str] = []
    while len(values) < count:
        tokens = next(lines, "end").split()
        if tokens[:1] in (["param"], ["end"]):
            raise ModelIOError(f"{path}: parameter {name!r} is truncated: it has "
                               f"{len(values)} of {count} values")
        values += tokens
    if len(values) != count:
        raise ModelIOError(f"{path}: parameter {name!r} has {len(values)} values, "
                           f"expected {count}")
    try:
        array = np.array(values, dtype=np.float64)
    except ValueError as exc:
        raise ModelIOError(f"{path}: bad value in parameter {name!r}: {exc}") from exc
    finite = np.isfinite(array)
    if not finite.all():
        raise ModelIOError(f"{path}: parameter {name!r} holds the non-finite value "
                           f"{values[int(np.argmin(finite))]}")
    return name, array.reshape(shape)


def _recipe(path, fields: dict[str, str], stats: list[str]) -> Preprocess:
    """The checked recipe of a ``preprocess`` block, from its ``key value``
    fields and its ``stats name mean std zero_variance`` lines."""
    columns = {}
    try:
        for line in stats:
            tokens = line.split()
            if len(tokens) != 5:
                raise ModelIOError(f"{path}: malformed stats line: {line!r}")
            columns[tokens[1]] = ColumnStats(float(tokens[2]), float(tokens[3]),
                                             bool(int(tokens[4])))
        (window,), (horizon,) = fields["window"].split(), fields["horizon"].split()
        train, val, test = map(float, fields["split"].split())
        y_min, y_max = map(float, fields["y_range"].split())
        return Preprocess(PipelineConfig(int(window), int(horizon)), SplitSpec(train, val, test),
                          **{key: fields.get(key, "").split() for key in _RECIPE_COLUMNS},
                          stats=columns, y_min=y_min, y_max=y_max)
    except (KeyError, ValueError) as exc:
        raise ModelIOError(f"{path}: bad preprocess block: {exc}") from exc


def _parse_model_text(path) -> tuple[dict[str, str], Preprocess | None, dict[str, np.ndarray]]:
    """The headers, preprocessing recipe and parameters of a model file, in
    one pass: between ``preprocess begin`` and ``preprocess end`` a line is a
    recipe field or ``stats`` line, elsewhere a header, ``param`` or ``end``."""
    lines = iter(read_file(path, ModelIOError)[1].splitlines())
    found = next(lines, "<empty file>")
    if found != MODEL_MAGIC:
        raise ModelIOError(
            f"{path}: not a recognized model file (expected {MODEL_MAGIC!r}, found {found!r})"
        )
    headers: dict[str, str] = {}
    preprocess: Preprocess | None = None
    params: dict[str, np.ndarray] = {}
    recipe: dict[str, str] | None = None  # the fields of an open preprocess block
    stats: list[str] = []
    for line in lines:
        tokens = line.split(maxsplit=1)
        if not tokens:
            continue
        key, value = tokens[0], tokens[1] if len(tokens) > 1 else ""
        if recipe is not None:
            if key == "preprocess" and value.split() == ["end"]:
                preprocess, recipe = _recipe(path, recipe, stats), None
            elif key == "stats":
                stats.append(line)
            else:
                recipe[key] = value
        elif key == "preprocess" and value.split() == ["begin"]:
            recipe, stats = {}, []
        elif key == "param":
            name, array = _read_param(path, line, lines)
            params[name] = array
        elif key == "end":
            return headers, preprocess, params
        else:
            headers[key] = value
    if recipe is not None:
        raise ModelIOError(f"{path}: truncated inside the preprocess block")
    raise ModelIOError(f"{path}: truncated file: missing end marker")


def load_model(path):
    """Reconstruct a model bit-exactly from :func:`save_model` output."""
    headers, preprocess, params = _parse_model_text(path)
    kind = headers.get("kind")
    try:
        if kind == "hybrid":
            dims = ModelDims(**{f.name: int(headers[f.name]) for f in fields(ModelDims)})
            model = HybridModel(
                dims,
                Conv1DLayer(params["conv.kernels"], params["conv.bias"]),
                LSTMCell(params["lstm.w_x"], params["lstm.w_h"], params["lstm.b"]),
                DenseLayer(params["head.w"], params["head.b"]),
                DropoutSpec(float(headers["dropout_p"])),
            )
            what, found = "window and widths", (dims.window, dims.f_market,
                                                dims.f_sentiment, dims.f_static)
        elif kind == "linear":
            n_features = int(headers["n_features"])
            weights, bias = params["weights"], params["bias"]
            if weights.shape != (n_features,) or bias.shape != (1,):
                raise ModelIOError(f"{path}: a linear model needs weights [{n_features}] and "
                                   f"bias [1], found {list(weights.shape)} and "
                                   f"{list(bias.shape)}")
            model = LinearRegressionModel(weights, bias[0], float(headers["ridge_lambda"]))
            what, found = "feature count", n_features
        else:
            raise ModelIOError(f"{path}: unknown model kind {kind!r}")
    except KeyError as exc:
        raise ModelIOError(f"{path}: missing header or parameter {exc}") from exc
    except ValueError as exc:
        # A header that does not parse, or values the model rejects.
        raise ModelIOError(f"{path}: {exc}") from exc
    pre = model.preprocess = preprocess
    if pre is not None:
        recipe = (pre.window, len(pre.market_cols), len(pre.sentiment_cols), len(pre.static_all))
        if kind == "linear":  # the flattened window, then the static row
            recipe = pre.window * len(pre.seq_cols) + len(pre.static_all)
        if recipe != found:
            raise ModelIOError(f"{path}: the recipe gives the {what} {recipe}, "
                               f"the model has {found}")
    return model
