"""CSV ingestion and writing, chronological splits, and model persistence.

File schemas (``YYYY-MM-DD`` dates, decimal floats, RFC-4180 quoting).  Each
file is read once, as bytes by :func:`~riskcast.errors.read_bytes`, which
decodes a file only to check one that is not ASCII.  One leading UTF-8
byte-order mark is dropped.  A date is ``YYYY-MM-DD`` in ASCII digits, a
Gregorian date from year 1, with surrounding whitespace stripped.  A value
is an ASCII decimal float as ``float()`` reads it, with no ``_``:
surrounding whitespace, a sign or none, then ``digits[.digits]``,
``digits.`` or ``.digits`` with an optional exponent ``(e|E)[+-]?digits``,
or ``inf``, ``infinity`` or ``nan`` in any case.

Two tokenizers feed one parser, and a file's bytes choose its tokenizer
once, before any field is parsed.  A file with a ``"``, a CR or a line
longer than ``csv.field_size_limit()`` characters goes to ``csv.reader``
(:func:`_csv_fields`), which parses quoted fields and CR line ends and
refuses a field over that limit.  Any other goes to :func:`_line_scan`,
whose field bounds are the positions of the file's LF and ``,`` bytes.
Both give the same rows (:class:`_Rows`): a byte buffer, each field's
bounds in it, and each row's width and the line it ends on.  Blank lines
are skipped and whitespace in fields is kept; for ``csv.reader`` the
buffer is the fields re-encoded.

The parser reads whole columns in array passes.  Dates come from the
``[n x 10]`` bytes at each field's start, past any ASCII padding.  Values
come from :func:`_decimal_block`'s array passes over 4,096 fields at a
time.  A value ``[+-]?(digits[.digits]|digits.|.digits)`` under 24 bytes,
with at most 19 digits from its first non-zero digit and 19 after its
point, is ``w / 10^f`` with ``w < 10^19``: both exact in an x87 extended
double (64-bit significand), so the quotient is rounded once there and once
to a double, which gives ``float()``'s correctly rounded double unless the
extended result lies exactly halfway between two doubles (Clinger 1990,
"How to read floating point numbers accurately"; Lemire 2021, "Number
parsing at a gigabyte per second").  A field the array passes cannot
settle is read on its own: a date, such as one padded with non-ASCII
whitespace, once :func:`_date_fault` finds it a date, and a value outside
that form or on a midpoint (or any value where ``long double`` is not the
x87 format) by ``float()``.  No file goes to a second tokenizer.  A file
with a fault is reported at its first bad row, which the array passes
name and :func:`_check_row` alone decodes.  News loads as a
:class:`~riskcast.frames.TextColumn` of byte ranges of the buffer, which
sentiment is scored from with no ``str`` per item; policy categories are
decoded and stripped.

The writers build the bytes of ``_ROWS_PER_WRITE`` rows at a time from
whole column slices, with no Python object per value: dates by
civil-from-days arithmetic, floats as the shortest round-trip digits
(Schubfach) laid out as ``repr`` lays them out, and text fields encoded
once, quoted only when they hold a ``,``, ``"``, LF or CR:

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
import sys
import warnings
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import DataError, ModelIOError, SchemaError, read_bytes, read_file
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
# The bytes of a file scanned for separators at once.
_SCAN = 1 << 18
# A uint64 scalar, so that no operation on uint64 arrays leaves uint64.
_u = np.uint64


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Rows:
    """The stripped header names and the data rows of a CSV file, as byte
    ranges of one buffer ``data``: field ``j`` of row ``i`` is
    ``data[bounds[at[i] + j] + 1:bounds[at[i] + j + 1]]``, row ``i`` holds
    ``widths[i]`` fields and ends on file line ``lines[i]`` (``csv.reader``'s
    ``line_num``).  Blank lines are not rows."""

    header: list[str]
    data: bytes
    bounds: np.ndarray
    at: np.ndarray
    widths: np.ndarray
    lines: np.ndarray

    def fields(self, columns: range, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The starts and ends of the fields in ``columns`` of ``rows``, row after row."""
        at = (self.at[rows][:, None] + np.arange(columns.start, columns.stop)).ravel()
        return self.bounds[at] + 1, self.bounds[at + 1]

    def row(self, i: int) -> list[str]:
        """The fields of row ``i``, decoded."""
        bounds = self.bounds[self.at[i]:self.at[i] + self.widths[i] + 1].tolist()
        return [self.data[a + 1:b].decode() for a, b in zip(bounds, bounds[1:])]


def _csv_fields(path, data: bytes) -> _Rows:
    """The rows of a file's ``data`` as ``csv.reader`` parses them, which
    alone parses quoted fields and CR line ends and refuses a field over
    ``csv.field_size_limit()`` (a ``file:line`` SchemaError).  The reader
    takes its lines from ``TextIOWrapper``, which decodes a few KB at a time
    and ends a line at LF, CR or CRLF only, as a file opened with
    ``newline=""`` does.  The buffer is the fields re-encoded, each after
    one LF, ``_BLOCK`` fields at a time, so that no ``str`` outlives its
    block."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    pieces, sizes, widths, lines, fields = [], [], [], [], []

    def encode():
        joined = "\n" + "\n".join(fields)
        pieces.append(joined.encode())
        # ASCII: a field's characters are its bytes.
        sizes.extend(map(len, fields) if len(pieces[-1]) == len(joined)
                     else (len(field.encode()) for field in fields))
        fields.clear()

    try:
        header = next(reader)
        for row in reader:
            if row:
                fields += row
                widths.append(len(row))
                lines.append(reader.line_num)
                if len(fields) >= _BLOCK:
                    encode()
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    encode()
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.array(sizes, dtype=np.int64) + 1, out=bounds[1:])
    widths = np.array(widths, dtype=np.int64)
    return _Rows([name.strip() for name in header], b"".join(pieces), bounds,
                 np.cumsum(widths) - widths, widths, np.array(lines, dtype=np.int64))


def _line_scan(data: bytes) -> _Rows | None:
    """The rows of a non-empty file's ``data`` split on LF and ``,``, or None
    for a file with a ``"``, a CR or a line longer than
    ``csv.field_size_limit()`` characters, which only ``csv.reader`` reads.
    The LF and ``,`` positions, found in array passes over the bytes, bound
    every field: they are single bytes that never occur inside a multi-byte
    UTF-8 character.  This gives the fields ``csv.reader`` would."""
    if b'"' in data or b"\r" in data:
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    # A slice at a time: its masks stay in a core's cache, and no mask of the whole file is held.
    parts = []
    for start in range(0, len(raw), _SCAN):
        part = raw[start:start + _SCAN]
        parts.append(np.flatnonzero((part == _LF) | (part == _COMMA)) + start)
    seps = np.concatenate(parts)
    # Each line's closing separator as an index into ``bounds``; the end of
    # the file closes the last line, which is empty after a final LF and then
    # not a line.
    closes = np.flatnonzero(np.append(raw[seps] == _LF, not data.endswith(b"\n")))
    bounds = seps if data.endswith(b"\n") else np.append(seps, len(data))
    stops = bounds[closes]
    lengths = np.diff(stops, prepend=-1) - 1
    over = np.flatnonzero(lengths > csv.field_size_limit())  # bytes: at least the characters
    if any(len(data[stop - length:stop].decode()) > csv.field_size_limit()
           for stop, length in zip(stops[over].tolist(), lengths[over].tolist())):
        return None
    header = data[:stops[0]].decode().split(",") if lengths[0] else []
    rows = np.flatnonzero(lengths[1:]) + 1      # the lines after the header that are not blank
    at = closes[rows - 1]
    return _Rows([name.strip() for name in header], data, bounds, at, closes[rows] - at, rows + 1)


def _rows(path, data: bytes) -> _Rows:
    """The rows of a CSV file's ``data``, as :func:`~riskcast.errors.read_bytes`
    gives them, from the one tokenizer its bytes choose: :func:`_line_scan`,
    or :func:`_csv_fields` for a file with a ``"``, a CR or a line over
    ``csv.field_size_limit()`` characters."""
    if not data:
        raise SchemaError(f"{path}: file is empty, expected a header row")
    rows = _line_scan(data)
    return _csv_fields(path, data) if rows is None else rows


# The positions of a ``YYYY-MM-DD`` date's digits, and the days of each month in a common year.
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _date_ordinals(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The day ordinals of the dates in the rows of the ``[n x 10]`` uint8
    array ``cells``, and which rows are dates: ``YYYY-MM-DD`` in ASCII
    digits, a Gregorian date from year 1 (surrounding whitespace is not
    stripped here)."""
    d = (cells[:, _DATE_DIGITS] - ord("0")).astype(np.int32)   # a byte below "0" wraps past 9
    valid = (d < 10).all(axis=1) & (cells[:, 4] == ord("-")) & (cells[:, 7] == ord("-"))
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day = d[:, 4] * 10 + d[:, 5], d[:, 6] * 10 + d[:, 7]
    del d
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + (leap & (month == 2))
    valid &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    # Days from civil: count from 1 March of year 0, so that a leap day ends its year.
    year = year - (month <= 2)
    era, year_of_era = np.divmod(year, 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return (era * 146097 + day_of_era - 305).astype(np.int64), valid


# The values.  A field is read as the three little-endian words
# of the ``_CELL`` bytes that end where it ends, ``_BLOCK`` fields at a time
# (about 100 KB of arrays, which stay in a core's cache).  Its mantissa is
# combined pairwise into a uint64 and divided by a power of 10 in x87
# extended precision, whose 64-bit significand holds any uint64 and 10^k for
# k <= 27 (5^27 < 2^64) exactly, and whose layout shows its rounding bits.
_CELL, _BLOCK = 24, 4096
_EXACT = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
          and sys.byteorder == "little")
_POW10_LD = np.cumprod(np.full(20, 10, dtype=np.longdouble)) / 10
_ALL, _ONES = _u(2**64 - 1), _u(0x0101010101010101)
_WORD_STARTS = np.array([[0], [8], [16]])
# Column n of ``_LAST_BYTES``: the masks of the words of a cell that keep its last n bytes.
_LAST_BYTES = np.left_shift(_ALL, np.maximum(8 * (_CELL - np.arange(_CELL + 1)) - 8 * _WORD_STARTS,
                                             0).astype(np.uint64))
# Byte j of row k is the count of a cell's columns after column 8k + 7 - j.
# Word k of a cell whose one set byte is a 1 at byte b, times row k, holds
# row k's byte 7 - b in its top byte: the count of columns after that 1.
_AFTER = np.array([[sum((16 - 8 * k + j) << (8 * j) for j in range(8))] for k in range(3)],
                  dtype=np.uint64)
_PLUS, _MINUS, _POINT, _ZERO = b"+-.0"


def _pair_digits(words: np.ndarray) -> np.ndarray:
    """Each uint64 of ``words`` that holds 8 digits (0 to 9) in its bytes,
    the first the most significant, as the number they spell, in place:
    each step multiplies adjacent lanes into one of twice the width, making
    pairs, then 4-digit groups, then the number (Lemire 2021)."""
    for factor, shift, mask in ((10 << 8 | 1, 8, 0x00FF00FF00FF00FF),
                                (100 << 16 | 1, 16, 0x0000FFFF0000FFFF),
                                (10_000 << 32 | 1, 32, 0xFFFFFFFF)):
        words *= _u(factor)
        words >>= _u(shift)
        words &= _u(mask)
    return words


def _decimal_block(words: np.ndarray, first: np.ndarray, ends: np.ndarray,
                   lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 values of the fields of ``lengths`` bytes that end at
    ``ends``, with ``first`` their first bytes and ``words`` the file's
    unaligned little-endian uint64 words (``words[i]`` is bytes ``i`` to
    ``i + 7``), and which of the fields are left to ``float()``.

    A field ``[+-]?(digits[.digits]|digits.|.digits)`` with ``f <= 19``
    digits after its point is ``w / 10^f``, with ``w`` the digits as an
    integer, when ``w`` fits the cell's last 19 digit places (20 with the
    point): then ``w < 10^19``.  The quotient of the two exact operands is rounded
    once to 64 bits and then to a double, which is the correctly rounded
    double unless the first result lies exactly halfway between two
    doubles (low 11 significand bits ``10000000000``).  Such a field, any
    field outside the grammar and any field of ``_CELL`` bytes or more is
    left to ``float()``.
    """
    words = words[ends - _CELL + _WORD_STARTS]
    negative = first == _MINUS
    size = lengths - (negative | (first == _PLUS))
    inside = np.take(_LAST_BYTES, size, axis=1, mode="clip")
    digits = words.view(np.uint8) - np.uint8(_ZERO)
    is_digit = (digits < 10).view(np.uint64)
    point = (words.view(np.uint8) == _POINT).view(np.uint64)
    point &= inside
    stray = is_digit | point
    stray ^= _ONES
    stray &= inside
    points = ((point[0] + point[1] + point[2]) * _ONES) >> _u(56)
    after = (point * _AFTER) >> _u(56)
    fraction = (after[0] + after[1] + after[2]).astype(np.intp)
    has_point = points == 1
    # A, the digits with the point as a 0, and F, only those after the point, in
    # 8-digit groups: w = A // 10 + 9 * (F // 10) + A % 10 with a point, A without.
    groups = np.empty((6, len(ends)), dtype=np.uint64)
    np.multiply(is_digit, _u(0xFF), out=groups[:3])
    groups[:3] &= inside
    groups[:3] &= digits.view(np.uint64)
    np.bitwise_and(groups[:3], np.take(_LAST_BYTES, fraction, axis=1, mode="clip"),
                   out=groups[3:])
    _pair_digits(groups)
    tenths = groups[0::3] * _u(10**15)
    tenths += groups[1::3] * _u(10**7)
    tenths += groups[2::3] // _u(10)
    mantissa = tenths[0] * np.where(has_point, _u(1), _u(10))
    mantissa += tenths[1] * _u(9)
    mantissa += groups[2] % _u(10)
    slow = (stray[0] | stray[1] | stray[2]) != 0
    slow |= points > 1
    slow |= size <= points.astype(np.intp)
    slow |= lengths >= _CELL
    slow |= fraction >= len(_POW10_LD)
    slow |= groups[0] >= np.where(has_point, _u(10_000), _u(1_000))
    extended = mantissa.astype(np.longdouble)
    extended /= np.take(_POW10_LD, fraction, mode="clip")
    slow |= (extended.view(np.uint64)[::2] & _u(0x7FF)) == _u(0x400)
    values = extended.astype(np.float64)
    np.negative(values, out=values, where=negative)
    return values, slow


def _decimal_fields(data: bytes, starts: np.ndarray,
                    ends: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The values of the fields ``data[starts[i]:ends[i]]``, as ``float()``
    reads them, and the first ``i`` whose field is not an ASCII decimal float
    (None when every one is; the values from it on are then unset).
    :func:`_decimal_block` converts them in blocks; ``float()`` converts the
    fields it leaves, and every field when extended precision is not x87's."""
    values = np.empty(len(ends))
    slow = np.ones(len(ends), dtype=bool)
    if _EXACT and len(data) >= 2 * _CELL:   # every cell's words are in range, some wrapping round
        words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
        raw = np.frombuffer(data, dtype=np.uint8)
        lengths = ends - starts
        for start in range(0, len(ends), _BLOCK):
            part = slice(start, start + _BLOCK)
            first = raw[np.minimum(starts[part], len(raw) - 1)]  # an empty last field: its ","
            values[part], slow[part] = _decimal_block(words, first, ends[part], lengths[part])
        # A word that would start before the file wraps round to its end, which
        # is outside the field only when the field starts at byte 8 or later.
        slow |= starts < 8
    for i in np.flatnonzero(slow).tolist():
        value = _float(data[starts[i]:ends[i]].decode())
        if value is None:
            return values, i
        values[i] = value
    return values, None


def _float(token: str) -> float | None:
    """``float()`` of one value field, or None when it is not an ASCII
    decimal float: ``float()`` also takes digit-group underscores and any
    Unicode digit."""
    if token.isascii() and "_" not in token:
        try:
            return float(token)
        except ValueError:
            pass
    return None


def _date_fault(token: str) -> str | None:
    """Why one date field is refused once surrounding whitespace is
    stripped, or None when it is a date: its form, ``YYYY-MM-DD`` in ASCII
    digits, then its range from ``datetime.date``, in the words
    ``date.fromisoformat`` uses for the fields it refuses too."""
    text = token.strip()
    if (len(text) == 10 and text.isascii() and text[4] == text[7] == "-"
            and (text[:4] + text[5:7] + text[8:]).isdigit()):
        try:
            dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))
        except ValueError as exc:
            return str(exc)
        return None
    return f"Invalid isoformat string: {text!r}"


def _check_row(path, rows: _Rows, i: int, width: int, value_names: list[str]) -> None:
    """Raise the ``file:line`` SchemaError of row ``i``, the first bad row
    of a file, which the array passes found: its wrong field count, else
    its bad date, else its first bad value.  Only this row is decoded."""
    row, where = rows.row(i), f"{path}:{rows.lines[i]}:"
    if len(row) != width:
        raise SchemaError(f"{where} expected {width} fields, got {len(row)}")
    fault = _date_fault(row[0])
    if fault:
        raise SchemaError(f"{where} unparseable date {row[0]!r}: {fault}")
    for name, token in zip(value_names, row[1:]):
        if _float(token) is None:
            raise SchemaError(f"{where} unparseable value {token!r} in column {name!r}")
    raise AssertionError(f"{path}:{rows.lines[i]}: a fault that the row does not show")


# The ASCII bytes that ``str.strip`` strips.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\v\f\r\x1c\x1d\x1e\x1f")] = True


def _dates(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The day ordinals of the date fields ``data[starts[i]:ends[i]]``, and
    the first ``i`` whose field is not a date (None when every one is; the
    days from it on are then unset).  :func:`_date_ordinals` reads them from
    their ``[n x 10]`` bytes: 10 bytes from the start of a field that long,
    or from the first byte past the ASCII whitespace of a longer field that
    holds exactly 10 other bytes.  Each field left, such as one padded with
    non-ASCII whitespace, is read on its own, once :func:`_date_fault` finds
    it a date."""
    raw = np.frombuffer(data, dtype=np.uint8)
    firsts, sizes = starts, ends - starts
    padded = np.flatnonzero(sizes > 10)
    if padded.size:
        # Every byte of the padded fields, field after field.
        size = sizes[padded]
        heads = np.cumsum(size) - size
        at = np.arange(heads[-1] + size[-1]) + np.repeat(starts[padded] - heads, size)
        space = _SPACE[raw[at]]
        firsts, sizes = starts.copy(), sizes.copy()
        firsts[padded] = np.minimum.reduceat(np.where(space, len(raw), at), heads)
        sizes[padded] = np.add.reduceat(~space, heads, dtype=np.intp)
    # The 10 bytes from each first byte, as the unaligned uint64 and uint16 of
    # the file there; a field too short to be a date reads other bytes.
    cells = np.zeros(len(starts), dtype=[("head", "<u8"), ("tail", "<u2")])
    if len(data) >= 10:
        firsts = np.minimum(firsts, len(data) - 10)
        cells["head"] = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))[firsts]
        cells["tail"] = np.ndarray((len(data) - 1,), "<u2", data, strides=(1,))[firsts + 8]
    days, valid = _date_ordinals(cells.view(np.uint8).reshape(-1, 10))
    valid &= sizes == 10
    for i in np.flatnonzero(~valid).tolist():
        token = data[starts[i]:ends[i]].decode()
        if _date_fault(token):
            return days, i
        days[i] = dt.date.fromisoformat(token.strip()).toordinal()
    return days, None


def _dated_columns(path, rows: _Rows, width: int,
                   value_names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The day ordinals of ``rows``, which must be ``width`` fields wide, and
    the ``[columns x rows]`` values of the ``value_names`` columns after the
    date, read in array passes over a block of rows at a time.  The passes
    name the first bad row of a file with a fault: the first row of another
    width, or an earlier one with a bad date or value; :func:`_check_row`
    reports it."""
    n_rows, n_values = len(rows.widths), len(value_names)
    # Only rows before the first faulty one are read: the first row of
    # another width bounds the dates, and the first bad date the values.
    wrong = np.flatnonzero(rows.widths != width)
    first = int(wrong[0]) if wrong.size else n_rows
    days, bad = _dates(rows.data, *rows.fields(range(1), slice(0, first)))
    first = first if bad is None else bad
    values = np.empty((n_values, n_rows))
    # Rows a block at a time, whose values fill one of ``_decimal_fields``' blocks.
    step = max(1, _BLOCK // max(1, n_values))
    for start in range(0, first if n_values else 0, step):
        part = slice(start, min(start + step, first))
        block, bad = _decimal_fields(rows.data, *rows.fields(range(1, 1 + n_values), part))
        if bad is not None:
            first = start + bad // n_values
            break
        values[:, part] = block.reshape(-1, n_values).T
    if first < n_rows:
        _check_row(path, rows, first, width, value_names)
    return days, values


def _reject_first(path, lines: np.ndarray, bad: np.ndarray, matrix: np.ndarray,
                  value_names: list[str], faults: dict[str, str]) -> None:
    """Raise the ``file:line`` SchemaError of the first value that ``bad`` flags
    in ``matrix`` (``[columns x rows]``), in file order, naming its column's fault."""
    if bad.any():
        row, col = np.argwhere(bad.T)[0]
        name = value_names[col]
        raise SchemaError(f"{path}:{lines[row]}: {faults[name]} value "
                          f"{float(matrix[col, row])} in column {name!r}")


def _check_header(path, header: list[str], required: tuple[str, ...]) -> None:
    """Refuse a numeric file's header unless ``date`` comes first, no name
    repeats and every ``required`` column is there."""
    if not header or header[0] != "date":
        raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise SchemaError(f"{path}: header repeats column names {repeated}")
    for column in required:
        if column not in header[1:]:
            raise SchemaError(f"{path}: missing required column {column!r}")


def _load_numeric_csv(path, required: tuple[str, ...],
                      invalid: dict[str, tuple] | None = None) -> TimeSeriesFrame:
    """Shared loader: a ``date`` column plus named float columns.

    Extra columns are kept as floats; a name given twice in the header is
    rejected.  Rows arriving out of order are sorted with a warning;
    duplicate dates, non-finite values and the values ``invalid`` flags
    (column -> fault and test against 0) are rejected.
    A bad file is reported at its first bad row in file order.
    """
    rows = _rows(path, read_bytes(path, SchemaError))
    header, lines = rows.header, rows.lines
    _check_header(path, header, required)
    if not len(lines):
        raise SchemaError(f"{path}: no data rows")
    value_names = header[1:]
    days, matrix = _dated_columns(path, rows, len(header), value_names)
    del rows
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


def _load_dated_labels(path, label: str) -> tuple[np.ndarray, TextColumn]:
    """The days and labels of a file whose header is exactly ``date,<label>``,
    in file order, the labels as byte ranges of the tokenizer's buffer."""
    rows = _rows(path, read_bytes(path, SchemaError))
    if rows.header != ["date", label]:
        raise SchemaError(f"{path}: expected header date,{label}, got {rows.header}")
    days, _ = _dated_columns(path, rows, 2, [])
    return days, TextColumn(rows.data, *rows.fields(range(1, 2)))


def load_news_csv(path) -> DatedLabels:
    return DatedLabels(*_load_dated_labels(path, "text"))


def load_policy_csv(path) -> DatedLabels:
    days, categories = _load_dated_labels(path, "category")
    return DatedLabels(days, [category.strip() for category in categories.decode()])


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
# Schubfach way to render doubles"), on uint64 arrays.
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
