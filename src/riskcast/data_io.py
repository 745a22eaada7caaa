"""CSV ingestion and writing, chronological splits, and model persistence.

File schemas (ISO-8601 dates, decimal floats, RFC-4180 quoting).  Each file
is read once by :func:`~riskcast.errors.read_text` and turned into columns,
and every fault is located from that read.  A file with no ``"``, no CR and
no line longer than ``csv.field_size_limit()`` is split on LF and ``,``; any
other goes through ``csv.reader``, which parses quoted fields and CR line
ends and refuses a field over that limit.  Both give the same rows and the
line each ends on: blank lines are skipped, whitespace in fields is kept.
News and policy load as :class:`~riskcast.frames.DatedLabels`.  The writers
join whole column slices into lines, quoting a text field only when it holds
a ``,``, ``"``, LF or CR:

* ``market.csv``    - ``date,open,close,volume``
* ``financial.csv`` - ``date,profit,debt_ratio,cash_flow``
* ``macro.csv``     - ``date,gdp,cpi,interest_rate`` (folded into the static frame)
* ``news.csv``      - ``date,text``, exactly
* ``policy.csv``    - ``date,category``, exactly

The numeric files may carry extra columns, which load as floats.

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
import io
import itertools
import os
import warnings
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import DataError, ModelIOError, SchemaError, read_text
from .features import ColumnStats, SampleSet
from .frames import DatedLabels, TimeSeriesFrame, calendar_dates, day_numbers
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


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def _csv_fields(path, text: str) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """:func:`_read_fields`' header (unstripped), fields, widths and row lines,
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
    return (header, list(itertools.chain.from_iterable(rows)), widths,
            np.array(lines, dtype=np.int64))


def _read_fields(path) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """The stripped header names of a CSV file, the fields of its non-blank
    data rows in one flat list, row after row, each row's field count, and
    the file line each row ends on (``csv.reader``'s ``line_num``), all from
    one read of the file.

    A file with no ``"``, no CR and no line longer than
    ``csv.field_size_limit()`` is split on LF and ``,``, which gives the
    fields ``csv.reader`` would; any other goes to :func:`_csv_fields`.
    """
    text = read_text(path, SchemaError)
    if not text:
        raise SchemaError(f"{path}: file is empty, expected a header row")
    lines = [] if '"' in text or "\r" in text else text.split("\n")
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    if not lines or lengths.max() > csv.field_size_limit():
        header, fields, widths, row_lines = _csv_fields(path, text)
    else:
        del text
        header = lines[0].split(",") if lines[0] else []
        row_lines = 2 + np.flatnonzero(lengths[1:])
        rows = list(filter(None, lines[1:]))
        del lines
        widths = 1 + np.fromiter(map(str.count, rows, itertools.repeat(",")),
                                 dtype=np.int64, count=len(rows))
        joined = ",".join(rows)
        del rows
        fields = joined.split(",") if joined else []
    return [name.strip() for name in header], fields, widths, row_lines


def _check_rows(path, fields: list[str], widths: np.ndarray, lines: np.ndarray, width: int,
                value_names: list[str]) -> None:
    """Raise the ``file:line`` SchemaError of the first bad row of
    :func:`_read_fields`' rows: wrong field count, bad date or bad value."""
    for end, count, lineno in zip(np.cumsum(widths).tolist(), widths.tolist(), lines.tolist()):
        row, where = fields[end - count:end], f"{path}:{lineno}:"
        if count != width:
            raise SchemaError(f"{where} expected {width} fields, got {count}")
        try:
            dt.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise SchemaError(f"{where} unparseable date {row[0]!r}: {exc}") from exc
        for name, token in zip(value_names, row[1:]):
            try:
                float(token)
            except ValueError as exc:
                raise SchemaError(f"{where} unparseable value {token!r} "
                                  f"in column {name!r}") from exc


def _columns(path, fields: list[str], widths: np.ndarray, lines: np.ndarray, width: int,
             value_names: list[str]) -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
    """Parse the flat ``fields`` of rows ``width`` fields wide column by
    column: the dates as day ordinals, the ``value_names`` columns as one
    ``[columns x rows]`` float matrix, and the remaining raw columns.

    A row of another width, or any bad field, is reported at its file line
    by :func:`_check_rows`.
    """
    values = np.empty((len(value_names), len(widths)))
    try:
        if (widths != width).any():
            raise ValueError("rows with the wrong field count")
        dates = map(dt.date.fromisoformat, map(str.strip, fields[0::width]))
        days = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(widths))
        for column, row in enumerate(values, start=1):
            row[:] = list(map(float, fields[column::width]))
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

    Extra columns are kept as floats.  Rows arriving out of order are
    sorted with a warning; duplicate dates, non-finite values and the values
    ``invalid`` flags (column -> fault and test against 0) are rejected.
    A bad file is reported at its first bad row in file order.
    """
    header, fields, widths, lines = _read_fields(path)
    if not header or header[0] != "date":
        raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
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
        raise SchemaError(f"{path}: duplicate dates {dupes}")
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


def _load_dated_labels(path, label: str) -> DatedLabels:
    """The dated labels of a file whose header is exactly ``date,<label>``, in file order."""
    header, fields, widths, lines = _read_fields(path)
    if header != ["date", label]:
        raise SchemaError(f"{path}: expected header date,{label}, got {header}")
    days, _, (labels,) = _columns(path, fields, widths, lines, 2, [])
    return DatedLabels(days, labels)


def load_news_csv(path) -> DatedLabels:
    return _load_dated_labels(path, "text")


def load_policy_csv(path) -> DatedLabels:
    events = _load_dated_labels(path, "category")
    return DatedLabels(events.days, list(map(str.strip, events.labels)))


# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------


# ``datetime64[D]`` counts days from 1970-01-01; day ordinals from 0001-01-01.
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# Rows formatted at once: whole columns are faster to format than single
# rows, and slices of them keep the writers' transient memory small.
_ROWS_PER_WRITE = 4096


def _iso_dates(days: np.ndarray) -> list[str]:
    """``date.isoformat()`` of each day ordinal, formatted in one array call."""
    return np.datetime_as_string((days - _EPOCH_ORDINAL).astype("datetime64[D]")).tolist()


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


def _write_csv(path, header: list[str], n_rows: int, columns) -> None:
    """``header``, then the rows whose fields ``columns(part)`` gives column by
    column, as strings, for each slice ``part`` of ``n_rows``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_quoted(header)) + "\n")
        for start in range(0, n_rows, _ROWS_PER_WRITE):
            part = slice(start, start + _ROWS_PER_WRITE)
            handle.write("\n".join(map(",".join, zip(*columns(part)))) + "\n")


def _write_dated(days: np.ndarray, values: Sequence, path, header: list[str], fmt) -> None:
    """One row per day ordinal of ``days`` and its entry of ``values``;
    ``fmt`` turns a slice of ``values`` into fields."""
    _write_csv(path, header, len(days),
               lambda part: (_iso_dates(days[part]), fmt(values[part])))


def write_frame_csv(frame: TimeSeriesFrame, path) -> None:
    """``date`` column followed by the frame's columns, full float precision."""
    names = frame.column_names

    def columns(part):
        values = (map(repr, frame.columns[name][part].tolist()) for name in names)
        return _iso_dates(frame.days[part]), *values

    _write_csv(path, ["date", *names], len(frame), columns)


def write_news_csv(items: DatedLabels, path) -> None:
    _write_dated(items.days, items.labels, path, ["date", "text"], _quoted)


def write_policy_csv(events: DatedLabels, path) -> None:
    _write_dated(events.days, events.labels, path, ["date", "category"], _quoted)


def write_predictions_csv(predictions: list[tuple[dt.date, float]], path) -> None:
    dates, scores = zip(*predictions) if predictions else ((), ())
    _write_dated(day_numbers(dates), scores, path, ["date", "risk_score"],
                 lambda scores: map(repr, scores))


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
    from .frames import merge_outer

    def _path(name):
        return os.path.join(directory, name)

    market = load_market_csv(_path("market.csv"))
    financial = TimeSeriesFrame([], {})
    if os.path.exists(_path("financial.csv")):
        financial = load_financial_csv(_path("financial.csv"))
    if os.path.exists(_path("macro.csv")):
        macro = load_macro_csv(_path("macro.csv"))
        financial = merge_outer(financial, macro) if len(financial) else macro

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
    lines = iter(read_text(path, ModelIOError).splitlines())
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
