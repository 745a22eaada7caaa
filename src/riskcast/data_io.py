"""CSV ingestion and writing, chronological splits, and model persistence.

File schemas (ISO-8601 dates, decimal floats, RFC-4180 quoting).  The
writers join whole column slices into lines, quoting a text field only when
it holds a ``,``, ``"``, LF or CR:

* ``market.csv``    - ``date,open,close,volume``
* ``financial.csv`` - ``date,profit,debt_ratio,cash_flow``
* ``macro.csv``     - ``date,gdp,cpi,interest_rate`` (folded into the static frame)
* ``news.csv``      - ``date,text``
* ``policy.csv``    - ``date,category``

Model files are a versioned, self-describing text format: the magic line
``RISKCAST-MODEL v1``, architecture headers, an embedded preprocessing
block, then flat parameter blocks.  The headers come from the model's own
fields (a hybrid's ``ModelDims`` and dropout, a linear model's feature
count and ridge term) and the parameter blocks follow its ``params()``
order.  Floats round-trip bit-exactly via shortest-repr formatting.  One
reader checks every parameter block: its header must parse, its value
count must match its shape and its values must be finite.
"""

from __future__ import annotations

import csv
import datetime as dt
import os
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DataError, ModelIOError, SchemaError
from .features import SampleSet
from .frames import TimeSeriesFrame, calendar_dates, day_numbers
from .models import HybridModel, LinearRegressionModel, ModelDims
from .layers import Conv1DLayer, DenseLayer, DropoutSpec, LSTMCell
from .preprocess import Preprocess, SplitSpec

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


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    """Stripped header names and every non-blank data row of a CSV file."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        rows = list(filter(None, reader))
    return [name.strip() for name in header], rows


def _numbered_rows(path) -> list[tuple[int, list[str]]]:
    """The data rows of :func:`_read_rows`, each with its csv line number
    (the file line the row ends on, counting blank lines and the lines of
    quoted multi-line fields)."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [(reader.line_num, row) for row in reader if row]


def _parse_date(token: str, path, lineno: int) -> dt.date:
    try:
        return dt.date.fromisoformat(token.strip())
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: unparseable date {token!r}: {exc}") from exc


def _parse_float(token: str, column: str, path, lineno: int) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise SchemaError(
            f"{path}:{lineno}: unparseable value {token!r} in column {column!r}"
        ) from exc


def _check_rows(path, width: int, value_names: list[str]) -> None:
    """Re-read ``path`` row by row and raise the ``file:line`` SchemaError of
    its first bad row: wrong field count, bad date or bad value."""
    for lineno, row in _numbered_rows(path):
        if len(row) != width:
            raise SchemaError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        _parse_date(row[0], path, lineno)
        for name, tok in zip(value_names, row[1:]):
            _parse_float(tok, name, path, lineno)


def _columns(path, rows: list[list[str]], width: int, value_names: list[str]
             ) -> tuple[list[dt.date], np.ndarray, list[tuple[str, ...]]]:
    """Parse ``rows`` column by column: the dates, the ``value_names`` columns
    as one ``[columns x rows]`` float matrix, and the remaining raw columns.

    Any bad row is reported at its file line by :func:`_check_rows`.
    """
    try:
        if set(map(len, rows)) != {width}:
            raise ValueError("rows with the wrong field count")
        columns = list(zip(*rows))
        days = list(map(dt.date.fromisoformat, map(str.strip, columns[0])))
        # numpy parses str with Python's float(), so the values are float()'s bits.
        values = np.array(columns[1:len(value_names) + 1], dtype=np.float64)
    except ValueError:
        _check_rows(path, width, value_names)
        raise
    return days, values, columns[len(value_names) + 1:]


def _reject_first(path, bad: np.ndarray, matrix: np.ndarray, value_names: list[str],
                  faults: dict[str, str]) -> None:
    """Raise the ``file:line`` SchemaError of the first value that ``bad`` flags
    in ``matrix`` (``[columns x rows]``), in file order, naming its column's fault."""
    if bad.any():
        row, col = np.argwhere(bad.T)[0]
        name = value_names[col]
        raise SchemaError(f"{path}:{_numbered_rows(path)[row][0]}: {faults[name]} value "
                          f"{float(matrix[col, row])} in column {name!r}")


def _load_numeric_csv(path, required: tuple[str, ...],
                      invalid: dict[str, tuple] | None = None) -> TimeSeriesFrame:
    """Shared loader: a ``date`` column plus named float columns.

    Extra columns are kept as floats.  Rows arriving out of order are
    sorted with a warning; duplicate dates, non-finite values and the values
    ``invalid`` flags (column -> fault and test against 0) are rejected.
    A bad file is reported at its first bad row in file order.
    """
    header, rows = _read_rows(path)
    if not header or header[0] != "date":
        raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
    for column in required:
        if column not in header[1:]:
            raise SchemaError(f"{path}: missing required column {column!r}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    value_names = header[1:]
    dates, matrix, _ = _columns(path, rows, len(header), value_names)
    days = day_numbers(dates)
    order = np.argsort(days, kind="stable")
    ranked = days[order]
    repeated = ranked[1:] == ranked[:-1]
    if repeated.any():
        dupes = calendar_dates(np.unique(ranked[1:][repeated])[:5])
        raise SchemaError(f"{path}: duplicate dates {dupes}")
    _reject_first(path, ~np.isfinite(matrix), matrix, value_names,
                  dict.fromkeys(value_names, "non-finite"))
    invalid = invalid or {}
    bad = np.zeros(matrix.shape, dtype=bool)
    for name, (_, test) in invalid.items():
        bad[value_names.index(name)] = test(matrix[value_names.index(name)], 0)
    _reject_first(path, bad, matrix, value_names, {n: fault for n, (fault, _) in invalid.items()})
    if (np.diff(days) < 0).any():
        warnings.warn(f"{path}: rows are out of date order; loading sorted", stacklevel=2)
    return TimeSeriesFrame(ranked, dict(zip(value_names, matrix[:, order])))


def load_market_csv(path) -> TimeSeriesFrame:
    return _load_numeric_csv(path, MARKET_COLUMNS, _MARKET_INVALID)


def load_financial_csv(path) -> TimeSeriesFrame:
    return _load_numeric_csv(path, FINANCIAL_COLUMNS)


def load_macro_csv(path) -> TimeSeriesFrame:
    return _load_numeric_csv(path, MACRO_COLUMNS)


def _load_dated_labels(path, label: str) -> tuple[list[dt.date], tuple[str, ...]]:
    """The dates and labels of a ``date,<label>`` file, in file order."""
    header, rows = _read_rows(path)
    if header[:2] != ["date", label]:
        raise SchemaError(f"{path}: expected header date,{label}, got {header}")
    if not rows:
        return [], ()
    days, _, (labels,) = _columns(path, rows, 2, [])
    return days, labels


def load_news_csv(path) -> list[tuple[dt.date, str]]:
    return list(zip(*_load_dated_labels(path, "text")))


def load_policy_csv(path) -> list[tuple[dt.date, str]]:
    days, categories = _load_dated_labels(path, "category")
    return list(zip(days, map(str.strip, categories)))


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


def _write_dated(pairs: list[tuple[dt.date, object]], path, header: list[str], fmt) -> None:
    """One row per ``(date, value)`` pair; ``fmt`` turns a slice's values into fields."""
    def columns(part):
        days, values = zip(*pairs[part])
        return _iso_dates(day_numbers(days)), fmt(values)

    _write_csv(path, header, len(pairs), columns)


def write_frame_csv(frame: TimeSeriesFrame, path) -> None:
    """``date`` column followed by the frame's columns, full float precision."""
    names = frame.column_names

    def columns(part):
        values = (map(repr, frame.columns[name][part].tolist()) for name in names)
        return _iso_dates(frame.days[part]), *values

    _write_csv(path, ["date", *names], len(frame), columns)


def write_news_csv(items: list[tuple[dt.date, str]], path) -> None:
    _write_dated(items, path, ["date", "text"], _quoted)


def write_policy_csv(events: list[tuple[dt.date, str]], path) -> None:
    _write_dated(events, path, ["date", "category"], _quoted)


def write_predictions_csv(predictions, path) -> None:
    _write_dated(predictions, path, ["date", "risk_score"], lambda scores: map(repr, scores))


# ---------------------------------------------------------------------------
# Dataset bundle
# ---------------------------------------------------------------------------


@dataclass
class DatasetBundle:
    """Everything one instrument's run consumes, loaded or synthesized."""

    market: TimeSeriesFrame
    financial: TimeSeriesFrame          # company financials plus macro, outer-joined
    news: list[tuple[dt.date, str]]
    policy: list[tuple[dt.date, str]]
    provenance: str = ""

    def __post_init__(self):
        if len(self.market) == 0:
            raise DataError("bundle has an empty market frame")
        lo, hi = self.market.days[[0, -1]]
        if len(self.financial) and (self.financial.days[0] > hi or self.financial.days[-1] < lo):
            raise DataError(f"financial dates {self.financial.span()} "
                            f"do not overlap market range {self.market.span()}")
        for name, events in (("news", self.news), ("policy", self.policy)):
            dates = [d for d, _ in events]
            if dates and (min(dates).toordinal() > hi or max(dates).toordinal() < lo):
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
    news = load_news_csv(_path("news.csv")) if os.path.exists(_path("news.csv")) else []
    policy = load_policy_csv(_path("policy.csv")) if os.path.exists(_path("policy.csv")) else []
    return DatasetBundle(market=market, financial=financial, news=news,
                         policy=policy, provenance=f"csv:{directory}")


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
    if model.preprocess is not None:
        lines += model.preprocess.to_lines()
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


def _parse_model_text(path) -> tuple[dict[str, str], Preprocess | None, dict[str, np.ndarray]]:
    """The headers, preprocessing recipe and parameters of a model file."""
    with open(path, encoding="utf-8") as handle:
        lines = iter(handle.read().splitlines())
    found = next(lines, "<empty file>")
    if found != MODEL_MAGIC:
        raise ModelIOError(
            f"{path}: not a recognized model file (expected {MODEL_MAGIC!r}, found {found!r})"
        )
    headers: dict[str, str] = {}
    preprocess: Preprocess | None = None
    params: dict[str, np.ndarray] = {}
    for line in lines:
        tokens = line.split(maxsplit=1)
        if not tokens:
            continue
        if tokens[0] == "end":
            return headers, preprocess, params
        if line.split() == ["preprocess", "begin"]:
            block = []
            for inner in lines:
                if inner.split() == ["preprocess", "end"]:
                    break
                block.append(inner)
            else:
                raise ModelIOError(f"{path}: truncated inside the preprocess block")
            try:
                preprocess = Preprocess.from_lines(block)
            except ModelIOError as exc:
                raise ModelIOError(f"{path}: {exc}") from exc
        elif tokens[0] == "param":
            name, array = _read_param(path, line, lines)
            params[name] = array
        else:
            headers[tokens[0]] = tokens[1] if len(tokens) > 1 else ""
    raise ModelIOError(f"{path}: truncated file: missing end marker")


def load_model(path):
    """Reconstruct a model bit-exactly from :func:`save_model` output."""
    headers, preprocess, params = _parse_model_text(path)
    kind = headers.get("kind")
    try:
        if kind == "hybrid":
            dims = ModelDims(**{f.name: int(headers[f.name]) for f in fields(ModelDims)})
            return HybridModel(
                dims,
                Conv1DLayer(params["conv.kernels"], params["conv.bias"]),
                LSTMCell(params["lstm.w_x"], params["lstm.w_h"], params["lstm.b"]),
                DenseLayer(params["head.w"], params["head.b"]),
                DropoutSpec(float(headers["dropout_p"])),
                preprocess=preprocess,
            )
        if kind == "linear":
            n_features = int(headers["n_features"])
            weights, bias = params["weights"], params["bias"]
            if weights.shape != (n_features,) or bias.shape != (1,):
                raise ModelIOError(f"{path}: a linear model needs weights [{n_features}] and "
                                   f"bias [1], found {list(weights.shape)} and "
                                   f"{list(bias.shape)}")
            return LinearRegressionModel(weights, bias[0], float(headers["ridge_lambda"]),
                                         preprocess=preprocess)
    except KeyError as exc:
        raise ModelIOError(f"{path}: missing header or parameter {exc}") from exc
    except ValueError as exc:
        # A header that does not parse, or values the model rejects.
        raise ModelIOError(f"{path}: {exc}") from exc
    raise ModelIOError(f"{path}: unknown model kind {kind!r}")
