"""CSV ingestion, the diagnostics report model, and deterministic JSON output.

Reports are emitted as canonical JSON: fixed key order, floating-point
values rendered with 17 significant digits (which round-trips float64
exactly), matrices as row-major arrays of arrays, and a trailing
newline.  Two runs on the same input and settings produce byte-identical
text.  A list or tuple of plain floats (a matrix row, a score or weight
list) is formatted in one ``%.17g`` pass, and one of ``(int, int)``
pairs (a witness list) in one ``%d`` pass.  A list of two or more
records of one dataclass type (the sweep's rows) renders column by
column when each field holds only exact floats, ints or bools, and then
fills one row template per record.  All three give the same bytes as
rendering each item on its own.

The record dataclasses are the report's one schema.  A record renders as
its fields in declaration order and an Enum as its value; ``parse_report``
reads a report back through the same field declarations, so each field
must have the JSON type that ``emit_report`` writes for it.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import re
from dataclasses import dataclass, is_dataclass
from functools import lru_cache
from itertools import chain
from types import UnionType
from typing import NoReturn, Union, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    ModelEnsemble,
    ObservationSeries,
    WeightVector,
    cosine_matrix,
    correspondence_matrix,  # unused here; perfbench/worker.py traces it by name
    ensemble_score,
    model_scores,  # unused here; perfbench/worker.py traces it by name
    residuals,
)
from .diagnostics import (
    DEFAULT_TOL_COS,
    DEFAULT_TOL_EQUAL,
    Regime,
    ResultVerdict,
    ScoreBounds,
    _check_tolerances,
    check_result1,
    check_result2,
    check_result3,
    classify_regime,
    schwartz_bounds,
)
from .errors import CsvFormatError, CsvParseError, ValidationError

__all__ = [
    "SCHEMA_VERSION",
    "ReportSettings",
    "DiagnosticsReport",
    "build_report",
    "emit_report",
    "parse_report",
    "render_json",
    "parse_ensemble_csv",
    "format_ensemble_csv",
]

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class ReportSettings:
    """Every tolerance and flag that shaped a report."""

    tol_equal: float
    tol_cos: float
    weights_mode: str
    opt_max_iter: int | None = None
    opt_tol: float | None = None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Self-contained summary of one diagnostic run.

    Degenerate inputs surface as flags, never as sentinel numbers: with
    a zero-residual member, ``cosines`` is None and ``perfect_models``
    names it, and the angle-based verdicts and the regime are None; with
    a single model, all three verdicts and the regime are None.
    """

    interval_start: int
    interval_end: int
    n_points: int
    model_names: tuple[str, ...]
    weights_used: tuple[float, ...]
    per_model_scores: tuple[float, ...]
    correspondence: tuple[tuple[float, ...], ...]
    cosines: tuple[tuple[float, ...], ...] | None
    perfect_models: tuple[int, ...]
    ensemble_score: float
    best_index: int
    best_name: str
    s_min_sq: float
    result1: ResultVerdict | None
    result2: ResultVerdict | None
    result3: ResultVerdict | None
    bounds: ScoreBounds
    regime: Regime | None
    settings: ReportSettings

    def __post_init__(self) -> None:
        """Refuse what ``build_report`` cannot produce, so that a parsed
        report obeys the same rules: one entry per model, M×M matrices,
        indices and witness pairs ``i < j`` in range, the best member's
        name, and simplex weights."""
        m = len(self.model_names)
        for name in ("weights_used", "per_model_scores"):
            if len(getattr(self, name)) != m:
                raise _malformed(f"report.{name}", f"expected {m} entries, one per model")
        for name in ("correspondence", "cosines"):
            matrix = getattr(self, name)
            if matrix is not None and (len(matrix) != m or set(map(len, matrix)) - {m}):
                raise _malformed(f"report.{name}", f"expected a {m}x{m} matrix")
        if not 0 <= self.best_index < m:
            raise _malformed("report.best_index", f"{self.best_index} is not one of {m} models")
        if not all(0 <= i < m for i in self.perfect_models):
            raise _malformed("report.perfect_models", f"not all of {m} models")
        for name in ("result1", "result2", "result3"):
            verdict = getattr(self, name)
            if verdict is not None and not all(0 <= i < j < m for i, j in verdict.witnesses):
                raise _malformed(f"report.{name}.witnesses", f"not all pairs i < j of {m} models")
        if self.best_name != self.model_names[self.best_index]:
            raise _malformed("report.best_name", f"not model {self.best_index}'s name")
        try:
            WeightVector(self.weights_used)
        except ValidationError as exc:
            raise _malformed("report.weights_used", str(exc)) from None


def _matrix_rows(matrix: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(map(tuple, matrix.tolist()))


def build_report(
    obs: ObservationSeries,
    ens: ModelEnsemble,
    weights: WeightVector,
    *,
    tol_equal: float = DEFAULT_TOL_EQUAL,
    tol_cos: float = DEFAULT_TOL_COS,
    weights_mode: str = "custom",
    opt_max_iter: int | None = None,
    opt_tol: float | None = None,
) -> DiagnosticsReport:
    """Run the full diagnostic battery and collect it into one report.

    The residual set is built once, and every check reads its geometry.
    The regime tolerances are checked even where no regime is classified.
    """
    _check_tolerances(tol_equal, tol_cos)
    rs = residuals(ens, obs)
    m = ens.n_models
    angles_defined = m >= 2 and not rs.perfect
    return DiagnosticsReport(
        interval_start=int(obs.times[0]),
        interval_end=int(obs.times[-1]),
        n_points=obs.n_points,
        model_names=ens.model_names,
        weights_used=tuple(weights.weights.tolist()),
        per_model_scores=tuple(rs.scores.tolist()),
        correspondence=_matrix_rows(rs.entries),
        cosines=None if rs.perfect else _matrix_rows(cosine_matrix(rs)),
        perfect_models=rs.perfect,
        ensemble_score=ensemble_score(rs, weights),
        best_index=rs.best,
        best_name=ens.model_names[rs.best],
        s_min_sq=rs.s_min_sq,
        result1=check_result1(rs, weights) if m >= 2 else None,
        result2=check_result2(rs, weights) if angles_defined else None,
        result3=check_result3(rs, weights) if angles_defined else None,
        bounds=schwartz_bounds(rs, weights),
        regime=classify_regime(rs, tol_equal, tol_cos) if angles_defined else None,
        settings=ReportSettings(
            tol_equal=float(tol_equal),
            tol_cos=float(tol_cos),
            weights_mode=str(weights_mode),
            opt_max_iter=None if opt_max_iter is None else int(opt_max_iter),
            opt_tol=None if opt_tol is None else float(opt_tol),
        ),
    )


# --------------------------------------------------------------------------
# Canonical JSON
# --------------------------------------------------------------------------


_NON_FINITE = "reports must not contain NaN or infinite values"

#: An integral cell of a bulk float row, such as ``,1,`` or ``,-0,``:
#: ``%.17g`` drops the fraction that JSON needs to type it as a float.
_INTEGRAL_CELL = re.compile(r",(-?\d+)(?=,)")


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValidationError(_NON_FINITE)
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"  # keep JSON floats typed as floats
    return text


def _render_floats(values) -> str:
    """A sequence of exact floats as one ``%.17g`` pass, the same text as
    ``_format_float`` on each."""
    text = ("," + "%.17g," * len(values)) % tuple(values)
    if "n" in text:  # "inf" or "nan"
        raise ValidationError(_NON_FINITE)
    if text.count(".") != len(values):  # some cell has no fraction
        text = _INTEGRAL_CELL.sub(r",\1.0", text)
    return "[" + text[1:-1] + "]"


def _int_pairs(values) -> tuple[int, ...] | None:
    """The items of a sequence of ``(int, int)`` tuples, flattened, or
    None if it is anything else."""
    if set(map(type, values)) != {tuple} or set(map(len, values)) != {2}:
        return None
    flat = tuple(chain.from_iterable(values))
    return flat if set(map(type, flat)) == {int} else None


@lru_cache(maxsize=1024)
def _render_key(key: str) -> str:
    return json.dumps(key) + ":"


def _render_records(values) -> str | None:
    """Two or more records of one dataclass type whose every field column
    is all exact floats, all exact ints or all exact bools, column by
    column; else None."""
    if len(values) < 2:
        return None
    kind = type(values[0])
    if not is_dataclass(kind) or set(map(type, values)) != {kind}:
        return None
    columns = list(zip(*[vars(value).values() for value in values]))
    kinds = [set(map(type, column)) for column in columns]
    if not all(types in ({float}, {int}, {bool}) for types in kinds):
        return None
    cells = [
        _render_floats(column)[1:-1].split(",") if types == {float}
        else [("false", "true")[item] for item in column] if types == {bool}
        else column  # exact ints: "%s" gives the same text as str(int)
        for column, types in zip(columns, kinds)
    ]
    row = "{" + ",".join([_render_key(name) + "%s" for name in vars(values[0])]) + "}"
    return "[" + ",".join([row] * len(values)) % tuple(chain.from_iterable(zip(*cells))) + "]"


def _render(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) == {float}:
            return _render_floats(value)
        pairs = _int_pairs(value)
        if pairs is not None:
            return "[" + (("[%d,%d]," * len(value)) % pairs)[:-1] + "]"
        records = _render_records(value)
        if records is not None:
            return records
        return "[" + ",".join([_render(item) for item in value]) + "]"
    if is_dataclass(value):  # a record: its fields, in declaration order
        value = vars(value)
    if isinstance(value, dict):
        parts = [_render_key(str(k)) + _render(v) for k, v in value.items()]
        return "{" + ",".join(parts) + "}"
    if isinstance(value, enum.Enum):
        return _render(value.value)
    raise TypeError(f"cannot serialize {type(value).__name__} to canonical JSON")


def render_json(payload: dict) -> str:
    """Canonical, newline-terminated JSON for a payload dict.

    Keys stay in insertion order, floats carry 17 significant digits,
    and no whitespace is inserted, so equal payloads yield byte-equal
    text.
    """
    return _render(payload) + "\n"


#: The report fields that JSON nests, each with its object and its key
#: there; an object stands where its first field does.
_GROUPS = {
    "interval_start": ("interval", "start"),
    "interval_end": ("interval", "end"),
    "n_points": ("interval", "n_points"),
    "best_index": ("best", "index"),
    "best_name": ("best", "name"),
    "s_min_sq": ("best", "s_min_sq"),
}


def report_to_dict(report: DiagnosticsReport) -> dict:
    """Report payload with the documented key order: the report's fields
    in declaration order, those in ``_GROUPS`` nested, records as they are."""
    payload = {"schema_version": SCHEMA_VERSION}
    for name, value in vars(report).items():
        if name in _GROUPS:
            group, key = _GROUPS[name]
            payload.setdefault(group, {})[key] = value
        else:
            payload[name] = value
    return payload


def emit_report(report: DiagnosticsReport) -> str:
    """Serialize a report to canonical JSON text."""
    return render_json(report_to_dict(report))


def _malformed(where: str, problem: str) -> ValidationError:
    return ValidationError(f"malformed report structure: {where}: {problem}")


#: The types, as ``json.loads`` returns them, that each scalar field type
#: accepts: exact types, so that a bool is not a number.
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _decode(kind, value, where: str):
    """``value``, as ``json.loads`` returned it, as an instance of the field
    type ``kind``: ``X | None``, a tuple, a record, an Enum or a scalar."""
    origin = get_origin(kind)
    if origin in (Union, UnionType):  # declared as X | None
        inner, _ = get_args(kind)
        return None if value is None else _decode(inner, value, where)
    if origin is tuple:
        if type(value) is not list:
            raise _malformed(where, f"expected an array, got {type(value).__name__}")
        args = get_args(kind)
        if args[-1] is Ellipsis:
            item_types = list(get_args(args[0]))  # of a fixed-length tuple item
            if set(map(type, value)) <= {args[0]}:  # scalars of that exact type
                return tuple(value)
            if item_types and all(
                type(item) is list and list(map(type, item)) == item_types for item in value
            ):  # fixed-length tuples of scalars of those exact types
                return tuple(map(tuple, value))
            return tuple([_decode(args[0], item, where) for item in value])
        if len(value) != len(args):
            raise _malformed(where, f"expected {len(args)} items, got {len(value)}")
        return tuple(map(_decode, args, value, [where] * len(args)))
    if isinstance(kind, enum.EnumMeta):
        try:
            return kind(value)
        except (ValueError, TypeError):
            raise _malformed(where, f"unknown {kind.__name__} {_quote(str(value))}") from None
    if type(value) not in (_SCALARS.get(kind) or (dict,)):  # a record is an object
        raise _malformed(where, f"expected {kind.__name__}, got {type(value).__name__}")
    if is_dataclass(kind):
        decoded = {}
        for name, field_kind in get_type_hints(kind).items():  # a record's fields
            if name not in value:
                raise _malformed(f"{where}.{name}", "missing")
            decoded[name] = _decode(field_kind, value[name], f"{where}.{name}")
        return kind(**decoded)
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise _malformed(where, "number out of range") from None


def parse_report(text: str) -> DiagnosticsReport:
    """Rebuild a DiagnosticsReport from emitted JSON text: the inverse of
    ``emit_report``.  Every field is decoded through its declared type, and
    a key that is missing or whose JSON type differs from what
    ``emit_report`` writes raises ValidationError."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also too many digits
        raise ValidationError(f"malformed report JSON: {exc}") from None
    if type(data) is not dict:
        raise _malformed("report", f"expected an object, got {type(data).__name__}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported report schema_version {data.get('schema_version')!r}"
        )
    flat = dict(data)
    for name, (group, key) in _GROUPS.items():
        try:
            flat[name] = data[group][key]
        except (KeyError, TypeError):  # TypeError: the group is not an object
            raise _malformed(f"{group}.{key}", "missing") from None
    return _decode(DiagnosticsReport, flat, "report")


# --------------------------------------------------------------------------
# CSV ingestion
# --------------------------------------------------------------------------


#: Error messages quote at most this many characters of an offending cell.
_QUOTE_CHARS = 40


def _quote(cell: str) -> str:
    """``repr`` of a cell, cut after ``_QUOTE_CHARS`` characters and then
    followed by its length, so that one bad cell gives one short line."""
    if len(cell) <= _QUOTE_CHARS:
        return repr(cell)
    return f"{cell[:_QUOTE_CHARS] + '…'!r} ({len(cell)} characters)"


def _parse_time(cell: str, row: int, column: int) -> int:
    text = cell.strip()
    if not text:
        raise CsvParseError(row, column, "empty cell")
    if "_" in text:
        raise CsvParseError(row, column, f"invalid integer {_quote(cell)}")
    try:
        value = int(text)
    except ValueError:
        raise CsvParseError(row, column, f"invalid integer {_quote(cell)}") from None
    if not -(2**63) <= value < 2**63:
        raise CsvParseError(
            row, column, f"integer {_quote(cell)} is out of the int64 range"
        )
    return value


def _parse_value(cell: str, row: int, column: int) -> float:
    text = cell.strip()
    if not text:
        raise CsvParseError(row, column, "empty cell")
    if "_" in text:
        raise CsvParseError(row, column, f"invalid number {_quote(cell)}")
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(row, column, f"invalid number {_quote(cell)}") from None
    if not math.isfinite(value):
        raise CsvParseError(row, column, f"non-finite value {_quote(cell)}")
    return value


#: Data rows per chunk of the converter.  A chunk that it rejects is
#: checked again row by row, so an error costs at most this many strict rows.
_CHUNK_ROWS = 2048

#: Text holding any of these goes to ``csv.reader``, the only tokenizer
#: that handles them: quoting, carriage-return line ends, and NUL (which
#: ``csv.reader`` refuses before Python 3.11).
_READER_ONLY = ('"', "\r", "\0")


class _LineRows:
    """Rows of CSV text without quotes, carriage returns or NUL: the
    non-blank lines, split on commas."""

    def __init__(self, text: str) -> None:
        self.lines = [line for line in text.split("\n") if line]
        header = self.lines[0] if self.lines else ""
        #: No data line holds an underscore, which ``int`` and ``float``
        #: accept and the format does not, so ``_load_plain`` may convert them.
        self.plain = text.find("_", text.find(header) + len(header)) < 0

    def __len__(self) -> int:
        return len(self.lines)

    def row(self, index: int) -> list[str]:
        return self.lines[index].split(",")

    def cells(self, start: int, stop: int, width: int) -> list[str] | None:
        """Rows ``[start, stop)`` as one row-major cell list, or None when
        a row is not ``width`` cells wide or a cell holds an underscore."""
        chunk = self.lines[start:stop]
        commas = width - 1
        if any(line.count(",") != commas for line in chunk):
            return None
        block = ",".join(chunk)
        return None if "_" in block else block.split(",")


class _ReaderRows:
    """Rows of any other CSV text, tokenized by ``csv.reader``."""

    plain = False  # only csv.reader tokenizes quotes, carriage returns and NUL

    def __init__(self, text: str) -> None:
        try:
            self.rows = [row for row in csv.reader(io.StringIO(text)) if row]
        except csv.Error as exc:
            raise CsvFormatError(f"malformed CSV: {exc}") from None

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, index: int) -> list[str]:
        return self.rows[index]

    def cells(self, start: int, stop: int, width: int) -> list[str] | None:
        """As ``_LineRows.cells``."""
        chunk = self.rows[start:stop]
        if any(len(row) != width for row in chunk):
            return None
        cells = [cell for row in chunk for cell in row]
        return None if any("_" in cell for cell in cells) else cells


def _load_plain(lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Times and values of a chunk of plain lines without an underscore, by
    numpy's C reader, or None if it refuses them or a check fails.

    The reader strips the same whitespace as ``str.strip`` and converts with
    the ``PyOS_string_to_double`` that ``float`` calls, but refuses non-ASCII
    digits, so a value it accepts is what ``_parse_value`` gives.  Its shape
    must be exactly one row of ``width`` cells per line, which catches ragged
    rows, trailing commas and any line it skipped.  The times are read again
    with ``int``; one padded with ``"\\x1c"`` to ``"\\x1f"``, which ``int``
    refuses and ``_parse_time`` strips, is left to ``_convert``.
    """
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        times = np.array([int(line.partition(",")[0]) for line in lines], dtype=np.int64)
    except (ValueError, OverflowError):  # OverflowError: outside int64
        return None
    if table.shape != (len(lines), width) or not np.isfinite(table).all():
        return None
    return times, table[:, 1:]


def _convert(cells: list[str], width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Times and values of a chunk's row-major cells, or None if any cell
    breaks a rule.  A cell that ``int`` or ``float`` accepts, as it is or
    stripped, in int64 or finite, passes ``_parse_time`` or
    ``_parse_value`` with the same value unless it holds an underscore,
    which the tokenizers screen out."""
    try:
        times = np.array(list(map(int, cells[::width])), dtype=np.int64)
        table = np.array(list(map(float, cells)), dtype=np.float64)
    except (ValueError, OverflowError):  # OverflowError: outside int64
        # int and float refuse the "\x1c" to "\x1f" padding that str.strip removes
        stripped = list(map(str.strip, cells))
        return None if stripped == cells else _convert(stripped, width)
    values = table.reshape(times.size, width)[:, 1:]
    return (times, values) if np.isfinite(values).all() else None


def _validate_row(row: list[str], offset: int, width: int, seen: set[int]) -> None:
    """Raise the first error in data row ``offset``, else add its time to ``seen``."""
    if len(row) != width:
        raise CsvParseError(
            offset,
            len(row) + 1 if len(row) < width else width + 1,
            f"expected {width} fields, got {len(row)}",
        )
    t = _parse_time(row[0], offset, 1)
    if t in seen:
        raise CsvFormatError(f"duplicate time {t} at row {offset}")
    seen.add(t)
    for column, cell in enumerate(row[1:], start=2):
        _parse_value(cell, offset, column)


def _time_order(times: np.ndarray) -> np.ndarray:
    """Stable sorting order of the times of data rows 2, 3, ...; raise at
    the first row whose time an earlier row already has."""
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        first = int(repeats.min())
        raise CsvFormatError(f"duplicate time {int(times[first])} at row {first + 2}")
    return order


def _reject_chunk(
    rows: _LineRows | _ReaderRows,
    start: int,
    stop: int,
    width: int,
    earlier: list[np.ndarray],
) -> NoReturn:
    """Raise the error that the row-by-row rules meet first, given that
    the converter rejected rows ``[start, stop)`` and accepted all before."""
    times = np.concatenate(earlier) if earlier else np.empty(0, dtype=np.int64)
    _time_order(times)
    seen = set(times.tolist())
    for index in range(start, stop):
        _validate_row(rows.row(index), index + 1, width, seen)
    raise ValidationError(
        f"internal inconsistency: the CSV converter rejected rows {start + 1}-{stop} "
        "that the strict rules accept"
    )


def parse_ensemble_csv(text: str) -> tuple[ObservationSeries, ModelEnsemble]:
    """Parse aligned observations and model outputs from CSV text.

    Expected layout: a header row ``t,Y,<name>,...`` with at least one
    model column, then one row per time point.  Times are what ``int()``
    accepts, within int64, and unique; rows are sorted by time on ingest.
    Values are what ``float()`` accepts and is finite.  Both allow
    surrounding whitespace and non-ASCII decimal digits, and neither
    allows ``_``.  Rows and columns in error messages are 1-based,
    counting the header as row 1 and blank lines not at all; a cell is
    quoted up to its first ``_QUOTE_CHARS`` characters.

    Text that holds a quote, a carriage return or NUL is tokenized by
    ``csv.reader``; any other text is split into its non-blank lines and
    those on commas, which is what ``csv.reader`` would give, faster.
    The data rows are then converted in chunks of ``_CHUNK_ROWS``, by up
    to three tiers.  A chunk of plain text is converted by numpy's C
    reader (``_load_plain``) when no data line holds an underscore.  A
    chunk that it refuses (non-ASCII digits, for example), and every
    chunk of ``csv.reader`` rows, has its times go through ``int`` and
    its values through ``float`` at once (``_convert``).  A
    chunk with a row of the wrong width, an underscore, a cell that
    ``int``/``float`` refuse, a time outside int64 or a non-finite value
    is checked again row by row with the strict rules (``_validate_row``),
    which raise the same error, at the same row and column, as checking
    every row in turn would.  Repeated times are found over all chunks at
    once.
    """
    rows = _ReaderRows(text) if any(c in text for c in _READER_ONLY) else _LineRows(text)
    if not len(rows):
        raise CsvFormatError("input is empty")
    header = [cell.strip() for cell in rows.row(0)]
    if len(header) < 3:
        raise CsvFormatError(
            "expected at least 3 columns (t, Y, and one model column); "
            f"got {len(header)}"
        )
    if header[0] != "t" or header[1] != "Y":
        raise CsvFormatError(
            f"header must start with 't,Y'; got {','.join(header[:2])!r}"
        )
    names = header[2:]
    if len(rows) < 2:
        raise CsvFormatError("no data rows")

    width = len(header)
    time_chunks: list[np.ndarray] = []
    value_chunks: list[np.ndarray] = []
    for start in range(1, len(rows), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, len(rows))
        converted = _load_plain(rows.lines[start:stop], width) if rows.plain else None
        if converted is None:
            cells = rows.cells(start, stop, width)
            converted = None if cells is None else _convert(cells, width)
        if converted is None:
            _reject_chunk(rows, start, stop, width, time_chunks)
        time_chunks.append(converted[0])
        value_chunks.append(converted[1])

    times = np.concatenate(time_chunks)
    order = _time_order(times)
    values = np.concatenate(value_chunks)[order]
    obs = ObservationSeries(times[order], values[:, 0])
    ens = ModelEnsemble(tuple(names), values[:, 1:].T)
    return obs, ens


def format_ensemble_csv(obs: ObservationSeries, ens: ModelEnsemble) -> str:
    """Inverse of parse_ensemble_csv; floats use shortest exact notation."""
    if ens.n_points != obs.n_points:
        raise ValidationError("observations and ensemble must be aligned")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t", "Y", *ens.model_names])
    for i in range(obs.n_points):
        writer.writerow(
            [
                int(obs.times[i]),
                repr(float(obs.values[i])),
                *(repr(float(x)) for x in ens.outputs[:, i]),
            ]
        )
    return buffer.getvalue()
