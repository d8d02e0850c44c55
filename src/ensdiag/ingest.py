"""CSV ingestion: aligned observations and model outputs from CSV text, and back.

CSV ingest has two converters: numpy's C reader for each chunk of rows,
and the strict row rules for a chunk that it refuses, which raise the
error that checking every row in turn would.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from contextlib import nullcontext

import numpy as np

from .core import ModelEnsemble, ObservationSeries
from .errors import CsvFormatError, CsvParseError, ValidationError, _quote

__all__ = ["parse_ensemble_csv", "format_ensemble_csv"]


def _parse_cell(cell: str, row: int, column: int, kind: type) -> int | float:
    """A time (``kind`` is int) within int64, or a value (``kind`` is
    float) that is finite, by the strict rules, which raise the cell's error."""
    text = cell.strip()
    if not text:
        raise CsvParseError(row, column, "empty cell")
    what = "integer" if kind is int else "number"
    try:
        if "_" in text:  # int and float accept it; the format does not
            raise ValueError
        value = kind(text)
    except ValueError:
        raise CsvParseError(row, column, f"invalid {what} {_quote(cell)}") from None
    if kind is int and not -(2**63) <= value < 2**63:
        raise CsvParseError(row, column, f"integer {_quote(cell)} is out of the int64 range")
    if kind is float and not math.isfinite(value):
        raise CsvParseError(row, column, f"non-finite value {_quote(cell)}")
    return value


#: Data rows per chunk.  A chunk that numpy's reader refuses is converted
#: row by row, so an error costs at most this many strict rows.
_CHUNK_ROWS = 2048

#: Text holding any of these goes to ``csv.reader``, the only tokenizer
#: that handles them: quoting, a carriage return that does not end a line
#: as CRLF, and NUL (which ``csv.reader`` refuses before Python 3.11).
_READER_ONLY = ('"', "\r", "\0")

#: No cell of a chunk that numpy's reader converts holds any of these: an
#: underscore, which ``int`` and ``float`` accept and the format does not,
#: or what a comma line joined from ``csv.reader`` cells would not carry
#: to it as it is.
_NOT_FOR_NUMPY = ("_", "\n", *_READER_ONLY)


def _tokenize(text: str) -> tuple[list[str], list[list[str]] | None]:
    """The non-blank lines of CSV text, and None; or, for text holding a
    quote, NUL or a carriage return outside CRLF line ends, its non-blank
    ``csv.reader`` rows joined back into comma lines, and the rows.  Split
    on commas, other text's lines (CRLF as LF) are ``csv.reader``'s rows."""
    if "\r" in text and '"' not in text:  # as LF text if every carriage return ends a CRLF
        lf = text.replace("\r", "")
        text = lf if len(text) - len(lf) == text.count("\r\n") else text
    if not any(c in text for c in _READER_ONLY):
        return [line for line in text.split("\n") if line], None
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise CsvFormatError(f"malformed CSV: {exc}") from None
    return list(map(",".join, rows)), rows


def _numpy_may_read(lines: list[str], rows: list[list[str]] | None) -> bool:
    """Whether no cell of a chunk holds what ``_NOT_FOR_NUMPY`` names and,
    for ``csv.reader`` rows, whether their comma ``lines`` keep every cell
    apart: a quoted comma would split one cell in two."""
    block = ",".join(lines)
    if rows is not None and block.count(",") != sum(map(len, rows)) - 1:
        return False
    return not any(c in block for c in _NOT_FOR_NUMPY)


def _reads_int_via_float() -> bool:
    """Whether numpy's reader converts an int64 cell that is not an integer,
    such as ``1.0``, through a float, with a DeprecationWarning, as numpy
    1.23 does, rather than refuse it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(["1.0"], dtype=np.int64)
        except ValueError:
            return False
    return True


_INT_VIA_FLOAT = _reads_int_via_float()


def _load_plain(lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Times and values of a chunk of comma lines without an underscore, by
    one pass of numpy's C reader, or None if it refuses them or a check fails.

    Each line is read as one row of an int64 time and ``width - 1`` float64
    values.  The reader strips the same whitespace as ``str.strip``, reads
    a time as a sign and ASCII digits within int64, and converts a value
    with the ``PyOS_string_to_double`` that ``float`` calls, but refuses
    non-ASCII digits, so a cell it accepts is what ``_parse_cell`` gives.
    A numpy that reads a time such as ``1.0`` through a float, with a
    DeprecationWarning (``_INT_VIA_FLOAT``), is made to refuse it.  The
    rows must be exactly one per line, which catches any line it skipped;
    the reader itself refuses ragged rows and trailing commas.
    """
    row = np.dtype([("t", np.int64), ("v", np.float64, (width - 1,))])
    try:
        with warnings.catch_warnings() if _INT_VIA_FLOAT else nullcontext():
            if _INT_VIA_FLOAT:  # its warning as an error: the format refuses such a time
                warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, delimiter=",", comments=None, dtype=row, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    values = table["v"]
    if table.shape != (len(lines),) or not np.isfinite(values).all():
        return None
    return table["t"], values


def _add_time(seen: set[int], t: int, row: int) -> None:
    """Add row ``row``'s time to ``seen``, the times of the rows before it;
    raise if one of them already has it."""
    if t in seen:
        raise CsvFormatError(f"duplicate time {t} at row {row}")
    seen.add(t)


def _convert_row(
    row: list[str], offset: int, width: int, seen: set[int]
) -> tuple[int, list[float]]:
    """The time and values of data row ``offset`` by the strict rules, which
    raise its first error; its time joins ``seen``."""
    if len(row) != width:
        raise CsvParseError(
            offset,
            len(row) + 1 if len(row) < width else width + 1,
            f"expected {width} fields, got {len(row)}",
        )
    t = _parse_cell(row[0], offset, 1, int)
    _add_time(seen, t, offset)
    values = [_parse_cell(cell, offset, column, float) for column, cell in enumerate(row[1:], 2)]
    return t, values


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


def _convert_rows(
    rows: list[list[str]], first: int, width: int, seen: set[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of the data rows from row ``first`` on by the strict
    rules; ``seen`` holds the times of every row before them."""
    converted = [_convert_row(row, first + i, width, seen) for i, row in enumerate(rows)]
    times, values = zip(*converted)
    return np.array(times, dtype=np.int64), np.array(values, dtype=np.float64)


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

    Text that holds a quote, NUL or a carriage return outside CRLF line
    ends is tokenized by ``csv.reader``, its rows joined back into comma
    lines; other text is split into its non-blank lines (``_tokenize``).  The
    data lines are then converted in chunks of ``_CHUNK_ROWS`` by one of
    two converters.  numpy's C reader (``_load_plain``) converts a chunk
    when none of its cells holds an underscore or, for ``csv.reader``
    rows, a comma, quote, CR, LF or NUL (``_numpy_may_read``); split text
    is screened once, for an underscore past the header, and chunk by
    chunk only if it holds one.  A chunk that is screened out, or that
    numpy's reader refuses (a row of the wrong width, a cell it cannot
    read, non-ASCII digits, a time outside int64, a non-finite value), is
    converted row by row by the strict rules (``_convert_rows``), which
    raise the same error, at the same row and column, as checking every
    row in turn would: the times of the rows before it are kept in one
    set, which the times of each chunk join once, and which is checked
    for a repeat by its size.  Repeated times are otherwise found over all
    chunks at once (``_time_order``).
    """
    lines, rows = _tokenize(text)
    if not lines:
        raise CsvFormatError("input is empty")
    header = [cell.strip() for cell in (lines[0].split(",") if rows is None else rows[0])]
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
    if len(lines) < 2:
        raise CsvFormatError("no data rows")

    width = len(header)
    # Split lines hold no LF, quote, CR or NUL, and only line ends come before the header.
    plain = rows is None and text.find("_", text.index(lines[0]) + len(lines[0])) < 0
    time_chunks: list[np.ndarray] = []
    value_chunks: list[np.ndarray] = []
    seen: set[int] = set()  # the times of the first ``checked`` chunks
    checked = 0
    for start in range(1, len(lines), _CHUNK_ROWS):
        chunk = lines[start : start + _CHUNK_ROWS]
        chunk_rows = None if rows is None else rows[start : start + _CHUNK_ROWS]
        converted = None
        if plain or _numpy_may_read(chunk, chunk_rows):
            converted = _load_plain(chunk, width)
        if converted is None:
            chunk_rows = chunk_rows or [line.split(",") for line in chunk]
            if checked < len(time_chunks):  # the times of the chunks since the last strict one
                seen.update(np.concatenate(time_chunks[checked:]).tolist())
                if len(seen) < start - 1:  # a time repeats before this chunk
                    _time_order(np.concatenate(time_chunks))  # raises at its first row
            converted = _convert_rows(chunk_rows, start + 1, width, seen)
            checked = len(time_chunks) + 1
        time_chunks.append(converted[0])
        value_chunks.append(converted[1])

    times = np.concatenate(time_chunks)
    order = _time_order(times)
    values = np.concatenate(value_chunks)[order]
    obs = ObservationSeries(times[order], values[:, 0])
    ens = ModelEnsemble(tuple(names), values[:, 1:].T)
    return obs, ens


def format_ensemble_csv(obs: ObservationSeries, ens: ModelEnsemble) -> str:
    """Inverse of parse_ensemble_csv; floats use shortest exact notation.
    A model name with surrounding whitespace is refused, since the parser
    strips header cells and would read it back as another name."""
    if ens.n_points != obs.n_points:
        raise ValidationError("observations and ensemble must be aligned")
    for name in ens.model_names:
        if name != name.strip():
            raise ValidationError(f"model name {_quote(name)} has surrounding whitespace")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t", "Y", *ens.model_names])
    columns = np.vstack([obs.values, ens.outputs]).T.tolist()
    writer.writerows([t, *map(repr, row)] for t, row in zip(obs.times.tolist(), columns))
    return buffer.getvalue()
