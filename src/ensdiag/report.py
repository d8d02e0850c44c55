"""The diagnostics report model and its deterministic JSON output.

Reports are emitted as canonical JSON: fixed key order, floats with 17
significant digits (which round-trips float64 exactly), matrices as
row-major arrays of arrays, and a trailing newline, so that two runs on
the same input and settings give byte-identical text.  A value renders by
the renderer of the first class of its type's MRO in one table, a record
by a key template made once per class, and a float row in one pass (one
``%.17g`` call, or from ``_VECTOR_CELLS`` values on ``_float_cells``, an
exact numpy conversion to the same digits).  The typed values that
``build_report`` makes have renderers of their own and are not walked:
the weights (``_SimplexWeights``) render as one float row, a symmetric
matrix (``_SymmetricRows``) formats its upper triangle once and mirrors
it, and a witness list (``core._PairList``) renders once, off its
positions in a per-M table (``core._per_m``) or, past the cap, off its
own pairs, and keeps its text.  The sweep's records render column by
column.  Everything else, a parsed, unpickled or copied report's
matrices and witness lists among it, renders item by item.

The record dataclasses are the report's one schema.  A record renders as
its fields in declaration order and an Enum as its value; ``parse_report``
reads a report back through the same field declarations, so each field
must have the JSON type that ``emit_report`` writes for it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    ModelEnsemble,
    ObservationSeries,
    WeightVector,
    _TABLE_CELLS,
    _PairList,
    _pair_tuples,
    _per_m,
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
    check_result2,  # unused here; perfbench/worker.py traces it by name
    check_result3,
    classify_regime,
    schwartz_bounds,
)
from .errors import ValidationError, _quote

__all__ = [
    "SCHEMA_VERSION",
    "ReportSettings",
    "DiagnosticsReport",
    "build_report",
    "emit_report",
    "parse_report",
    "render_json",
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
        report obeys the same rules: an interval of ``n_points`` times, one
        entry per model, M×M matrices, indices and witness pairs ``i < j``
        in range, one best member in every verdict, the best member's name,
        and simplex weights.  A ``_PairList`` made for M models and
        ``_SimplexWeights`` were checked when they were made."""
        if self.interval_end - self.interval_start + 1 != self.n_points:
            raise _malformed("report.interval", f"not {self.n_points} consecutive times")
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
            if verdict is None:
                continue
            pairs = verdict.witnesses
            checked = type(pairs) is _PairList and pairs.m == m  # when it was made
            if not checked and not all(0 <= i < j < m for i, j in pairs):
                raise _malformed(f"report.{name}.witnesses", f"not all pairs i < j of {m} models")
            if verdict.best_model_index != self.best_index:
                raise _malformed(f"report.{name}.best_model_index", "not best.index")
        if self.best_name != self.model_names[self.best_index]:
            raise _malformed("report.best_name", f"not model {self.best_index}'s name")
        if type(self.weights_used) is not _SimplexWeights:  # else checked when made
            try:
                WeightVector(self.weights_used)
            except ValidationError as exc:
                raise _malformed("report.weights_used", str(exc)) from None


class _SimplexWeights(tuple):
    """The weights of a ``WeightVector``, which were checked when it was made."""


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
    Result 1's verdict is computed once and, where the angles are
    defined, reported as ``result2`` too: the cosine form is the same
    comparison (``check_result2``).  The checks share one ensemble score,
    cross-checked once (``ensemble_score``), and Result 3 shares Result
    1's witness list when no correspondence ties ``S_min^2``
    (``ResidualSet.witness_pairs``).  The regime tolerances are checked
    even where no regime is classified.

    The weights, matrices and witness lists are typed tuples, which the
    report's checks and its render read without a walk over every cell.
    """
    _check_tolerances(tol_equal, tol_cos)
    rs = residuals(ens, obs)
    m = ens.n_models
    angles_defined = m >= 2 and not rs.perfect
    result1 = check_result1(rs, weights) if m >= 2 else None
    shared: dict = {}  # the matrices' ``_triangle`` past the cap, not the set's pair tables
    return DiagnosticsReport(
        interval_start=int(obs.times[0]),
        interval_end=int(obs.times[-1]),
        n_points=obs.n_points,
        model_names=ens.model_names,
        weights_used=_SimplexWeights(weights.weights.tolist()),
        per_model_scores=tuple(rs.scores.tolist()),
        correspondence=_SymmetricRows(rs.entries, shared),
        cosines=None if rs.perfect else _SymmetricRows(cosine_matrix(rs), shared),
        perfect_models=rs.perfect,
        ensemble_score=ensemble_score(rs, weights),
        best_index=rs.best,
        best_name=ens.model_names[rs.best],
        s_min_sq=rs.s_min_sq,
        result1=result1,
        result2=result1 if angles_defined else None,
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


def _format_floats(values) -> str:
    """Exact floats as comma-separated text, in one ``%.17g`` pass; an
    integral cell keeps a ``.0``, so that it reads back as a float."""
    text = "%.17g," * len(values) % tuple(values)
    if "n" in text:  # "inf" or "nan"
        raise ValidationError(_NON_FINITE)
    if text.count(".") != len(values):  # some cell, such as "1", "-0" or "1e+17", has no point
        cells = text.split(",")
        text = ",".join([c if "." in c or not c.lstrip("-").isdigit() else c + ".0" for c in cells])
    return text[:-1]


#: From this many values on, a float array (a row, or a matrix's upper
#: triangle) renders through ``_float_cells``; below it, through one
#: ``%.17g`` pass, which costs less there.  The route depends on the size
#: alone.  On a 2-core x86-64 host (Python 3.11, numpy 2.4) the two routes
#: cost the same at about 200 values, a 20-model matrix's 210 among them
#: (BENCH_vector_format.json).
_VECTOR_CELLS = 256

#: The width of a ``_float_cells`` cell.  Its last slot, which would hold a
#: point after the 17th digit, is always NUL: a caller's separator goes there.
_CELL = 40

#: The split constant of Dekker's TwoProduct for float64: 2**27 + 1.
_SPLIT = 134217729.0


@lru_cache(maxsize=1)
def _cell_tables() -> tuple[np.ndarray, ...]:
    """The tables of ``_float_cells``.  The powers of ten 10**0 to 10**20,
    each exact, and their Dekker halves.  The slots of the 17 digits, as
    ``_float_cells`` lays them out, by group: the four digits of each of 0
    to 9999, then the same with their trailing zeros left empty (for the
    last group with a nonzero digit and the zero groups after it), then
    the first digit, one of 0 to 9.  And a frame per sign and decimal
    exponent k in -4..15: a ``-`` for a negative value, then for k < 0,
    ``0.`` and -k-1 zeros, and for k >= 0, a point after digit k and a
    ``0`` in the slots of digits 0 to k + 1, which a digit's byte covers
    (``"0" | digit == digit``), so that no trailing zero left empty is one
    that ``%.17g`` or the ``.0`` rule prints."""
    powers = np.array([float(10**p) for p in range(21)])
    scaled = _SPLIT * powers
    high = scaled - (scaled - powers)
    digit = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    shown = np.logical_or.accumulate(digit[:, ::-1] != 0, axis=1)[:, ::-1]  # to the last nonzero
    digits = np.zeros((20010, 8), dtype=np.uint8)
    digits[:10000, ::2] = digit + ord("0")
    digits[10000:20000, ::2] = (digit + ord("0")) * shown
    digits[20000:, 6] = np.arange(10) + ord("0")
    frames = np.zeros((2, 20, _CELL), dtype=np.uint8)
    frames[1, :, 0] = ord("-")
    for k in range(-4, 16):
        if k < 0:
            frames[:, k + 4, 1:3] = (ord("0"), ord("."))
            frames[:, k + 4, 3 : 2 - k] = ord("0")
        else:
            frames[:, k + 4, 6 : 8 + 2 * (k + 1) : 2] = ord("0")
            frames[:, k + 4, 7 + 2 * k] = ord(".")
    return powers, high, powers - high, digits.view("S8").ravel(), frames.reshape(40, _CELL)


def _float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.17g`` text of each value of a float64 array, an integral one
    with a ``.0``, as the rows of an (n, ``_CELL``) uint8 array, NUL-padded;
    and the mask of the values whose text it certifies.  Each other row is
    left to the caller.

    A value x with 1e-4 <= |x| < 1e16 prints in fixed notation.  With
    k = floor(log10 |x|), clipped to -4..15, Dekker's TwoProduct splits
    V = |x| * 10**(16 - k) into hi + lo exactly: 10**(16 - k) is exact,
    and in this domain no product or split overflows or underflows.  The
    value is certified only if V lies in [1e16, 1e17), tested exactly on
    hi and the sign of lo, so a k that log10 got wrong is not certified;
    nor is a zero, a value below 1e-4 or one from 1e16 on.  The 17 digits
    are V rounded to an integer half to even, as ``%.17g``'s correctly
    rounded conversion does: hi is an even integer here, so the fraction
    of V is that of lo, compared with floor(lo) + 0.5.  No value rounds
    up to 10**17, which would need |x| under a power of ten by at most
    5e-18 of it: 1 to 1e15 are floats, 0.1, 0.01 and 0.001 round up to
    theirs, and in each case the float below is farther off; a value that
    did would be left uncertified.

    A row is laid out in slots: the sign, then ``0.`` and three zeros for
    the leading zeros of k < 0, then each digit followed by the slot for a
    point after it; slots left empty hold NUL.  The digits come from a
    table, four at a time, with the trailing zeros of all 17 left empty,
    as %g drops them; the frame for the sign and k then writes the point
    and the zeros before it and just after it (the ``.0`` rule's)."""
    powers, high, low, digits, frames = _cell_tables()
    a = np.abs(values)
    certified = (a >= 1e-4) & (a < 1e16)
    a = np.where(certified, a, 1.0)  # no log10 of 0, no int cast of a huge value
    k = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    p = 16 - k
    hi = a * powers.take(p)
    b_high, b_low = high.take(p), low.take(p)
    scaled = _SPLIT * a
    a_high = scaled - (scaled - a)
    a_low = a - a_high
    lo = a_low * b_low - (((hi - a_high * b_high) - a_low * b_high) - a_high * b_low)
    certified &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0.0))
    certified &= (hi < 1e17) | ((hi == 1e17) & (lo < 0.0))
    whole = np.floor(lo)
    d = np.where(certified, hi, 1e16).astype(np.int64) + whole.astype(np.int64)
    half = whole + 0.5
    d += (lo > half) | ((lo == half) & (d & 1 == 1))
    certified &= d < 10**17  # never false: see above
    groups = np.empty((values.size, 5), dtype=np.intp)  # d's 17 digits: 1, then 4 by 4
    top = d // 10**8
    groups[:, 0] = top // 10**8
    for j, part in ((1, top - groups[:, 0] * 10**8), (3, d - top * 10**8)):
        part = part.astype(np.uint32)  # below 10**8: faster to divide
        groups[:, j] = part // 10000
        groups[:, j + 1] = part - groups[:, j] * 10000
    followed = np.zeros(values.size, dtype=bool)  # by a group with a nonzero digit
    for j in (4, 3, 2, 1):
        nonzero = groups[:, j] != 0
        groups[:, j] += 10000 * ~followed  # its trailing zeros left empty
        followed |= nonzero
    groups[:, 0] += 20000
    cells = digits.take(groups, mode="clip").view(np.uint8)  # clip: a refused d of 10**17
    cells |= frames.take(np.signbit(values) * 20 + k + 4, axis=0)
    return cells, certified


def _cell_texts(values: np.ndarray) -> np.ndarray:
    """``_float_cells`` of values, each row it does not certify filled with
    that value's ``%.17g`` text, by ``_format_floats``' rules (so a value
    that is not finite raises there), and each row's last slot a comma."""
    cells, certified = _float_cells(values)
    rest = np.flatnonzero(~certified)
    if rest.size:
        texts = _format_floats(values[rest].tolist()).split(",")
        cells[rest] = np.array(texts, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    cells[:, -1] = ord(",")
    return cells


def _text(cells: np.ndarray) -> str:
    """The text of NUL-padded ASCII cells, NULs dropped."""
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _render_floats(values) -> str:
    """Exact floats as a JSON array: by ``_format_floats``, or from
    ``_VECTOR_CELLS`` values on, by ``_cell_texts``, to the same text."""
    if len(values) < _VECTOR_CELLS:
        return "[" + _format_floats(values) + "]"
    return "[" + _text(_cell_texts(np.array(values, dtype=np.float64)))[:-1] + "]"


@lru_cache(maxsize=1024)
def _render_key(key: str) -> str:
    return json.dumps(key) + ":"


class _SymmetricRows(tuple):
    """The float row tuples of a read-only square float64 array that equals
    its transpose bit for bit (a ``ResidualSet``'s), unchecked, keeping it as
    ``array``, and a dict of tables shared with the report's other matrix as
    ``tables`` (see ``core._per_m``), for the renderer.  It compares and
    hashes as the plain tuple does, and pickles and copies as that tuple."""

    def __new__(cls, array: np.ndarray, tables: dict | None = None):
        self = super().__new__(cls, map(tuple, array.tolist()))
        self.array, self.tables = array, tables
        return self

    def __reduce__(self):
        return tuple, (tuple(self),)


@_per_m
def _triangle(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat row-major indices of the upper triangle of an m×m matrix,
    diagonal included, and for each cell (i, j), in row-major order, the
    position of (min(i, j), max(i, j)) among them."""
    upper = np.triu(np.ones((m, m), dtype=bool))
    position = np.zeros((m, m), dtype=np.intp)
    position[upper] = np.arange(np.count_nonzero(upper))
    return np.flatnonzero(upper), (position + np.triu(position, 1).T).ravel()


def _render_symmetric(matrix: _SymmetricRows) -> str:
    """A symmetric float matrix off its array: each value of the upper
    triangle formatted once, by ``_render_floats``' rules, and mirrored."""
    m = len(matrix)
    upper, mirror = _triangle(m, matrix.tables)
    values = matrix.array.take(upper)
    if values.size < _VECTOR_CELLS:
        texts = _format_floats(values.tolist()).split(",")
        cells = [texts[k] for k in mirror.tolist()]
        return "[[" + "],[".join([",".join(cells[i : i + m]) for i in range(0, m * m, m)]) + "]]"
    rows = np.empty((m, m * _CELL + 2), dtype=np.uint8)
    rows[:, 0] = ord("[")
    rows[:, 1:-1] = _cell_texts(values).take(mirror, axis=0).reshape(m, m * _CELL)
    rows[:, -2:] = (ord("]"), ord(","))  # over the row's last comma
    rows[-1, -1] = 0
    return "[" + _text(rows) + "]"


@_per_m
def _pair_texts(m: int) -> np.ndarray:
    """``"[i,j]"`` for each pair of ``core._pair_tuples(m)``, in its order."""
    return np.array(["[%d,%d]" % pair for pair in _pair_tuples(m).tolist()], dtype=object)


def _render_pairs(pairs: _PairList) -> str:
    """A witness list off its positions, once: a report holds it up to 3 times."""
    if not hasattr(pairs, "text"):
        if pairs.m**2 <= _TABLE_CELLS:  # the size's texts are kept: every report reads them
            texts = _pair_texts(pairs.m)[pairs.index].tolist()
        else:
            texts = ["[%d,%d]" % pair for pair in pairs]
        pairs.text = "[" + ",".join(texts) + "]"
    return pairs.text


def _render_table(values) -> str | None:
    """Records of one dataclass type, column by column when each column is
    all exact floats, ints or bools; else None, to render item by item."""
    kind = type(values[0]) if values else None
    if not is_dataclass(kind) or set(map(type, values)) != {kind}:
        return None
    names, template = _record_plan(kind)
    attributes = [vars(value) for value in values]
    if set(map(tuple, attributes)) != {names}:  # else some record's attributes are not its fields
        return None
    width = len(names)
    cells = list(chain.from_iterable(map(dict.values, attributes)))  # column j: cells[j::width]
    columns = [cells[j::width] for j in range(width)]
    kinds = [set(map(type, column)) for column in columns]
    if not all(types in ({float}, {int}, {bool}) for types in kinds):
        return None
    for j, (column, types) in enumerate(zip(columns, kinds)):
        if types == {float}:
            cells[j::width] = _render_floats(column)[1:-1].split(",")
        elif types == {bool}:
            cells[j::width] = [("false", "true")[item] for item in column]
        # exact ints stay: "%s" gives the same text as str(int)
    return "[" + ",".join([template] * len(values)) % tuple(cells) + "]"


def _render_sequence(value) -> str:
    """In one pass if all items are exact floats, else by ``_render_table``, else item by item."""
    if set(map(type, value)) == {float}:  # a score or weight row
        return _render_floats(value)
    return _render_table(value) or "[" + ",".join([_render(item) for item in value]) + "]"


def _render_dict(value: dict) -> str:
    return "{" + ",".join([_render_key(str(k)) + _render(v) for k, v in value.items()]) + "}"


@lru_cache(maxsize=256)
def _record_plan(kind: type) -> tuple[tuple[str, ...], str]:
    """Dataclass ``kind``'s field names and its records' ``%s`` JSON template."""
    names = tuple(field.name for field in fields(kind))
    return names, "{" + ",".join([_render_key(n).replace("%", "%%") + "%s" for n in names]) + "}"


def _render_record(value) -> str:
    """A record by its class's plan, or as its attributes' dict if they are not its fields."""
    names, template = _record_plan(type(value))
    attributes = vars(value)
    if tuple(attributes) != names:
        return _render_dict(attributes)
    return template % tuple([_render(item) for item in attributes.values()])


def _refuse(value) -> str:
    shown = vars(value) if is_dataclass(value) else value  # a dataclass's class: its namespace
    raise TypeError(f"cannot serialize {type(shown).__name__} to canonical JSON")


#: The renderer of the instances of each class and its subclasses.
_RENDERERS = {
    type(None): lambda value: "null",
    **dict.fromkeys((bool, np.bool_), lambda value: "true" if value else "false"),
    **dict.fromkeys((int, np.integer), lambda value: str(int(value))),
    **dict.fromkeys((float, np.floating), lambda value: _format_floats((float(value),))),
    str: encode_basestring,
    **dict.fromkeys((list, tuple), _render_sequence),
    _SimplexWeights: _render_floats,
    _SymmetricRows: _render_symmetric,
    _PairList: _render_pairs,
    dict: _render_dict,
    enum.Enum: lambda value: _render(value.value),
    object: _refuse,
}


@lru_cache(maxsize=256)
def _renderer(kind: type):
    """The renderer of the first class of ``kind``'s MRO in ``_RENDERERS``,
    or of a record if ``kind`` is a dataclass and not a JSON scalar or list."""
    found = next(_RENDERERS[base] for base in kind.__mro__ if base in _RENDERERS)
    if is_dataclass(kind) and found in (_render_dict, _RENDERERS[enum.Enum], _refuse):
        return _render_record
    return found


def _render(value) -> str:
    """``value`` as canonical JSON, by its type's renderer (an exact table
    class's without a call)."""
    return (_RENDERERS.get(type(value)) or _renderer(type(value)))(value)


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
