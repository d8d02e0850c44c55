"""Aligned observation/model data and the first-order skill metrics.

A model's score is its time-averaged squared departure from the
observations, and the correspondence between two models is the matching
time-averaged product of their residuals.  Every score, of a member, of
the weighted average or of a window, is one mean-square reduction
(``_mean_square``, no BLAS), so the average with all weight on one member
scores exactly as that member does, whatever the BLAS thread count.
Residuals are plain C-ordered float64 arrays and the functions are pure.

The other dot products form one Gram matrix.  A ``ResidualSet`` forms and
validates it once, when it is constructed, with the scores, norms, best
member, perfect (all-zero) members and cosines read off it; every function
that takes the set reads that one geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import AlignmentError, EnsdiagError, PerfectModelError, ValidationError

__all__ = [
    "WEIGHT_SUM_TOL",
    "COSINE_OVERSHOOT_TOL",
    "SCORE_AGREEMENT_RTOL",
    "ObservationSeries",
    "ModelEnsemble",
    "ResidualSet",
    "WeightVector",
    "CorrespondenceMatrix",
    "residuals",
    "model_score",
    "model_scores",
    "correspondence_matrix",
    "cosine_matrix",
    "average_residual",
    "ensemble_score",
]

#: Absolute tolerance on the weight-sum-to-one invariant.
WEIGHT_SUM_TOL = 1e-12

#: Rounding may push cosines past [-1, 1] by at most this much; values
#: inside the overshoot band are clamped, anything worse is a bug.
COSINE_OVERSHOOT_TOL = 1e-12

#: Required relative agreement between two formulations of the ensemble
#: score: the direct one against its expansion, and against its upper bound.
SCORE_AGREEMENT_RTOL = 1e-10


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.logical_and.reduce(np.isfinite(arr), None):
        raise ValidationError(f"{what} must be finite")


def _float_array(values, what: str, order: str = "K") -> np.ndarray:
    """A float64 copy of ``values`` in memory ``order``, not yet scanned."""
    try:
        return np.array(values, dtype=np.float64, copy=True, order=order)
    except (ValueError, TypeError):  # non-numeric items, or ragged rows
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{what} must be finite") from None


def _frozen_float_array(values, what: str, order: str = "K") -> np.ndarray:
    """A finite, read-only float64 copy of ``values`` in memory ``order``."""
    arr = _float_array(values, what, order)
    _require_finite(arr, what)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ObservationSeries:
    """Observed values on a contiguous run of integer time steps."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        try:
            times = np.asarray(self.times)
        except ValueError:  # ragged rows
            times = None
        if times is None or times.ndim != 1 or times.size == 0:
            raise ValidationError("times must be a non-empty 1-d sequence")
        if np.issubdtype(times.dtype, np.floating):
            if not np.all(np.isfinite(times)) or not np.all(times == np.trunc(times)):
                raise ValidationError("times must be integers")
            in_range = np.all((times >= -(2.0**63)) & (times < 2.0**63))
        elif np.issubdtype(times.dtype, np.integer):
            in_range = np.all(times <= np.iinfo(np.int64).max)  # uint64 may exceed it
        else:
            raise ValidationError("times must be integers")
        if not in_range:
            raise ValidationError("times must lie within the int64 range")
        times = times.astype(np.int64)
        # a step that wraps past the int64 range also differs by 1
        if times.size > 1 and not (np.all(np.diff(times) == 1) and times[0] < times[-1]):
            raise ValidationError("times must be consecutive increasing integers")
        values = _frozen_float_array(self.values, "observed values")
        if values.shape != times.shape:
            raise ValidationError("times and values must have the same length")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_points(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class ModelEnsemble:
    """Named model output series, all on one shared time grid.

    Duplicate output series under distinct names are allowed; duplicate
    names are not.
    """

    model_names: tuple[str, ...]
    outputs: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.model_names)
        if not names:
            raise ValidationError("at least one model is required")
        if len(set(names)) != len(names):
            raise ValidationError("model names must be distinct")
        outputs = _frozen_float_array(self.outputs, "model outputs")
        if outputs.ndim != 2:
            raise ValidationError(
                "outputs must have shape (n_models, n_points)"
            )
        if outputs.shape[0] != len(names):
            raise ValidationError("one output series is required per model name")
        if outputs.shape[1] == 0:
            raise ValidationError("model output series must be non-empty")
        object.__setattr__(self, "model_names", names)
        object.__setattr__(self, "outputs", outputs)

    @property
    def n_models(self) -> int:
        return int(self.outputs.shape[0])

    @property
    def n_points(self) -> int:
        return int(self.outputs.shape[1])


class _Fresh:
    """A C-ordered float64 array that ``residuals`` or ``model_score`` has
    just made and that no one else holds, which ``ResidualSet`` takes over
    without a copy and scans for finiteness, naming it ``what``."""

    __slots__ = ("array", "what")

    def __init__(self, array: np.ndarray, what: str) -> None:
        self.array = array
        self.what = what


@dataclass(frozen=True, eq=False)
class ResidualSet:
    """Model-minus-observation vectors and their Gram geometry.

    ``n_points``, the residual length and the divisor of every score in
    this package, is read off the residuals.  The residuals are stored
    C-ordered, so each member's row is contiguous: a caller's array is
    copied, and the fresh array that ``residuals`` or ``model_score`` makes
    is taken over.

    Construction validates the residuals and forms their geometry once,
    as read-only attributes: ``entries``, the correspondence matrix;
    ``scores``, the direct per-model scores, which are also its diagonal;
    ``norms``, their roots; ``best``, the lowest index with the least score,
    and ``s_min_sq``, that score; ``perfect``, the members whose residual
    row is all zero; ``cosines``, the cosine matrix, None when a member is
    perfect.  Residuals whose correspondences overflow, or whose nonzero
    rows score 0, raise ValidationError.

    Two quantities are formed on first use and kept: ``witness_pairs``,
    the pairs whose correspondence is at most ``s_min_sq`` and those
    strictly below it (the witnesses of Results 1 and 3), from one
    comparison; and, through ``ensemble_score``, the score of the last
    weights the set was scored with.  The pair tables too large to keep
    for good (``_per_m``) are kept in ``_tables`` for the life of the set,
    so that its checks, and the witness lists of a report built from it,
    build each once.
    """

    residuals: np.ndarray
    n_points: int = field(init=False)
    entries: np.ndarray = field(init=False, repr=False)
    scores: np.ndarray = field(init=False, repr=False)
    norms: np.ndarray = field(init=False, repr=False)
    best: int = field(init=False, repr=False)
    s_min_sq: float = field(init=False, repr=False)
    perfect: tuple[int, ...] = field(init=False, repr=False)
    cosines: np.ndarray | None = field(init=False, repr=False)
    _last_score: tuple | None = field(init=False, repr=False, default=None)
    _tables: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        arr = self.residuals
        if type(arr) is _Fresh:  # made in this module, held by no one else: no copy
            _require_finite(arr.array, arr.what)  # unscanned: a subtraction may overflow
            arr = arr.array
            arr.setflags(write=False)
        else:
            arr = _frozen_float_array(arr, "residuals", order="C")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValidationError("residuals must have shape (n_models, n_points)")
        object.__setattr__(self, "residuals", arr)
        object.__setattr__(self, "n_points", arr.shape[1])

        entries, scores = _correspondence_entries(self)
        listed = scores.tolist()
        s_min_sq = min(listed)
        best = listed.index(s_min_sq)  # the lowest index with the least score
        perfect = tuple([i for i, s in enumerate(listed) if s == 0.0]) if s_min_sq == 0.0 else ()
        norms = np.sqrt(scores)
        cosines = None
        if not perfect:
            cosines = entries / (norms[:, None] * norms)  # np.outer's products
            overshoot = float(np.maximum.reduce(np.abs(cosines), None)) - 1.0
            if overshoot > COSINE_OVERSHOOT_TOL:
                raise EnsdiagError(
                    f"internal inconsistency: cosine overshoot {overshoot:.3e} "
                    f"exceeds the rounding allowance {COSINE_OVERSHOOT_TOL}"
                )
            np.minimum(np.maximum(cosines, -1.0, out=cosines), 1.0, out=cosines)  # np.clip
            cosines.reshape(-1)[:: len(listed) + 1] = 1.0  # the diagonal
        geometry = {
            "entries": entries, "scores": scores, "norms": norms, "best": best,
            "s_min_sq": s_min_sq, "perfect": perfect, "cosines": cosines,
        }
        for name, value in geometry.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_models(self) -> int:
        return int(self.residuals.shape[0])

    def best_vertex_is_optimal(self) -> bool:
        """Row test, the exact form of Result 1.

        The best member ``b`` minimises ``w @ entries @ w`` over the simplex
        iff ``entries[b, m] >= s_min_sq`` for every ``m``: the gradient
        ``2 * entries[b]`` at the vertex has no descent direction.
        """
        return bool(np.logical_and.reduce(self.entries[self.best] >= self.s_min_sq))

    @cached_property
    def witness_pairs(self) -> tuple[_PairList, _PairList]:
        """The pairs (i, j), i < j, in row-major order, whose correspondence
        is at most ``s_min_sq``, and those strictly below it, as two
        ``_PairList``: one comparison of the correspondences gathered over
        ``_pairs``, with and without ties.  With no tie, both are one tuple."""
        m, tables = self.n_models, self._tables
        rows, cols = _pairs(m, tables)
        values = self.entries[rows, cols]
        pairs = _PairList(m, np.flatnonzero(values <= self.s_min_sq), tables)
        below = np.flatnonzero(values < self.s_min_sq)
        return pairs, pairs if below.size == len(pairs) else _PairList(m, below, tables)


#: The per-M tables, by (builder, m): ``_pairs``, ``_pair_tuples`` and
#: ``report``'s.  They hold at most ``_TABLE_CELLS`` cells in all, m * m
#: for a table of m members: a new one that would pass the cap empties
#: them first, and one of more than 512 members is kept only by the values
#: that use it: a ``ResidualSet``'s ``_tables``, or the dict that the two
#: matrices of its report share.
#: The tables of 200 members and of 3 to 8 fit together.
_TABLES: dict = {}
_TABLE_CELLS = 2**18


def _per_m(build):
    """``build(m)``, each array of it read-only, kept in ``_TABLES`` by the
    rule stated there, or, past the cap, in ``held``, if given: a dict of
    the tables that some values share.  A table depends on m alone, so
    threads that miss at once may build one twice, or pass the cap until
    the next miss, but never read a wrong one."""

    def table(m: int, held: dict | None = None):
        found = _TABLES.get((build, m))
        if found is None and held is not None:
            found = held.get(build.__name__)
        if found is None:
            found = build(m)
            for part in found if type(found) is tuple else (found,):
                if type(part) is np.ndarray:
                    part.setflags(write=False)
            if m * m <= _TABLE_CELLS:
                if sum([key[1] ** 2 for key in list(_TABLES)]) + m * m > _TABLE_CELLS:
                    _TABLES.clear()
                _TABLES[build, m] = found
            elif held is not None:
                held[build.__name__] = found
        return found

    return table


@_per_m
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``(rows, cols)`` of the pairs i < j of m members, in
    row-major order: the one pair index of every test over the pairs."""
    index = np.arange(m)
    return np.nonzero(index[:, None] < index)


@_per_m
def _pair_tuples(m: int) -> np.ndarray:
    """The pairs of ``_pairs(m)`` as int 2-tuples, in a read-only object array."""
    return np.fromiter(combinations(range(m), 2), dtype=object, count=m * (m - 1) // 2)


class _PairList(tuple):
    """The pairs at positions ``index`` of ``_pairs(m)``, as the shared
    tuples of ``_pair_tuples(m, tables)``, keeping ``m`` and the read-only
    ``index`` for the report's check and render (which keeps its ``text``).
    It compares and hashes as the plain tuple does, and pickles and copies
    as that tuple."""

    def __new__(cls, m: int, index: np.ndarray, tables: dict | None = None):
        self = super().__new__(cls, _pair_tuples(m, tables)[index].tolist())
        index.setflags(write=False)
        self.index, self.m = index, m
        return self

    def __reduce__(self):
        return tuple, (tuple(self),)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative weights summing to one."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_float_array(self.weights, "weights")
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("weights must be a non-empty 1-d sequence")
        if (arr < 0.0).any():
            raise ValidationError("weights must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}; got {total!r}"
            )
        object.__setattr__(self, "weights", arr)

    @property
    def n_models(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class CorrespondenceMatrix:
    """Symmetric positive-semidefinite matrix of time-averaged residual products.

    The diagonal carries the per-model scores.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_float_array(self.entries, "correspondence entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValidationError("correspondence entries must form a square matrix")
        if not np.array_equal(arr, arr.T):
            raise ValidationError("correspondence matrix must be symmetric")
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.linalg.eigvalsh(arr).min()) < -1e-10 * scale:
            raise ValidationError("correspondence matrix must be positive semidefinite")
        object.__setattr__(self, "entries", arr)

    @property
    def n_models(self) -> int:
        return int(self.entries.shape[0])


def _check_aligned(ensemble: ModelEnsemble, obs: ObservationSeries) -> None:
    if ensemble.n_points != obs.n_points:
        raise AlignmentError(
            f"ensemble has {ensemble.n_points} points but observations have "
            f"{obs.n_points}"
        )


def residuals(ensemble: ModelEnsemble, obs: ObservationSeries) -> ResidualSet:
    """Subtract the observations from every model series.

    Raises AlignmentError when the ensemble and the observations do not
    have the same number of points.  A difference that overflows is left
    infinite, for ResidualSet's finiteness rule to refuse.  The difference
    is formed C-ordered, whatever the layout of the outputs, so the Gram
    matrix's BLAS product sees one layout, and the set keeps it uncopied.
    """
    _check_aligned(ensemble, obs)
    with np.errstate(over="ignore"):
        z = np.subtract(ensemble.outputs, obs.values, order="C")
    return ResidualSet(_Fresh(z, "residuals"))


_BLOCK = 4096  # see _mean_square


def _mean_square(z: np.ndarray) -> np.ndarray | float:
    """Mean of ``z * z`` over the last axis, which must be contiguous: every
    score.  No BLAS takes part, and a row gives the same bits whatever the
    leading axes: einsum does so only for rows within its 8,192-element
    buffer, so longer rows are summed in blocks of _BLOCK, in order."""
    total = np.einsum("...t,...t->...", z[..., :_BLOCK], z[..., :_BLOCK])
    for start in range(_BLOCK, z.shape[-1], _BLOCK):
        block = z[..., start : start + _BLOCK]
        total = total + np.einsum("...t,...t->...", block, block)
    return total / z.shape[-1]


def model_score(z) -> float:
    """Mean-squared departure of one residual vector, ``||z||^2 / len(z)``:
    the score of the one-member ResidualSet of ``z``, under the same range
    rules (ValidationError if it overflows or a nonzero ``z`` scores 0)."""
    arr = _float_array(z, "residual vector", order="C")
    if arr.ndim != 1 or arr.size == 0:
        _require_finite(arr, "residual vector")  # a non-finite one is told so, whatever its shape
        raise ValidationError("residual vector must be non-empty and 1-d")
    return ResidualSet(_Fresh(arr[None, :], "residual vector")).s_min_sq  # scanned there


def model_scores(rs: ResidualSet) -> np.ndarray:
    """Per-model scores for a whole residual set: the read-only 1-d
    ``rs.scores`` that its construction computed."""
    return rs.scores


def _refuse_false_zeros(scores: np.ndarray, z: np.ndarray) -> None:
    """ValidationError if a nonzero row of ``z`` (its last axis) scores 0 in
    ``scores``, its squares underflowing; only rows that score 0 are read."""
    zero = scores == 0.0
    if np.logical_or.reduce(zero, None) and z[zero].any():
        raise ValidationError("residuals too small: a nonzero residual row scores 0")


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.allclose(a, b, rtol=1e-12, atol=0.0)``, written out without its
    per-call set-up: within ``1e-12 * |b|`` where ``b`` is finite, else
    equal (so equal infinities agree and NaN agrees with nothing).  An
    infinity minus itself is NaN, so call it with invalid operations
    ignored."""
    return bool(((np.abs(a - b) <= 1e-12 * np.abs(b)) & np.isfinite(b) | (a == b)).all())


def _correspondence_entries(rs: ResidualSet) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric correspondence array of a set under construction and the
    direct per-model scores, which its diagonal is checked against and then
    replaced by; ValidationError if it overflows or a nonzero row scores 0."""
    z = rs.residuals
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (z @ z.T) / rs.n_points
        entries = 0.5 * (raw + raw.T)
        scores = _mean_square(z)
        agree = _close(entries.diagonal(), scores)
    _require_finite(entries, "correspondence entries")
    _refuse_false_zeros(np.minimum(scores, entries.diagonal()), z)
    if not agree:
        raise EnsdiagError(
            "internal inconsistency: correspondence diagonal departs from "
            "the per-model scores"
        )
    entries.reshape(-1)[:: len(scores) + 1] = scores  # one score per member
    return entries, scores


def correspondence_matrix(rs: ResidualSet) -> CorrespondenceMatrix:
    """Mutual-agreement matrix: entry (m, m') is the time-averaged product
    of the two residual vectors; the diagonal equals the per-model scores."""
    return CorrespondenceMatrix(rs.entries)


def cosine_matrix(rs: ResidualSet) -> np.ndarray:
    """Pairwise cosines of the residual vectors, as a read-only array.

    The diagonal is exactly 1 and off-diagonal entries are clamped into
    [-1, 1].  Raises PerfectModelError when any member has zero residual,
    since its direction is undefined.
    """
    if rs.cosines is None:
        raise PerfectModelError(rs.perfect)
    return rs.cosines


def _check_weight_length(rs: ResidualSet, w: WeightVector) -> np.ndarray:
    if w.n_models != rs.n_models:
        raise ValidationError(
            f"weight vector has {w.n_models} entries but the ensemble has "
            f"{rs.n_models} models"
        )
    return w.weights


def average_residual(rs: ResidualSet, w: WeightVector) -> np.ndarray:
    """Residual of the weighted-average model.

    Because the weights sum to one, averaging the residuals equals
    averaging the model outputs and then subtracting the observations.
    """
    weights = _check_weight_length(rs, w)
    return weights @ rs.residuals


def ensemble_score(rs: ResidualSet, w: WeightVector) -> float:
    """Score of the weighted-average model.

    Computed directly from the averaged residual and cross-checked against
    its expansion ``w @ R @ w`` in the correspondence matrix, to
    SCORE_AGREEMENT_RTOL relative to ``w @ |R| @ w``, the size of the
    expansion's terms, so that exact cancellations near zero do not trip
    the check; the direct value is returned.

    The set keeps the last weights object it was scored with, and that
    score: the same ``w`` again returns it without recomputing, so the
    checks of one report cross-check once.  The memo keys on identity
    and holds ``w``, and both objects are immutable; an equal but new
    WeightVector is scored afresh.
    """
    last = rs._last_score
    if last is not None and last[0] is w:
        return last[1]
    weights = _check_weight_length(rs, w)
    direct = float(_mean_square(average_residual(rs, w)))
    expansion = float(weights @ rs.entries @ weights)
    scale = float(weights @ np.abs(rs.entries) @ weights)
    bound = SCORE_AGREEMENT_RTOL * max(abs(direct), abs(expansion), scale)
    if abs(direct - expansion) > bound:
        raise EnsdiagError(
            "internal inconsistency: direct ensemble score "
            f"{direct!r} and its expansion {expansion!r} disagree"
        )
    object.__setattr__(rs, "_last_score", (w, direct))
    return direct
