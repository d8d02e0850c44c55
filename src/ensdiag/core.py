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

#: Required relative agreement between the direct and the expanded
#: formulation of the ensemble score.
SCORE_AGREEMENT_RTOL = 1e-10


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} must be finite")


def _frozen_float_array(values, what: str, order: str = "K") -> np.ndarray:
    """A finite, read-only float64 copy of ``values`` in memory ``order``."""
    try:
        arr = np.array(values, dtype=np.float64, copy=True, order=order)
    except (ValueError, TypeError):  # non-numeric items, or ragged rows
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{what} must be finite") from None
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


@dataclass(frozen=True, eq=False)
class ResidualSet:
    """Model-minus-observation vectors, the normalization divisor, and
    their Gram geometry.

    ``n_points`` is the number of aligned time points and is the divisor
    used by every score in this package.  The residuals are stored
    C-ordered, so each member's row is contiguous.

    Construction validates the residuals and forms their geometry once,
    as read-only attributes: ``entries``, the correspondence matrix;
    ``scores``, the direct per-model scores, which are also its diagonal;
    ``norms``, their roots; ``best``, the lowest index with the least score,
    and ``s_min_sq``, that score; ``perfect``, the members whose residual
    row is all zero; ``cosines`` and ``thresholds``, the cosine matrix and
    the ``S_min^2 / (S_m S_m')`` of Results 2 and 3, both None when a
    member is perfect.  Residuals whose correspondences overflow, or whose
    nonzero rows score 0, raise ValidationError.
    """

    residuals: np.ndarray
    n_points: int
    entries: np.ndarray = field(init=False, repr=False)
    scores: np.ndarray = field(init=False, repr=False)
    norms: np.ndarray = field(init=False, repr=False)
    best: int = field(init=False, repr=False)
    s_min_sq: float = field(init=False, repr=False)
    perfect: tuple[int, ...] = field(init=False, repr=False)
    cosines: np.ndarray | None = field(init=False, repr=False)
    thresholds: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = _frozen_float_array(self.residuals, "residuals", order="C")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValidationError("residuals must have shape (n_models, n_points)")
        n = int(self.n_points)
        if n != arr.shape[1]:
            raise ValidationError(
                f"n_points ({n}) must equal the residual length ({arr.shape[1]})"
            )
        object.__setattr__(self, "residuals", arr)
        object.__setattr__(self, "n_points", n)

        entries, scores = _correspondence_entries(self)
        norms = np.sqrt(scores)
        best = int(np.argmin(scores))
        s_min_sq = float(scores[best])
        perfect = tuple(np.flatnonzero(scores == 0.0).tolist())  # the all-zero rows
        cosines = thresholds = None
        if not perfect:
            cosines = entries / np.outer(norms, norms)
            overshoot = float(np.abs(cosines).max()) - 1.0
            if overshoot > COSINE_OVERSHOOT_TOL:
                raise EnsdiagError(
                    f"internal inconsistency: cosine overshoot {overshoot:.3e} "
                    f"exceeds the rounding allowance {COSINE_OVERSHOOT_TOL}"
                )
            cosines = np.clip(cosines, -1.0, 1.0)
            np.fill_diagonal(cosines, 1.0)
            thresholds = s_min_sq / np.outer(norms, norms)
        geometry = {
            "entries": entries, "scores": scores, "norms": norms, "best": best,
            "s_min_sq": s_min_sq, "perfect": perfect, "cosines": cosines,
            "thresholds": thresholds,
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
        return bool(np.all(self.entries[self.best] >= self.s_min_sq))


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative weights summing to one."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_float_array(self.weights, "weights")
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("weights must be a non-empty 1-d sequence")
        if np.any(arr < 0.0):
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
    infinite, for ResidualSet's finiteness rule to refuse.
    """
    _check_aligned(ensemble, obs)
    with np.errstate(over="ignore"):
        z = ensemble.outputs - obs.values
    return ResidualSet(z, obs.n_points)


_BLOCK = 4096  # see _mean_square


def _mean_square(z: np.ndarray) -> np.ndarray | float:
    """Mean of ``z * z`` over the last axis, which must be contiguous: every
    score.  No BLAS takes part, and a row gives the same bits whatever the
    leading axes: einsum does so only for rows within its 8,192-element
    buffer, so longer rows are summed in blocks of _BLOCK, in order."""
    total = 0.0
    for start in range(0, z.shape[-1], _BLOCK):
        block = z[..., start : start + _BLOCK]
        total = total + np.einsum("...t,...t->...", block, block)
    return total / z.shape[-1]


def model_score(z, n_points: int) -> float:
    """Mean-squared departure of one residual vector: ``||z||^2 / n_points``."""
    arr = _frozen_float_array(z, "residual vector", order="C")
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("residual vector must be non-empty and 1-d")
    n = int(n_points)
    if n < 1 or n != arr.size:
        raise ValidationError(
            f"n_points ({n_points}) must equal the residual length ({arr.size})"
        )
    return float(_mean_square(arr))


def model_scores(rs: ResidualSet) -> np.ndarray:
    """Per-model scores for a whole residual set: the read-only 1-d
    ``rs.scores`` that its construction computed."""
    return rs.scores


def _correspondence_entries(rs: ResidualSet) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric correspondence array of a set under construction and the
    direct per-model scores, which its diagonal is checked against and then
    replaced by; ValidationError if it overflows, or if a nonzero residual
    row scores 0, its squares underflowing."""
    z = rs.residuals
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (z @ z.T) / rs.n_points
        entries = 0.5 * (raw + raw.T)
        scores = _mean_square(z)
    _require_finite(entries, "correspondence entries")
    if np.any(((scores == 0.0) | (entries.diagonal() == 0.0)) & z.any(axis=1)):
        raise ValidationError("residuals too small: a nonzero residual row scores 0")
    if not np.allclose(entries.diagonal(), scores, rtol=1e-12, atol=0.0):
        raise EnsdiagError(
            "internal inconsistency: correspondence diagonal departs from "
            "the per-model scores"
        )
    np.fill_diagonal(entries, scores)  # one score per member
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
    """
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
    return direct
