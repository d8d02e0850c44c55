"""Verdicts on when the weighted average beats the best individual member.

Three checks share one vocabulary: ``check_result1`` and ``check_result2``
test a sufficient condition for the best member to beat the average (the
same condition, stated on correspondences and on cosines respectively),
and ``check_result3`` tests the necessary anti-collinearity condition for
the average to win.  Each verdict records its hypothesis and conclusion
separately; the implications between them are verified by the test
suite, never assumed here.

Every check reads the Gram geometry that the ``ResidualSet`` formed when
it was constructed, so the checks of one set share it.  Each pair test is
one mask over the upper triangle, read in row-major order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    ResidualSet,
    WeightVector,
    _check_weight_length,
    _correspondence_entries,  # unused here; perfbench/worker.py traces it by name
    cosine_matrix,
    ensemble_score,
    model_scores,  # unused here; perfbench/worker.py traces it by name
)
from .errors import EnsdiagError, ValidationError

__all__ = [
    "TIGHT_COSINE_TOL",
    "ResultVerdict",
    "ScoreBounds",
    "Regime",
    "check_result1",
    "check_result2",
    "check_result3",
    "schwartz_bounds",
    "classify_regime",
]

#: Off-diagonal cosines must be within this of 1 for the upper bound to
#: count as attained.
TIGHT_COSINE_TOL = 1e-9

#: Default ``classify_regime`` tolerances, for every caller that passes
#: them on: "about equally good" scores, and the "low correspondence"
#: cosine ceiling.
DEFAULT_TOL_EQUAL = 0.05
DEFAULT_TOL_COS = 0.1


@dataclass(frozen=True)
class ResultVerdict:
    """Outcome of one hypothesis/conclusion check.

    ``witnesses`` lists the unordered model-index pairs (i < j, zero-based)
    relevant to the verdict: pairs violating the hypothesis for the
    sufficient-condition checks, and pairs satisfying the conclusion for
    the necessary-condition check.
    """

    hypothesis_holds: bool
    conclusion_holds: bool
    witnesses: tuple[tuple[int, int], ...]
    s_min_sq: float
    s_sq: float
    best_model_index: int


@dataclass(frozen=True)
class ScoreBounds:
    """Envelope for the ensemble score: ``lower <= actual <= upper``."""

    lower: float
    upper: float
    actual: float
    upper_tight: bool


class Regime(enum.Enum):
    """Special-case geometries of an ensemble's residual vectors."""

    EQUALLY_GOOD_LOW_CORRESPONDENCE = "EquallyGoodLowCorrespondence"
    DOMINANT_BEST_POSITIVE_CORRESPONDENCE = "DominantBestPositiveCorrespondence"
    NEITHER = "Neither"


def _require_two_models(rs: ResidualSet) -> None:
    if rs.n_models < 2:
        raise ValidationError("this check requires at least two models")


def _check_tolerances(tol_equal: float, tol_cos: float) -> None:
    """The regime tolerances' one rule, for every caller that takes them."""
    if not (0.0 < tol_equal < 1.0) or not (0.0 < tol_cos < 1.0):
        raise ValidationError("regime tolerances must lie strictly between 0 and 1")


def _pairs_where(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i < j, where ``mask`` holds, in row-major order."""
    rows, cols = np.nonzero(np.triu(mask, k=1))
    return tuple(zip(rows.tolist(), cols.tolist()))


def _sufficient_verdict(rs, w, violations) -> ResultVerdict:
    witnesses = _pairs_where(violations)
    s_sq = ensemble_score(rs, w)
    return ResultVerdict(
        hypothesis_holds=not witnesses,
        conclusion_holds=s_sq > rs.s_min_sq,
        witnesses=witnesses,
        s_min_sq=rs.s_min_sq,
        s_sq=s_sq,
        best_model_index=rs.best,
    )


def check_result1(rs: ResidualSet, w: WeightVector) -> ResultVerdict:
    """Sufficient condition, correspondence form.

    Hypothesis: every off-diagonal correspondence strictly exceeds the
    best member's score.  Conclusion: the average scores strictly worse
    than the best member.  Ties count against the hypothesis and are
    reported as witnesses.
    """
    _require_two_models(rs)
    _check_weight_length(rs, w)
    return _sufficient_verdict(rs, w, ~(rs.entries > rs.s_min_sq))


def check_result2(rs: ResidualSet, w: WeightVector) -> ResultVerdict:
    """Sufficient condition, cosine form.

    Algebraically the same test as ``check_result1`` (divide both sides
    by the product of the two scores), evaluated independently through
    the cosine matrix as a cross-check.  Raises PerfectModelError when a
    member has zero residual.
    """
    _require_two_models(rs)
    _check_weight_length(rs, w)
    violations = ~(cosine_matrix(rs) > rs.thresholds)
    return _sufficient_verdict(rs, w, violations)


def check_result3(rs: ResidualSet, w: WeightVector) -> ResultVerdict:
    """Necessary condition for the average to beat every member.

    Hypothesis: the average scores strictly better than the best member.
    Conclusion: some pair of residual vectors is anti-collinear enough,
    i.e. its cosine falls below the best score divided by the product of
    the pair's scores.  All such pairs are reported as witnesses.
    """
    _require_two_models(rs)
    _check_weight_length(rs, w)
    witnesses = _pairs_where(cosine_matrix(rs) < rs.thresholds)
    s_sq = ensemble_score(rs, w)
    return ResultVerdict(
        hypothesis_holds=s_sq < rs.s_min_sq,
        conclusion_holds=bool(witnesses),
        witnesses=witnesses,
        s_min_sq=rs.s_min_sq,
        s_sq=s_sq,
        best_model_index=rs.best,
    )


def schwartz_bounds(rs: ResidualSet, w: WeightVector) -> ScoreBounds:
    """Sharp envelope for the ensemble score.

    The upper bound is the squared weighted sum of the per-model root
    scores; it is attained exactly when all residual directions agree,
    so ``upper_tight`` reports whether every off-diagonal cosine among
    nonzero-residual members is 1 within TIGHT_COSINE_TOL.  Zero-residual
    members never spoil tightness: they contribute nothing to either
    side.
    """
    weights = _check_weight_length(rs, w)
    upper = float(weights @ rs.norms) ** 2
    actual = ensemble_score(rs, w)
    if actual > upper + 1e-10 * max(upper, actual):
        raise EnsdiagError(
            f"internal inconsistency: ensemble score {actual!r} exceeds its "
            f"upper bound {upper!r}"
        )
    live = np.delete(np.arange(rs.n_models), rs.perfect)
    norms = rs.norms[live]
    cosines = rs.entries[np.ix_(live, live)] / np.outer(norms, norms)
    upper_tight = not np.triu(cosines < 1.0 - TIGHT_COSINE_TOL, k=1).any()
    return ScoreBounds(lower=0.0, upper=upper, actual=actual, upper_tight=upper_tight)


def classify_regime(
    rs: ResidualSet,
    tol_equal: float = DEFAULT_TOL_EQUAL,
    tol_cos: float = DEFAULT_TOL_COS,
) -> Regime:
    """Classify the ensemble into one of two special-case geometries.

    Equally good, low correspondence: all scores within ``tol_equal``
    (relative) of the best and every off-diagonal cosine at most
    ``tol_cos``.  Dominant best, positive correspondence: the best score
    is at most ``tol_equal`` times the next-smallest score and all
    cosines among non-best pairs are positive.  Checked in that order;
    anything else is ``Neither``.
    """
    _require_two_models(rs)
    _check_tolerances(tol_equal, tol_cos)
    cosines = cosine_matrix(rs)
    scores, best, s_min_sq = rs.scores, rs.best, rs.s_min_sq
    pairs = np.triu(np.ones(cosines.shape, dtype=bool), k=1)

    equally_good = float(scores.max()) / s_min_sq - 1.0 <= tol_equal
    low_corr = bool(np.all(cosines[pairs] <= tol_cos))
    if equally_good and low_corr:
        return Regime.EQUALLY_GOOD_LOW_CORRESPONDENCE

    others = np.delete(scores, best)
    dominant = s_min_sq <= tol_equal * float(others.min())
    pairs[best, :] = pairs[:, best] = False
    non_best_positive = bool(np.all(cosines[pairs] > 0.0))
    if dominant and non_best_positive:
        return Regime.DOMINANT_BEST_POSITIVE_CORRESPONDENCE
    return Regime.NEITHER
