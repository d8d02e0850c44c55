"""Verdicts on when the weighted average beats the best individual member.

Three checks share one vocabulary: ``check_result1`` and ``check_result2``
test a sufficient condition for the best member to beat the average (one
condition, stated on correspondences and on cosines), and ``check_result3``
tests the necessary anti-collinearity condition for the average to win.
Each verdict records its hypothesis and conclusion separately; the
implications between them are verified by the test suite, never assumed.

Every check reads the Gram geometry that the ``ResidualSet`` formed when
it was constructed, so the checks of one set share it.  Every test over
the pairs m < m' reads one pair index, ``core._pairs``: the witness pairs
of Results 1 and 3 come from one comparison of the correspondences over
it, in row-major order, with and without ties, which the set makes once
(``ResidualSet.witness_pairs``), and the tightness of the upper bound and
the regimes' cosine tests gather their pairs through it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    SCORE_AGREEMENT_RTOL,
    ResidualSet,
    WeightVector,
    _check_weight_length,
    _correspondence_entries,  # unused here; perfbench/worker.py traces it by name
    _pairs,
    cosine_matrix,
    ensemble_score,
    model_scores,  # unused here; perfbench/worker.py traces it by name
)
from .errors import EnsdiagError, PerfectModelError, ValidationError

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


def check_result1(rs: ResidualSet, w: WeightVector) -> ResultVerdict:
    """Sufficient condition, correspondence form.

    Hypothesis: every off-diagonal correspondence strictly exceeds the
    best member's score.  Conclusion: the average scores strictly worse
    than the best member.  Ties count against the hypothesis and are
    reported as witnesses.  The witnesses are the set's
    ``witness_pairs[0]``, formed once per set.
    """
    _require_two_models(rs)
    s_sq = ensemble_score(rs, w)
    witnesses = rs.witness_pairs[0]
    return ResultVerdict(
        hypothesis_holds=not witnesses,
        conclusion_holds=s_sq > rs.s_min_sq,
        witnesses=witnesses,
        s_min_sq=rs.s_min_sq,
        s_sq=s_sq,
        best_model_index=rs.best,
    )


def check_result2(rs: ResidualSet, w: WeightVector) -> ResultVerdict:
    """Sufficient condition, cosine form.

    ``cos(m, m') > S_min^2 / (S_m S_m')`` is ``R[m, m'] > S_min^2`` with
    both sides divided by ``S_m S_m' > 0``, so the verdict is
    ``check_result1``'s.  Raises PerfectModelError when a member has zero
    residual, since its cosines are undefined.
    """
    _require_two_models(rs)
    _check_weight_length(rs, w)
    if rs.perfect:
        raise PerfectModelError(rs.perfect)
    return check_result1(rs, w)


def check_result3(rs: ResidualSet, w: WeightVector) -> ResultVerdict:
    """Necessary condition for the average to beat every member.

    Hypothesis: the average scores strictly better than the best member.
    Conclusion: some pair's cosine falls below ``S_min^2 / (S_m S_m')``,
    i.e. its correspondence falls below ``S_min^2``.  All such pairs are
    reported as witnesses: the set's ``witness_pairs[1]``, which is the
    very tuple of ``check_result1``'s witnesses when no correspondence
    equals ``S_min^2``.  Raises PerfectModelError like check_result2.
    """
    _require_two_models(rs)
    s_sq = ensemble_score(rs, w)
    if rs.perfect:
        raise PerfectModelError(rs.perfect)
    witnesses = rs.witness_pairs[1]
    return ResultVerdict(
        hypothesis_holds=s_sq < rs.s_min_sq,
        conclusion_holds=bool(witnesses),
        witnesses=witnesses,
        s_min_sq=rs.s_min_sq,
        s_sq=s_sq,
        best_model_index=rs.best,
    )


def schwartz_bounds(rs: ResidualSet, w: WeightVector) -> ScoreBounds:
    """Envelope for the ensemble score: the lower bound 0, valid but not
    sharp in general (a sharp one is ROADMAP item 9), and the upper bound,
    the squared weighted sum of the per-model root scores, attained exactly
    when all residual directions agree; ``upper_tight`` reports whether
    every off-diagonal correspondence is at least ``(1 - TIGHT_COSINE_TOL)
    S_m S_m'``.  A zero-residual member has a zero row and root score, so
    it never spoils tightness.
    """
    weights = _check_weight_length(rs, w)
    upper = float(weights @ rs.norms) ** 2
    actual = ensemble_score(rs, w)
    if actual > upper + SCORE_AGREEMENT_RTOL * max(upper, actual):
        raise EnsdiagError(
            f"internal inconsistency: ensemble score {actual!r} exceeds its "
            f"upper bound {upper!r}"
        )
    rows, cols = _pairs(rs.n_models, rs._tables)
    floor = (1.0 - TIGHT_COSINE_TOL) * (rs.norms[rows] * rs.norms[cols])
    upper_tight = not np.logical_or.reduce(rs.entries[rows, cols] < floor)
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
    scores, best, s_min_sq = rs.scores.tolist(), rs.best, rs.s_min_sq
    cosines = cosine_matrix(rs)
    rows, cols = _pairs(rs.n_models, rs._tables)

    equally_good = max(scores) / s_min_sq - 1.0 <= tol_equal
    if equally_good and np.logical_and.reduce(cosines[rows, cols] <= tol_cos):
        return Regime.EQUALLY_GOOD_LOW_CORRESPONDENCE

    if s_min_sq <= tol_equal * min(scores[:best] + scores[best + 1 :]):  # a dominant best
        non_best = (rows != best) & (cols != best)
        if np.logical_and.reduce(cosines[rows[non_best], cols[non_best]] > 0.0):
            return Regime.DOMINANT_BEST_POSITIVE_CORRESPONDENCE
    return Regime.NEITHER
