"""Model pre-screening and anti-correlation subset selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    ObservationSeries,
    ResidualSet,
    _correspondence_entries,  # unused here; perfbench/worker.py traces it by name
    _mean_square,
    model_scores,
)
from .errors import AlignmentError, ValidationError, ZeroNormError

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "SelectionReport",
    "prescreen",
    "equally_bad_test",
    "anti_correlated_subset",
]

#: Exhaustive subset search is used while the number of candidate
#: subsets stays at or below this; beyond it, greedy forward selection.
EXHAUSTIVE_LIMIT = 10_000


@dataclass(frozen=True)
class SelectionReport:
    """Which models a selection rule kept, and why.

    ``kept`` and ``dropped`` partition the model indices, both in input
    order.  ``ratios`` holds the per-model screening ratios when the rule
    computed them (pre-screening), ``objective_value`` the achieved
    cross-term sum for anti-correlation selection.
    """

    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    criterion: str
    objective_value: float | None = None
    ratios: tuple[float, ...] | None = None


def _observation_mean_square(rs: ResidualSet, obs: ObservationSeries) -> float:
    if obs.n_points != rs.n_points:
        raise AlignmentError(
            f"observations have {obs.n_points} points but residuals have "
            f"{rs.n_points}"
        )
    mean_square = float(_mean_square(obs.values))
    if mean_square == 0.0:
        if obs.values.any():
            raise ValidationError(
                "observations too small: their mean square underflows to 0"
            )
        raise ZeroNormError(
            "all observations are zero; screening ratios are undefined"
        )
    return mean_square


def prescreen(
    rs: ResidualSet, obs: ObservationSeries, threshold: float
) -> SelectionReport:
    """Keep the models whose score is small relative to the observations.

    A model survives when its score divided by the observation
    mean-square is at most ``threshold``.  An infinite threshold keeps
    everything.  Observations whose mean square underflows to 0, or is so
    small that a ratio overflows, raise ValidationError.
    """
    threshold = float(threshold)
    if math.isnan(threshold) or threshold <= 0.0:
        raise ValidationError("threshold must be positive")
    mean_square = _observation_mean_square(rs, obs)
    with np.errstate(over="ignore"):
        ratios = model_scores(rs) / mean_square
    if not np.all(np.isfinite(ratios)):
        raise ValidationError(
            "screening ratios overflow: the observations are too small for "
            "the model scores"
        )
    kept = tuple(int(i) for i in np.flatnonzero(ratios <= threshold))
    dropped = tuple(int(i) for i in np.flatnonzero(ratios > threshold))
    return SelectionReport(
        kept=kept,
        dropped=dropped,
        criterion="prescreen",
        ratios=tuple(float(r) for r in ratios),
    )


def equally_bad_test(
    rs: ResidualSet,
    obs: ObservationSeries,
    tol_equal: float,
    badness_floor: float,
) -> bool:
    """True when all models score about the same and all of them score badly.

    "About the same" means the worst score is within ``tol_equal``
    (relative) of the best; "badly" means the best score is at least
    ``badness_floor`` times the observation mean-square.
    """
    mean_square = _observation_mean_square(rs, obs)
    scores = model_scores(rs)
    s_min = float(scores.min())
    s_max = float(scores.max())
    # Multiplicative forms: safe even if a member scores exactly zero.
    spread_ok = s_max <= (1.0 + float(tol_equal)) * s_min
    badly_ok = s_min >= float(badness_floor) * mean_square
    return bool(spread_ok and badly_ok)


def _cross_sum(entries: np.ndarray, subset: tuple[int, ...]) -> float:
    """Ordered-pair sum of correspondences inside ``subset``."""
    block = entries[np.ix_(subset, subset)]
    return float(block.sum() - np.trace(block))


def _exhaustive_subset(entries: np.ndarray, k: int) -> tuple[int, ...]:
    best_subset: tuple[int, ...] | None = None
    best_value = math.inf
    for subset in combinations(range(entries.shape[0]), k):
        value = _cross_sum(entries, subset)
        if value < best_value:  # strict: lexicographically first wins ties
            best_subset, best_value = subset, value
    assert best_subset is not None
    return best_subset


def _greedy_subset(entries: np.ndarray, k: int) -> tuple[int, ...]:
    m = entries.shape[0]
    rows, cols = np.triu_indices(m, k=1)
    seed = int(np.argmin(entries[rows, cols]))  # first minimum in row-major order
    chosen = [int(rows[seed]), int(cols[seed])]
    while len(chosen) < k:
        best_candidate = -1
        best_gain = math.inf
        for candidate in range(m):
            if candidate in chosen:
                continue
            gain = float(entries[chosen, candidate].sum())
            if gain < best_gain:
                best_candidate, best_gain = candidate, gain
        chosen.append(best_candidate)
    return tuple(sorted(chosen))


def anti_correlated_subset(
    rs: ResidualSet, k: int, method: str = "auto"
) -> SelectionReport:
    """Pick ``k`` models whose residuals disagree as much as possible.

    Minimizes the uniform-weight cross-term sum
    ``sum_{m != m'} (1/k^2) * R[m, m']`` over size-``k`` subsets:
    exhaustively while the subset count permits, by greedy forward
    selection from the least-correspondent pair otherwise.  Ties resolve
    to the lexicographically smallest index set.  Entries so large that
    ``k**2`` of them could overflow a sum raise ValidationError.
    """
    m = rs.n_models
    k = int(k)
    if not 2 <= k <= m:
        raise ValidationError(f"k must lie in [2, {m}]; got {k}")
    if method not in ("auto", "exhaustive", "greedy"):
        raise ValidationError("method must be 'auto', 'exhaustive', or 'greedy'")
    entries = rs.entries
    # every partial sum of the search is bounded by k^2 max|R|
    if not math.isfinite(k * k * float(np.abs(entries).max())):
        raise ValidationError(f"correspondence entries are too large to sum over {k} models")
    if method == "auto":
        method = "exhaustive" if math.comb(m, k) <= EXHAUSTIVE_LIMIT else "greedy"
    if method == "exhaustive":
        subset = _exhaustive_subset(entries, k)
    else:
        subset = _greedy_subset(entries, k)
    kept = tuple(sorted(subset))
    dropped = tuple(i for i in range(m) if i not in subset)
    objective = _cross_sum(entries, kept) / (k * k)
    return SelectionReport(
        kept=kept,
        dropped=dropped,
        criterion=f"anticorr-{method}",
        objective_value=objective,
    )
