"""Model pre-screening and anti-correlation subset selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .core import (
    ObservationSeries,
    ResidualSet,
    _correspondence_entries,  # unused here; perfbench/worker.py traces it by name
    _mean_square,
    _pairs,
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
    ``badness_floor`` times the observation mean-square.  A NaN or
    negative tolerance raises ValidationError.
    """
    tol_equal, badness_floor = float(tol_equal), float(badness_floor)
    if not (tol_equal >= 0.0 and badness_floor >= 0.0):
        raise ValidationError("tol_equal and badness_floor must be non-negative numbers")
    mean_square = _observation_mean_square(rs, obs)
    scores = model_scores(rs)
    s_min = float(scores.min())
    s_max = float(scores.max())
    # Multiplicative forms: safe even if a member scores exactly zero.
    spread_ok = s_max <= (1.0 + tol_equal) * s_min
    badly_ok = s_min >= badness_floor * mean_square
    return bool(spread_ok and badly_ok)


#: Correspondence entries gathered per batch of the exhaustive search, so
#: that its memory stays bounded whatever ``C(M, k)`` and ``k`` are.
_BATCH_ENTRIES = 2**20


def _cross_sums(entries: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Ordered-pair sum of correspondences inside each row of the n×k index
    array ``subsets``: the pairwise sum of the row's contiguous k×k block
    minus the sum of its diagonal, the same bits whatever rows share the call."""
    n, k = subsets.shape
    blocks = entries[subsets[:, :, None], subsets[:, None, :]].reshape(n, k * k)
    return blocks.sum(axis=1) - entries.diagonal()[subsets].sum(axis=1)


def _exhaustive_subset(entries: np.ndarray, k: int) -> tuple[int, ...]:
    """The size-``k`` subset of least cross-term sum, over every subset in
    lexicographic order, ``_BATCH_ENTRIES // k**2`` at a time."""
    m = entries.shape[0]
    count = math.comb(m, k)
    batch = max(1, _BATCH_ENTRIES // (k * k))
    subsets = combinations(range(m), k)
    best_subset: tuple[int, ...] = ()
    best_value = math.inf
    for start in range(0, count, batch):
        size = min(batch, count - start)
        indices = chain.from_iterable(islice(subsets, size))
        chunk = np.fromiter(indices, dtype=np.intp, count=size * k).reshape(size, k)
        values = _cross_sums(entries, chunk)
        first = int(np.argmin(values))  # first minimum: lexicographically first wins ties
        if values[first] < best_value:
            best_subset, best_value = tuple(chunk[first].tolist()), values[first]
    return best_subset


def _greedy_subset(entries: np.ndarray, k: int) -> tuple[int, ...]:
    """Greedy forward selection from the least-correspondent pair: each step
    adds the member whose correspondences with the chosen ones sum least,
    all candidates in one reduction.  Row ``c`` of the C-contiguous
    transpose of the chosen rows is ``entries[chosen, c]``, so its sum has
    the same bits as that 1-d sum; the smallest index wins ties."""
    rows, cols = _pairs(entries.shape[0])
    seed = int(np.argmin(entries[rows, cols]))  # first minimum in row-major order
    chosen = [int(rows[seed]), int(cols[seed])]
    while len(chosen) < k:
        gains = np.ascontiguousarray(entries[chosen].T).sum(axis=1)
        gains[chosen] = math.inf
        chosen.append(int(np.argmin(gains)))  # first minimum
    return tuple(sorted(chosen))


def anti_correlated_subset(rs: ResidualSet, k: int) -> SelectionReport:
    """Pick ``k`` models whose residuals disagree as much as possible.

    Minimizes the uniform-weight cross-term sum
    ``sum_{m != m'} (1/k^2) * R[m, m']`` over size-``k`` subsets:
    exhaustively while ``C(M, k) <= EXHAUSTIVE_LIMIT``, by greedy forward
    selection from the least-correspondent pair otherwise (the report's
    criterion names which).  The exhaustive search is one batched numpy
    reduction over the subsets in lexicographic order: each subset's sum
    has the same bits as on its own, and its memory stays bounded by
    gathering at most about ``2**20`` entries at a time.  Ties resolve to
    the lexicographically smallest index set.  Entries so large that
    ``k**2`` of them could overflow a sum raise ValidationError.
    """
    m = rs.n_models
    k = int(k)
    if not 2 <= k <= m:
        raise ValidationError(f"k must lie in [2, {m}]; got {k}")
    entries = rs.entries
    # every partial sum of the search is bounded by k^2 max|R|
    if not math.isfinite(k * k * float(np.abs(entries).max())):
        raise ValidationError(f"correspondence entries are too large to sum over {k} models")
    if math.comb(m, k) <= EXHAUSTIVE_LIMIT:
        method, kept = "exhaustive", _exhaustive_subset(entries, k)
    else:
        method, kept = "greedy", _greedy_subset(entries, k)
    dropped = tuple(i for i in range(m) if i not in kept)
    objective = float(_cross_sums(entries, np.array([kept], dtype=np.intp))[0]) / (k * k)
    return SelectionReport(
        kept=kept,
        dropped=dropped,
        criterion=f"anticorr-{method}",
        objective_value=objective,
    )
