"""Shared generators and pure-Python oracles for the test suite.

Oracles deliberately avoid the library's own code paths: scores and
correspondences are recomputed with ``math.fsum`` over Python floats,
and the simplex minimum is found by brute-force grid search or, exactly,
by enumerating every support.  The loop
references at the end are the pair loops and the per-window sweep that
the library replaced with array masks and whole-array window reductions,
and the row-by-row CSV parse that it replaced with chunked conversion.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations

import numpy as np

from ensdiag import (
    TIGHT_COSINE_TOL,
    CsvFormatError,
    CsvParseError,
    ModelEnsemble,
    ObservationSeries,
    Regime,
    ResidualSet,
    SweepRow,
    WeightVector,
    correspondence_matrix,
    cosine_matrix,
    ensemble_score,
    model_scores,
    residuals,
)
from ensdiag.report import _parse_time, _parse_value


def random_residual_set(rng, m_range=(2, 8), t_range=(2, 64), scale=10.0):
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    t = int(rng.integers(t_range[0], t_range[1] + 1))
    return ResidualSet(rng.uniform(-scale, scale, size=(m, t)), t)


def random_weights(rng, n_models):
    return WeightVector(rng.dirichlet(np.ones(n_models)))


def score_oracle(z) -> float:
    """Direct-summation mean-squared value of one residual vector."""
    values = [float(v) for v in z]
    return math.fsum(v * v for v in values) / len(values)


def correspondence_oracle(za, zb) -> float:
    """Direct-summation time-averaged product of two residual vectors."""
    a = [float(v) for v in za]
    b = [float(v) for v in zb]
    assert len(a) == len(b)
    return math.fsum(x * y for x, y in zip(a, b)) / len(a)


def weighted_residual_oracle(rows, w):
    """Direct weighted sum of residual rows."""
    t = len(rows[0])
    return [
        math.fsum(float(w[m]) * float(rows[m][i]) for m in range(len(rows)))
        for i in range(t)
    ]


def expansion_oracle(rs: ResidualSet, w) -> float:
    """Ensemble score via the diagonal-plus-cross-terms expansion."""
    z = rs.residuals
    m = rs.n_models
    weights = [float(x) for x in w]
    diag = math.fsum(weights[i] ** 2 * score_oracle(z[i]) for i in range(m))
    cross = math.fsum(
        weights[i] * weights[j] * correspondence_oracle(z[i], z[j])
        for i in range(m)
        for j in range(m)
        if i != j
    )
    return diag + cross


def simplex_grid(n_models: int, step: float) -> np.ndarray:
    """All simplex points with coordinates in multiples of ``step``."""
    n = round(1.0 / step)
    if n_models == 1:
        return np.array([[1.0]])
    if n_models == 2:
        i = np.arange(n + 1)
        return np.column_stack([i / n, (n - i) / n])
    if n_models == 3:
        points = [
            (i / n, j / n, (n - i - j) / n)
            for i in range(n + 1)
            for j in range(n + 1 - i)
        ]
        return np.array(points)
    raise NotImplementedError("grid oracle covers up to three models")


def grid_minimum(gram: np.ndarray, step: float) -> float:
    """Brute-force minimum of ``w @ gram @ w`` over the simplex grid."""
    grid = simplex_grid(gram.shape[0], step)
    values = np.einsum("ij,jk,ik->i", grid, gram, grid)
    return float(values.min())


def enumeration_minimum(rs: ResidualSet) -> float:
    """Exact simplex minimum of the ensemble score, for up to eight models.

    The minimizer is the minimizer over the affine hull of its own support,
    so it is the best strictly positive affine minimizer over all supports.
    Each comes from the support's KKT system by least squares (SVD), and
    its score from the averaged residual directly.
    """
    z = rs.residuals
    m = rs.n_models
    if m > 8:
        raise NotImplementedError("enumeration oracle covers up to eight models")
    gram = (z @ z.T) / rs.n_points
    best_score = math.inf
    for size in range(1, m + 1):
        for support in combinations(range(m), size):
            idx = list(support)
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * gram[np.ix_(idx, idx)]
            kkt[size, size] = 0.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            v = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if not np.all(v > 0.0):
                continue
            w = np.zeros(m)
            w[idx] = v / v.sum()
            zbar = w @ z
            best_score = min(best_score, float(np.sum(zbar * zbar)) / rs.n_points)
    return best_score


def illcond_residual_set(rng, m: int, sigma: float, t: int = 500) -> ResidualSet:
    """Errors sharing one component, with loadings of both signs, plus
    independent noise of size ``sigma``: the Gram's condition grows as
    ``1 / sigma**2``."""
    loading = rng.permutation(np.linspace(-0.5, 1.5, m))[:, None]
    z = loading * rng.normal(0.0, 1.0, t) + sigma * rng.normal(0.0, 1.0, (m, t))
    return ResidualSet(z, t)


def dyadic_array(rng, shape, denominator=1024, span=10_000):
    """Random dyadic rationals; sums and differences stay exact in float64."""
    return rng.integers(-span, span + 1, size=shape).astype(np.float64) / denominator


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------


def _pairs(m: int, keep) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(m) for j in range(i + 1, m) if keep(i, j))


def witnesses_reference(rs: ResidualSet):
    """Witness tuples of Results 1, 2 and 3, by pair loops."""
    m = rs.n_models
    entries = correspondence_matrix(rs).entries
    diag = entries.diagonal()
    s_corr = float(diag[int(np.argmin(diag))])
    cosines = cosine_matrix(rs)
    scores = model_scores(rs)
    s_min_sq = float(scores[int(np.argmin(scores))])
    thresholds = s_min_sq / np.outer(np.sqrt(scores), np.sqrt(scores))
    return (
        _pairs(m, lambda i, j: not entries[i, j] > s_corr),
        _pairs(m, lambda i, j: not cosines[i, j] > thresholds[i, j]),
        _pairs(m, lambda i, j: cosines[i, j] < thresholds[i, j]),
    )


def upper_tight_reference(rs: ResidualSet) -> bool:
    """Whether every live pair is collinear within TIGHT_COSINE_TOL, by loops."""
    entries = correspondence_matrix(rs).entries
    scores = entries.diagonal()
    norms = np.sqrt(scores)
    live = np.flatnonzero(scores > 0.0)
    for a in range(live.size):
        for b in range(a + 1, live.size):
            i, j = int(live[a]), int(live[b])
            if entries[i, j] / (norms[i] * norms[j]) < 1.0 - TIGHT_COSINE_TOL:
                return False
    return True


def regime_reference(rs: ResidualSet, tol_equal: float, tol_cos: float) -> Regime:
    """The regime classifier with its non-best pair test as a loop."""
    cosines = cosine_matrix(rs)
    scores = model_scores(rs)
    best = int(np.argmin(scores))
    s_min_sq = float(scores[best])
    m = rs.n_models
    equally_good = float(scores.max()) / s_min_sq - 1.0 <= tol_equal
    low_corr = all(cosines[i, j] <= tol_cos for i, j in _pairs(m, lambda i, j: True))
    if equally_good and low_corr:
        return Regime.EQUALLY_GOOD_LOW_CORRESPONDENCE
    dominant = s_min_sq <= tol_equal * float(np.delete(scores, best).min())
    non_best_positive = all(
        cosines[i, j] > 0.0 for i, j in _pairs(m, lambda i, j: best not in (i, j))
    )
    if dominant and non_best_positive:
        return Regime.DOMINANT_BEST_POSITIVE_CORRESPONDENCE
    return Regime.NEITHER


def greedy_subset_reference(entries: np.ndarray, k: int) -> tuple[int, ...]:
    """Greedy forward selection seeded by a loop over the pairs."""
    m = entries.shape[0]
    best_pair = (0, 1)
    best_value = math.inf
    for i in range(m):
        for j in range(i + 1, m):
            if entries[i, j] < best_value:
                best_pair, best_value = (i, j), float(entries[i, j])
    chosen = list(best_pair)
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


def sweep_reference(obs, ens, window: int, stride: int, w) -> list[SweepRow]:
    """The sweep as one residual set and one ensemble score per window."""
    full = residuals(ens, obs)
    rows = []
    for start in range(0, obs.n_points - window + 1, stride):
        rs = ResidualSet(full.residuals[:, start : start + window], window)
        scores = model_scores(rs)
        best = int(np.argmin(scores))
        s_min_sq = float(scores[best])
        s_sq = ensemble_score(rs, w)
        rows.append(
            SweepRow(
                window_start=int(obs.times[start]),
                window_end=int(obs.times[start + window - 1]),
                best_model_index=best,
                s_min_sq=s_min_sq,
                s_sq=s_sq,
                average_wins=s_sq < s_min_sq,
            )
        )
    return rows


def parse_csv_reference(text: str):
    """CSV ingest as ``csv.reader`` and one strict check per row.

    The row loop is ``parse_ensemble_csv`` before chunked conversion; a
    ``csv.Error`` becomes the ``CsvFormatError`` the parser raises for it.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise CsvFormatError(f"malformed CSV: {exc}") from None
    rows = [row for row in rows if row]  # ignore blank lines
    if not rows:
        raise CsvFormatError("input is empty")
    header = [cell.strip() for cell in rows[0]]
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

    records: list[tuple[int, float, list[float]]] = []
    seen_times: set[int] = set()
    for offset, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CsvParseError(
                offset,
                len(row) + 1 if len(row) < len(header) else len(header) + 1,
                f"expected {len(header)} fields, got {len(row)}",
            )
        t = _parse_time(row[0], offset, 1)
        if t in seen_times:
            raise CsvFormatError(f"duplicate time {t} at row {offset}")
        seen_times.add(t)
        y = _parse_value(row[1], offset, 2)
        outputs = [
            _parse_value(cell, offset, column)
            for column, cell in enumerate(row[2:], start=3)
        ]
        records.append((t, y, outputs))

    records.sort(key=lambda record: record[0])
    times = np.array([record[0] for record in records], dtype=np.int64)
    values = np.array([record[1] for record in records])
    outputs = np.array([record[2] for record in records]).T
    obs = ObservationSeries(times, values)
    ens = ModelEnsemble(tuple(names), outputs)
    return obs, ens
