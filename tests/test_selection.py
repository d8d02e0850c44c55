"""Pre-screening, the equally-bad predicate, and anti-correlation selection."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from ensdiag import (
    AlignmentError,
    ObservationSeries,
    ResidualSet,
    ValidationError,
    ZeroNormError,
    anti_correlated_subset,
    correspondence_matrix,
    equally_bad_test,
    prescreen,
)
from ensdiag import selection
from ensdiag.selection import _exhaustive_subset, _greedy_subset
from helpers import (
    correspondence_oracle,
    cross_sum_reference,
    exhaustive_subset_reference,
    random_residual_set,
    score_oracle,
)


def _obs(values):
    return ObservationSeries(range(len(values)), values)


# ---------------------------------------------------------------------------
# prescreen
# ---------------------------------------------------------------------------


def test_prescreen_keeps_good_model():
    obs = _obs([3.0, 4.0])
    rs = ResidualSet([[1.0, 1.0]])
    report = prescreen(rs, obs, 0.1)
    expected_ratio = score_oracle([1.0, 1.0]) / score_oracle([3.0, 4.0])
    assert report.kept == (0,)
    assert report.dropped == ()
    assert report.ratios == pytest.approx((expected_ratio,), rel=1e-15)
    assert report.ratios[0] == pytest.approx(0.08, rel=1e-12)


def test_prescreen_drops_bad_model():
    obs = _obs([3.0, 4.0])
    rs = ResidualSet([[1.0, 1.0], [5.0, 5.0]])
    report = prescreen(rs, obs, 0.1)
    assert report.kept == (0,)
    assert report.dropped == (1,)
    assert report.ratios[1] == pytest.approx(2.0, rel=1e-12)
    assert report.criterion == "prescreen"


def test_prescreen_rejects_misaligned_observations():
    with pytest.raises(AlignmentError, match="observations have 3 points but residuals have 2"):
        prescreen(ResidualSet([[1.0, 1.0]]), _obs([1.0, 2.0, 3.0]), 1.0)


def test_prescreen_zero_observations():
    with pytest.raises(ZeroNormError):
        prescreen(ResidualSet([[1.0, 1.0]]), _obs([0.0, 0.0]), 0.1)


def test_prescreen_infinite_threshold_keeps_everything():
    obs = _obs([1.0, 2.0])
    rs = ResidualSet([[9.0, 9.0], [100.0, -100.0], [0.0, 0.0]])
    report = prescreen(rs, obs, math.inf)
    assert report.kept == (0, 1, 2)
    assert report.dropped == ()


def test_prescreen_validates_threshold():
    obs = _obs([1.0, 2.0])
    rs = ResidualSet([[1.0, 1.0]])
    with pytest.raises(ValidationError):
        prescreen(rs, obs, 0.0)
    with pytest.raises(ValidationError):
        prescreen(rs, obs, math.nan)


def test_prescreen_partitions_in_order():
    rng = np.random.default_rng(83)
    obs = _obs(rng.uniform(1, 5, size=12))
    rs = ResidualSet(rng.uniform(-10, 10, size=(6, 12)))
    report = prescreen(rs, obs, 1.0)
    assert sorted(report.kept + report.dropped) == list(range(6))
    assert list(report.kept) == sorted(report.kept)
    assert list(report.dropped) == sorted(report.dropped)


# ---------------------------------------------------------------------------
# equally_bad_test
# ---------------------------------------------------------------------------


def test_equally_bad_true_case():
    obs = _obs([0.1, 0.1])
    rs = ResidualSet([[1.0, 1.0], [1.0, -1.0]])
    assert equally_bad_test(rs, obs, tol_equal=0.05, badness_floor=10.0)


def test_equally_bad_false_when_models_good():
    obs = _obs([3.0, 4.0])
    rs = ResidualSet([[1.0, 1.0]])
    assert not equally_bad_test(rs, obs, tol_equal=0.05, badness_floor=10.0)


def test_equally_bad_false_when_scores_differ():
    obs = _obs([0.1, 0.1])
    rs = ResidualSet([[1.0, 1.0], [3.0, 3.0]])
    assert not equally_bad_test(rs, obs, tol_equal=0.05, badness_floor=0.001)


def test_equally_bad_zero_observations():
    with pytest.raises(ZeroNormError):
        equally_bad_test(ResidualSet([[1.0, 1.0]]), _obs([0.0, 0.0]), 0.05, 10.0)


@pytest.mark.parametrize(
    "tol_equal, badness_floor",
    [(math.nan, 10.0), (0.05, math.nan), (math.nan, math.nan), (-0.05, 10.0), (0.05, -1.0)],
)
def test_equally_bad_refuses_nan_or_negative_tolerances(tol_equal, badness_floor):
    rs = ResidualSet([[1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValidationError, match="^tol_equal and badness_floor must be non-negative"):
        equally_bad_test(rs, _obs([0.1, 0.1]), tol_equal, badness_floor)


# ---------------------------------------------------------------------------
# anti_correlated_subset
# ---------------------------------------------------------------------------


def test_anticorr_prefers_opposing_pair():
    rs = ResidualSet([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]])
    report = anti_correlated_subset(rs, 2)
    assert report.kept == (0, 1)  # lexicographically first of the tied minima
    assert report.objective_value == pytest.approx(-0.5, rel=1e-12)
    assert report.criterion == "anticorr-exhaustive"
    assert report.dropped == (2,)


def test_anticorr_identical_models_any_pair():
    rs = ResidualSet([[1.0, 1.0]] * 3)
    report = anti_correlated_subset(rs, 2)
    assert len(report.kept) == 2
    assert report.objective_value == pytest.approx(0.5, rel=1e-12)  # s1^2 / 2


def test_anticorr_orthogonal_pair_beats_positive_pairs():
    rs = ResidualSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    report = anti_correlated_subset(rs, 2)
    assert report.kept == (0, 1)
    assert report.objective_value == pytest.approx(0.0, abs=1e-15)


def test_anticorr_k_out_of_range():
    rs = ResidualSet([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValidationError):
        anti_correlated_subset(rs, 1)
    with pytest.raises(ValidationError):
        anti_correlated_subset(rs, 3)


def test_anticorr_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(89)
    for _ in range(60):
        rs = random_residual_set(rng, m_range=(3, 8))
        k = int(rng.integers(2, rs.n_models + 1))
        exhaustive = _exhaustive_subset(rs.entries, k)
        greedy = _greedy_subset(rs.entries, k)
        least = cross_sum_reference(rs.entries, exhaustive)
        assert least <= cross_sum_reference(rs.entries, greedy) + 1e-12 * k * k
        # the subset count puts every set of this size on the exhaustive side
        report = anti_correlated_subset(rs, k)
        assert (report.kept, report.criterion) == (exhaustive, "anticorr-exhaustive")


def test_anticorr_subset_count_alone_chooses_the_search(monkeypatch):
    rng = np.random.default_rng(101)
    rs = random_residual_set(rng, m_range=(30, 30))
    assert math.comb(30, 4) > selection.EXHAUSTIVE_LIMIT
    report = anti_correlated_subset(rs, 4)
    assert (report.kept, report.criterion) == (_greedy_subset(rs.entries, 4), "anticorr-greedy")
    small = random_residual_set(rng, m_range=(7, 7))
    for limit, criterion in [(35, "anticorr-exhaustive"), (34, "anticorr-greedy")]:
        monkeypatch.setattr(selection, "EXHAUSTIVE_LIMIT", limit)  # C(7, 3) = 35
        assert anti_correlated_subset(small, 3).criterion == criterion


def test_anticorr_exhaustive_minimizes_cross_term_by_recomputation():
    rng = np.random.default_rng(97)
    rs = random_residual_set(rng, m_range=(5, 7))
    k = 3
    report = anti_correlated_subset(rs, k)
    z = rs.residuals

    def cross(subset):
        return sum(
            2.0 * correspondence_oracle(z[i], z[j]) / (k * k)
            for a, i in enumerate(subset)
            for j in subset[a + 1 :]
        )

    chosen = cross(report.kept)
    assert chosen == pytest.approx(report.objective_value, rel=1e-10, abs=1e-12)
    for subset in combinations(range(rs.n_models), k):
        assert chosen <= cross(subset) + 1e-10


def test_anticorr_greedy_seeds_from_least_correspondent_pair():
    rs = ResidualSet([[1.0, 1.0], [-1.0, -1.0], [5.0, 5.0], [5.0, -5.0]])
    entries = correspondence_matrix(rs).entries
    i, j = _greedy_subset(entries, 2)
    assert entries[i, j] == entries[np.triu_indices(4, k=1)].min()


def test_anticorr_partition_invariant():
    rng = np.random.default_rng(91)
    rs = random_residual_set(rng, m_range=(4, 8))
    report = anti_correlated_subset(rs, 3)
    assert sorted(report.kept + report.dropped) == list(range(rs.n_models))


# ---------------------------------------------------------------------------
# the batched exhaustive search against the per-subset loop
# ---------------------------------------------------------------------------


def _symmetric(values):
    return np.triu(values) + np.triu(values, 1).T


def _assert_same_as_loop(entries, k):
    subsets = np.array(list(combinations(range(entries.shape[0]), k)), dtype=np.intp)
    expected = np.array([cross_sum_reference(entries, tuple(s)) for s in subsets.tolist()])
    assert selection._cross_sums(entries, subsets).tobytes() == expected.tobytes()
    assert _exhaustive_subset(entries, k) == exhaustive_subset_reference(entries, k)


def _entry_sets(rng, m):
    """Normal entries, integers with many exact ties, and entries of
    magnitudes from 2**-500 to 2**500, one symmetric matrix each."""
    return [
        _symmetric(rng.normal(size=(m, m))),
        _symmetric(rng.integers(-2, 3, size=(m, m)).astype(np.float64)),
        _symmetric(rng.normal(size=(m, m)) * 2.0 ** rng.integers(-500, 501, size=(m, m))),
    ]


def test_batched_search_matches_the_loop_for_every_small_size():
    rng = np.random.default_rng(1501)
    for m in range(2, 15):
        for k in range(2, m + 1):
            assert math.comb(m, k) <= selection.EXHAUSTIVE_LIMIT
            _assert_same_as_loop(_entry_sets(rng, m)[(m + k) % 3], k)


@pytest.mark.parametrize("m, k", [(20, 18), (24, 21), (100, 99)])
def test_batched_search_matches_the_loop_on_long_pairwise_sums(m, k):
    # k**2 > 128 entries: numpy's pairwise sum splits the block recursively;
    # 99**2 is also above the 8,192 items of numpy's reduction buffer
    rng = np.random.default_rng(1502 + m)
    for entries in _entry_sets(rng, m):
        _assert_same_as_loop(entries, k)


@pytest.mark.parametrize("batch_subsets", [1, 2, 3, 7])
def test_batched_search_keeps_the_first_minimum_across_batches(monkeypatch, batch_subsets):
    k = 3
    monkeypatch.setattr(selection, "_BATCH_ENTRIES", batch_subsets * k * k)
    rng = np.random.default_rng(1510 + batch_subsets)
    for m in (3, 5, 9):
        for entries in _entry_sets(rng, m):
            _assert_same_as_loop(entries, k)
    ties = np.zeros((6, 6))  # every subset ties: the first one wins
    assert _exhaustive_subset(ties, k) == (0, 1, 2)


def test_batched_search_memory_is_bounded_at_the_largest_subsets():
    m, k = 141, 139  # C(141, 139) = 9,870 subsets of 19,321 entries each
    assert math.comb(m, k) <= selection.EXHAUSTIVE_LIMIT
    entries = _symmetric(np.random.default_rng(1520).normal(size=(m, m)))
    tracemalloc.start()
    try:
        _exhaustive_subset(entries, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
