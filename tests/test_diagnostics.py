"""Verdict, bounds, and regime tests."""

import copy
import pickle

import numpy as np
import pytest

from ensdiag import core
from ensdiag import (
    ModelEnsemble,
    ObservationSeries,
    PerfectModelError,
    Regime,
    ResidualSet,
    ValidationError,
    WeightVector,
    build_report,
    calibrate_then_validate,
    check_result1,
    check_result2,
    check_result3,
    classify_regime,
    emit_report,
    ensemble_score,
    parse_ensemble_csv,
    schwartz_bounds,
    uniform_weights,
)
from helpers import random_residual_set, random_weights, witnesses_reference

HALF = WeightVector([0.5, 0.5])


# ---------------------------------------------------------------------------
# check_result1
# ---------------------------------------------------------------------------


def test_result1_collinear_dominated():
    verdict = check_result1(ResidualSet([[1.0, 1.0], [2.0, 2.0]]), HALF)
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds
    assert verdict.witnesses == ()
    assert verdict.s_min_sq == 1.0
    assert verdict.s_sq == 2.25
    assert verdict.best_model_index == 0


def test_result1_opposing_pair():
    verdict = check_result1(ResidualSet([[1.0, 1.0], [-1.0, -1.0]]), HALF)
    assert not verdict.hypothesis_holds
    assert not verdict.conclusion_holds
    assert verdict.witnesses == ((0, 1),)
    assert verdict.s_sq == 0.0


def test_result1_identical_models_tie():
    # correspondence ties the best score exactly; strict hypothesis fails
    verdict = check_result1(ResidualSet([[1.0, 1.0], [1.0, 1.0]]), HALF)
    assert not verdict.hypothesis_holds
    assert verdict.witnesses == ((0, 1),)
    assert not verdict.conclusion_holds
    assert verdict.s_sq == verdict.s_min_sq == 1.0


def test_result1_requires_two_models():
    with pytest.raises(ValidationError):
        check_result1(ResidualSet([[1.0, 1.0]]), WeightVector([1.0]))


def test_result1_theorem_never_violated():
    rng = np.random.default_rng(101)
    held = 0
    for _ in range(2000):
        rs = random_residual_set(rng)
        w = random_weights(rng, rs.n_models)
        verdict = check_result1(rs, w)
        if verdict.hypothesis_holds:
            held += 1
            assert verdict.conclusion_holds
    assert held > 0  # the sampled population must exercise the implication


# ---------------------------------------------------------------------------
# check_result2
# ---------------------------------------------------------------------------


def test_result2_collinear_dominated():
    verdict = check_result2(ResidualSet([[1.0, 1.0], [2.0, 2.0]]), HALF)
    assert verdict.hypothesis_holds  # cos 1 > threshold 1/2
    assert verdict.conclusion_holds


def test_result2_orthogonal_equal_scores():
    verdict = check_result2(ResidualSet([[1.0, 0.0], [0.0, 1.0]]), HALF)
    assert not verdict.hypothesis_holds  # cos 0 below threshold 1
    assert verdict.witnesses == ((0, 1),)


def test_result2_identical_models_tie_matches_result1():
    rs = ResidualSet([[1.0, 1.0], [1.0, 1.0]])
    assert not check_result2(rs, HALF).hypothesis_holds
    assert not check_result1(rs, HALF).hypothesis_holds


def test_result2_perfect_member_raises():
    rs = ResidualSet([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PerfectModelError):
        check_result2(rs, HALF)


def test_result1_result2_equivalence():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        rs = random_residual_set(rng)
        w = random_weights(rng, rs.n_models)
        v1 = check_result1(rs, w)
        v2 = check_result2(rs, w)
        assert v1.hypothesis_holds == v2.hypothesis_holds
        assert v1.conclusion_holds == v2.conclusion_holds
        assert v1.best_model_index == v2.best_model_index


def test_permuted_member_gives_every_verdict_one_best_member():
    # Member 1 is member 0 shuffled in time: the two score the same up to
    # rounding, so a best member read off anything but the one score per
    # member can differ between the forms.
    rng = np.random.default_rng(127)
    for _ in range(500):
        m, t = int(rng.integers(2, 6)), int(rng.integers(2, 40))
        z = rng.normal(size=(m, t))
        z[0] *= 0.5
        z[1] = rng.permutation(z[0])
        rs = ResidualSet(z)
        w = random_weights(rng, m)
        verdicts = (check_result1(rs, w), check_result2(rs, w), check_result3(rs, w))
        assert {v.best_model_index for v in verdicts} == {rs.best}
        assert {v.s_min_sq for v in verdicts} == {float(rs.scores.min())}
        assert rs.entries[rs.best, rs.best] == rs.s_min_sq


# ---------------------------------------------------------------------------
# check_result3
# ---------------------------------------------------------------------------


def test_result3_opposing_pair():
    verdict = check_result3(ResidualSet([[1.0, 1.0], [-1.0, -1.0]]), HALF)
    assert verdict.hypothesis_holds  # 0 < 1
    assert verdict.conclusion_holds
    assert (0, 1) in verdict.witnesses


def test_result3_vacuous_when_average_loses():
    verdict = check_result3(ResidualSet([[1.0, 1.0], [2.0, 2.0]]), HALF)
    assert not verdict.hypothesis_holds  # 2.25 > 1


def test_result3_perfect_member_raises():
    rs = ResidualSet([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PerfectModelError) as excinfo:
        check_result3(rs, HALF)
    assert excinfo.value.indices == (1,)


def test_result3_orthogonal_pair():
    verdict = check_result3(ResidualSet([[1.0, 0.0], [0.0, 1.0]]), HALF)
    assert verdict.s_sq == 0.25
    assert verdict.s_min_sq == 0.5
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds
    assert verdict.witnesses == ((0, 1),)


def test_result3_witness_always_exists_when_average_wins():
    rng = np.random.default_rng(107)
    wins = 0
    for _ in range(2000):
        rs = random_residual_set(rng)
        w = random_weights(rng, rs.n_models)
        verdict = check_result3(rs, w)
        if verdict.hypothesis_holds:
            wins += 1
            assert verdict.conclusion_holds
            assert verdict.witnesses
    assert wins > 0


# ---------------------------------------------------------------------------
# schwartz_bounds
# ---------------------------------------------------------------------------


def test_bounds_collinear_tight():
    bounds = schwartz_bounds(ResidualSet([[1.0, 1.0], [2.0, 2.0]]), HALF)
    assert bounds.lower == 0.0
    assert bounds.upper == pytest.approx(2.25, rel=1e-15)
    assert bounds.actual == pytest.approx(2.25, rel=1e-15)
    assert bounds.upper_tight


def test_bounds_opposing_lower_attained():
    bounds = schwartz_bounds(ResidualSet([[1.0, 1.0], [-1.0, -1.0]]), HALF)
    assert bounds.upper == pytest.approx(1.0, rel=1e-15)
    assert bounds.actual == 0.0
    assert not bounds.upper_tight


def test_bounds_identical_models():
    rs = ResidualSet([[1.0, 1.0]] * 4)
    w = WeightVector([0.1, 0.2, 0.3, 0.4])
    bounds = schwartz_bounds(rs, w)
    assert bounds.actual == pytest.approx(1.0, rel=1e-12)
    assert bounds.upper == pytest.approx(1.0, rel=1e-12)
    assert bounds.upper_tight


def test_bounds_hold_on_random_population():
    rng = np.random.default_rng(109)
    for _ in range(1000):
        rs = random_residual_set(rng)
        w = random_weights(rng, rs.n_models)
        bounds = schwartz_bounds(rs, w)
        assert bounds.actual >= 0.0
        assert bounds.actual <= bounds.upper * (1.0 + 1e-10)


def test_bounds_sharp_for_scaled_vectors():
    rng = np.random.default_rng(113)
    for _ in range(200):
        t = int(rng.integers(2, 64))
        m = int(rng.integers(2, 8))
        base = rng.uniform(-10, 10, size=t)
        factors = rng.uniform(0.1, 10.0, size=m)
        rs = ResidualSet(np.outer(factors, base))
        w = random_weights(rng, m)
        bounds = schwartz_bounds(rs, w)
        assert bounds.actual == pytest.approx(bounds.upper, rel=1e-10)
        assert bounds.upper_tight


def test_bounds_tight_with_perfect_member():
    # zero-residual members cannot spoil tightness and must not raise
    rs = ResidualSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    bounds = schwartz_bounds(rs, WeightVector([0.2, 0.4, 0.4]))
    assert bounds.upper_tight
    assert bounds.actual == pytest.approx(bounds.upper, rel=1e-12)


# ---------------------------------------------------------------------------
# classify_regime
# ---------------------------------------------------------------------------


def test_regime_equally_good_low_correspondence():
    rs = ResidualSet([[1.0, 0.0], [0.0, 1.0]])
    assert classify_regime(rs, 0.05, 0.1) is Regime.EQUALLY_GOOD_LOW_CORRESPONDENCE


def test_regime_dominant_best():
    rs = ResidualSet([[0.1, 0.1], [5.0, 5.0], [6.0, 6.0]])
    assert classify_regime(rs) is Regime.DOMINANT_BEST_POSITIVE_CORRESPONDENCE


def test_regime_neither_under_defaults():
    rs = ResidualSet([[1.0, 1.0], [2.0, 2.0]])
    assert classify_regime(rs) is Regime.NEITHER


def test_regime_validates_inputs():
    rs = ResidualSet([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        classify_regime(rs, 0.0, 0.1)
    with pytest.raises(ValidationError):
        classify_regime(rs, 0.05, 1.0)
    with pytest.raises(ValidationError):
        classify_regime(ResidualSet([[1.0, 0.0]]))
    with pytest.raises(PerfectModelError):
        classify_regime(ResidualSet([[0.0, 0.0], [1.0, 1.0]]))


# A perfect member, and a single model: inputs with no regime to classify.
NO_REGIME_INPUTS = {
    "perfect-member": "t,Y,a,b\n0,1,1,3\n1,2,2,5\n2,0,0,1\n3,1,1,4\n",
    "single-model": "t,Y,a\n0,1,2\n1,2,3\n2,0,2\n3,1,3\n",
}


@pytest.mark.parametrize("text", NO_REGIME_INPUTS.values(), ids=NO_REGIME_INPUTS)
@pytest.mark.parametrize("tol_equal, tol_cos", [(5.0, -3.0), (0.0, 0.1), (0.05, 1.0)])
def test_regime_tolerances_are_checked_without_a_regime(text, tol_equal, tol_cos):
    obs, ens = parse_ensemble_csv(text)
    tolerances = {"tol_equal": tol_equal, "tol_cos": tol_cos}
    with pytest.raises(ValidationError, match="regime tolerances"):
        build_report(obs, ens, uniform_weights(ens.n_models), **tolerances)
    with pytest.raises(ValidationError, match="regime tolerances"):
        calibrate_then_validate(obs, ens, 1, **tolerances)
    report = build_report(obs, ens, uniform_weights(ens.n_models))
    assert report.regime is None


# ---------------------------------------------------------------------------
# Near ties: one comparison for the pair condition
# ---------------------------------------------------------------------------


def _near_tie_sets(seed, n):
    """Sets of 2-4 members around a best row ``z_b`` of length 2-12: each
    other row is ``z_b * (1 + k * 2**-52) + c * v`` with ``v`` orthogonal to
    ``z_b``, so its correspondence with ``z_b`` lies within a few ulps of
    ``S_min^2``."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m, t = int(rng.integers(2, 5)), int(rng.integers(2, 13))
        z_b = rng.normal(0.0, 1.0, t)
        rows = [z_b]
        for _ in range(m - 1):
            g = rng.normal(0.0, 1.0, t)
            v = g - (g @ z_b) / (z_b @ z_b) * z_b
            k, c = int(rng.integers(-3, 4)), rng.uniform(0.1, 3.0)
            rows.append(z_b * (1.0 + k * 2.0**-52) + c * v)
        yield rng, ResidualSet(np.array(rows)[rng.permutation(m)])


def _duplicated_best_sets(seed, n):
    """Small-integer sets of 2-4 members whose best row appears twice, so that
    a correspondence equals ``S_min^2`` exactly."""
    rng = np.random.default_rng(seed)
    while n:
        m, t = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        rows = rng.integers(-3, 4, size=(m, t)).astype(np.float64)
        if not rows.any(axis=1).all():
            continue  # a perfect member leaves the cosines undefined
        best = rows[np.argmin((rows**2).sum(axis=1))]
        rows = np.vstack([rows, best])[rng.permutation(m + 1)]
        n -= 1
        yield rng, ResidualSet(rows)


def test_pair_condition_is_one_comparison_on_near_ties():
    sets = [*_near_tie_sets(503, 5_000), *_duplicated_best_sets(509, 1_000)]
    for rng, rs in sets:
        w = random_weights(rng, rs.n_models)
        result1 = check_result1(rs, w)
        assert check_result2(rs, w) == result1
        assert check_result3(rs, w).witnesses == witnesses_reference(rs)[2]
        assert not result1.hypothesis_holds or rs.best_vertex_is_optimal()

        # Result 1 <=> Result 2: away from a tie, the paper's cosine
        # inequality picks the same pairs as the correspondence form.
        thresholds = rs.s_min_sq / np.outer(rs.norms, rs.norms)
        clear = np.abs(rs.entries - rs.s_min_sq) > 1e-12 * rs.s_min_sq
        assert np.array_equal((rs.cosines > thresholds)[clear], (rs.entries > rs.s_min_sq)[clear])
        assert np.array_equal((rs.cosines < thresholds)[clear], (rs.entries < rs.s_min_sq)[clear])


def test_a_reports_witness_lists_render_the_same_again_and_as_copies():
    """A witness list keeps its text at its first render: emitted again, and
    pickled or copied (as plain tuples), the report gives the same bytes,
    whether Result 3 shares Result 1's list or a tie makes them differ."""
    rng = np.random.default_rng(331)
    plain = ResidualSet(rng.normal(0.0, 1.0, (6, 9)))
    tied = [rs for _, rs in _duplicated_best_sets(509, 20) if rs.n_models >= 3][:4]
    for rs in [plain, *tied]:
        m, t = rs.residuals.shape
        obs = ObservationSeries(np.arange(t), np.zeros(t))  # residuals are the outputs
        ens = ModelEnsemble(tuple(f"m{i}" for i in range(m)), rs.residuals)
        report = build_report(obs, ens, uniform_weights(m))
        shared = rs is plain
        assert (report.result3.witnesses is report.result1.witnesses) == shared
        text = emit_report(report)
        assert emit_report(report) == text
        for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert type(copied.result1.witnesses) is tuple
            assert emit_report(copied) == text


# ---------------------------------------------------------------------------
# quantities formed once per set
# ---------------------------------------------------------------------------


def _count_cross_checks(monkeypatch):
    """A list that grows by one for each ensemble-score cross-check: each
    computes the averaged residual once."""
    calls = []
    average_residual = core.average_residual

    def counted(rs, w):
        calls.append(w)
        return average_residual(rs, w)

    monkeypatch.setattr(core, "average_residual", counted)
    return calls


def test_checks_on_one_input_cross_check_the_ensemble_score_once(monkeypatch):
    calls = _count_cross_checks(monkeypatch)
    rs = ResidualSet([[1.0, 0.5, -0.25], [0.5, -1.0, 2.0], [-0.75, 0.25, 1.0]])
    w = WeightVector([0.5, 0.25, 0.25])
    s_sq = ensemble_score(rs, w)
    assert check_result1(rs, w).s_sq == s_sq
    assert check_result3(rs, w).s_sq == s_sq
    assert schwartz_bounds(rs, w).actual == s_sq
    assert calls == [w]
    assert ensemble_score(rs, WeightVector([0.5, 0.25, 0.25])) == s_sq  # equal, not the same
    assert len(calls) == 2


def test_a_new_set_or_new_weights_are_scored_afresh(monkeypatch):
    calls = _count_cross_checks(monkeypatch)
    rows = [[1.0, 2.0], [3.0, -1.0]]
    rs, w, v = ResidualSet(rows), WeightVector([0.5, 0.5]), WeightVector([1.0, 0.0])
    assert [ensemble_score(rs, w), ensemble_score(rs, v), ensemble_score(rs, w)] == [2.125, 2.5, 2.125]
    assert ensemble_score(ResidualSet(rows), w) == 2.125
    assert calls == [w, v, w, w]


def test_ties_count_for_result1_and_not_for_result3():
    # R00 = R01 = 0.5 = S_min^2 exactly, R11 = 1
    rs = ResidualSet([[1.0, 0.0], [1.0, 1.0]])
    assert (rs.s_min_sq, rs.entries[0, 1]) == (0.5, 0.5)
    assert check_result1(rs, HALF).witnesses == ((0, 1),)
    assert check_result3(rs, HALF).witnesses == ()
    assert rs.witness_pairs == (((0, 1),), ())


def test_result3_shares_result1s_witnesses_when_nothing_ties():
    rng = np.random.default_rng(521)
    shared = 0
    for _ in range(200):
        rs = random_residual_set(rng)
        w = random_weights(rng, rs.n_models)
        result1, result3 = check_result1(rs, w), check_result3(rs, w)
        reference = witnesses_reference(rs)
        assert (result1.witnesses, result3.witnesses) == (reference[0], reference[2])
        ties = np.triu(rs.entries == rs.s_min_sq, k=1).any()
        assert (result3.witnesses is result1.witnesses) == (not ties)
        shared += not ties
    assert shared > 100


def test_witness_lists_with_ties_match_the_pair_loops():
    for _, rs in _duplicated_best_sets(523, 300):
        reference = witnesses_reference(rs)
        assert rs.witness_pairs == (reference[0], reference[2])
        assert rs.witness_pairs[0] is not rs.witness_pairs[1]  # the best row repeats: a tie
