"""Verdict, bounds, and regime tests."""

import numpy as np
import pytest

from ensdiag import (
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
    parse_ensemble_csv,
    schwartz_bounds,
    uniform_weights,
)
from helpers import random_residual_set, random_weights

HALF = WeightVector([0.5, 0.5])


# ---------------------------------------------------------------------------
# check_result1
# ---------------------------------------------------------------------------


def test_result1_collinear_dominated():
    verdict = check_result1(ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2), HALF)
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds
    assert verdict.witnesses == ()
    assert verdict.s_min_sq == 1.0
    assert verdict.s_sq == 2.25
    assert verdict.best_model_index == 0


def test_result1_opposing_pair():
    verdict = check_result1(ResidualSet([[1.0, 1.0], [-1.0, -1.0]], 2), HALF)
    assert not verdict.hypothesis_holds
    assert not verdict.conclusion_holds
    assert verdict.witnesses == ((0, 1),)
    assert verdict.s_sq == 0.0


def test_result1_identical_models_tie():
    # correspondence ties the best score exactly; strict hypothesis fails
    verdict = check_result1(ResidualSet([[1.0, 1.0], [1.0, 1.0]], 2), HALF)
    assert not verdict.hypothesis_holds
    assert verdict.witnesses == ((0, 1),)
    assert not verdict.conclusion_holds
    assert verdict.s_sq == verdict.s_min_sq == 1.0


def test_result1_requires_two_models():
    with pytest.raises(ValidationError):
        check_result1(ResidualSet([[1.0, 1.0]], 2), WeightVector([1.0]))


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
    verdict = check_result2(ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2), HALF)
    assert verdict.hypothesis_holds  # cos 1 > threshold 1/2
    assert verdict.conclusion_holds


def test_result2_orthogonal_equal_scores():
    verdict = check_result2(ResidualSet([[1.0, 0.0], [0.0, 1.0]], 2), HALF)
    assert not verdict.hypothesis_holds  # cos 0 below threshold 1
    assert verdict.witnesses == ((0, 1),)


def test_result2_identical_models_tie_matches_result1():
    rs = ResidualSet([[1.0, 1.0], [1.0, 1.0]], 2)
    assert not check_result2(rs, HALF).hypothesis_holds
    assert not check_result1(rs, HALF).hypothesis_holds


def test_result2_perfect_member_raises():
    rs = ResidualSet([[1.0, 1.0], [0.0, 0.0]], 2)
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
        rs = ResidualSet(z, t)
        w = random_weights(rng, m)
        verdicts = (check_result1(rs, w), check_result2(rs, w), check_result3(rs, w))
        assert {v.best_model_index for v in verdicts} == {rs.best}
        assert {v.s_min_sq for v in verdicts} == {float(rs.scores.min())}
        assert rs.entries[rs.best, rs.best] == rs.s_min_sq


# ---------------------------------------------------------------------------
# check_result3
# ---------------------------------------------------------------------------


def test_result3_opposing_pair():
    verdict = check_result3(ResidualSet([[1.0, 1.0], [-1.0, -1.0]], 2), HALF)
    assert verdict.hypothesis_holds  # 0 < 1
    assert verdict.conclusion_holds
    assert (0, 1) in verdict.witnesses


def test_result3_vacuous_when_average_loses():
    verdict = check_result3(ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2), HALF)
    assert not verdict.hypothesis_holds  # 2.25 > 1


def test_result3_orthogonal_pair():
    verdict = check_result3(ResidualSet([[1.0, 0.0], [0.0, 1.0]], 2), HALF)
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
    bounds = schwartz_bounds(ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2), HALF)
    assert bounds.lower == 0.0
    assert bounds.upper == pytest.approx(2.25, rel=1e-15)
    assert bounds.actual == pytest.approx(2.25, rel=1e-15)
    assert bounds.upper_tight


def test_bounds_opposing_lower_attained():
    bounds = schwartz_bounds(ResidualSet([[1.0, 1.0], [-1.0, -1.0]], 2), HALF)
    assert bounds.upper == pytest.approx(1.0, rel=1e-15)
    assert bounds.actual == 0.0
    assert not bounds.upper_tight


def test_bounds_identical_models():
    rs = ResidualSet([[1.0, 1.0]] * 4, 2)
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
        rs = ResidualSet(np.outer(factors, base), t)
        w = random_weights(rng, m)
        bounds = schwartz_bounds(rs, w)
        assert bounds.actual == pytest.approx(bounds.upper, rel=1e-10)
        assert bounds.upper_tight


def test_bounds_tight_with_perfect_member():
    # zero-residual members cannot spoil tightness and must not raise
    rs = ResidualSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], 2)
    bounds = schwartz_bounds(rs, WeightVector([0.2, 0.4, 0.4]))
    assert bounds.upper_tight
    assert bounds.actual == pytest.approx(bounds.upper, rel=1e-12)


# ---------------------------------------------------------------------------
# classify_regime
# ---------------------------------------------------------------------------


def test_regime_equally_good_low_correspondence():
    rs = ResidualSet([[1.0, 0.0], [0.0, 1.0]], 2)
    assert classify_regime(rs, 0.05, 0.1) is Regime.EQUALLY_GOOD_LOW_CORRESPONDENCE


def test_regime_dominant_best():
    rs = ResidualSet([[0.1, 0.1], [5.0, 5.0], [6.0, 6.0]], 2)
    assert classify_regime(rs) is Regime.DOMINANT_BEST_POSITIVE_CORRESPONDENCE


def test_regime_neither_under_defaults():
    rs = ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2)
    assert classify_regime(rs) is Regime.NEITHER


def test_regime_validates_inputs():
    rs = ResidualSet([[1.0, 0.0], [0.0, 1.0]], 2)
    with pytest.raises(ValidationError):
        classify_regime(rs, 0.0, 0.1)
    with pytest.raises(ValidationError):
        classify_regime(rs, 0.05, 1.0)
    with pytest.raises(ValidationError):
        classify_regime(ResidualSet([[1.0, 0.0]], 2))
    with pytest.raises(PerfectModelError):
        classify_regime(ResidualSet([[0.0, 0.0], [1.0, 1.0]], 2))


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
