"""Interval splitting, window sweeps, and calibrate-then-validate."""

import numpy as np
import pytest

from ensdiag import (
    ModelEnsemble,
    ObservationSeries,
    ValidationError,
    WeightVector,
    calibrate_then_validate,
    check_result3,
    ensemble_score,
    model_score,
    residuals,
    split_interval,
    sweep_best_model,
    uniform_weights,
)
from helpers import random_weights, sweep_reference


def _aligned(rng, n_models, n_points, t0=0):
    obs = ObservationSeries(
        np.arange(t0, t0 + n_points), rng.uniform(-5, 5, size=n_points)
    )
    ens = ModelEnsemble(
        tuple(f"m{i}" for i in range(n_models)),
        rng.uniform(-5, 5, size=(n_models, n_points)),
    )
    return obs, ens


# ---------------------------------------------------------------------------
# split_interval
# ---------------------------------------------------------------------------


def test_split_counts():
    rng = np.random.default_rng(211)
    obs, ens = _aligned(rng, 2, 10)
    split = split_interval(obs, ens, 6)
    assert split.calibration[0].n_points == 7
    assert split.validation[0].n_points == 3


def test_split_single_point_calibration_allowed():
    rng = np.random.default_rng(212)
    obs, ens = _aligned(rng, 2, 10)
    split = split_interval(obs, ens, 0)
    assert split.calibration[0].n_points == 1
    with pytest.raises(ValidationError):
        split_interval(obs, ens, -1)
    with pytest.raises(ValidationError):
        split_interval(obs, ens, 9)  # validation would be empty


def test_split_round_trip():
    rng = np.random.default_rng(213)
    obs, ens = _aligned(rng, 3, 12, t0=5)
    split = split_interval(obs, ens, 8)
    cal_obs, cal_ens = split.calibration
    val_obs, val_ens = split.validation
    assert np.array_equal(
        np.concatenate([cal_obs.times, val_obs.times]), obs.times
    )
    assert np.array_equal(
        np.concatenate([cal_obs.values, val_obs.values]), obs.values
    )
    assert np.array_equal(
        np.hstack([cal_ens.outputs, val_ens.outputs]), ens.outputs
    )
    assert cal_ens.model_names == ens.model_names == val_ens.model_names


# ---------------------------------------------------------------------------
# sweep_best_model
# ---------------------------------------------------------------------------


def test_sweep_alternating_best():
    obs = ObservationSeries([0, 1, 2, 3], [0.0, 0.0, 0.0, 0.0])
    ens = ModelEnsemble(
        ("m1", "m2"), [[0.0, 0.0, 2.0, 2.0], [2.0, 2.0, 0.0, 0.0]]
    )
    rows = sweep_best_model(obs, ens, window=2, stride=2, w=WeightVector([0.5, 0.5]))
    assert len(rows) == 2
    assert rows[0].best_model_index == 0 and rows[0].s_min_sq == 0.0
    assert rows[1].best_model_index == 1 and rows[1].s_min_sq == 0.0
    for row in rows:
        assert row.s_sq == 1.0
        assert not row.average_wins
    assert (rows[0].window_start, rows[0].window_end) == (0, 1)
    assert (rows[1].window_start, rows[1].window_end) == (2, 3)


def test_sweep_single_full_window_matches_global():
    rng = np.random.default_rng(217)
    obs, ens = _aligned(rng, 3, 9)
    w = random_weights(rng, 3)
    rows = sweep_best_model(obs, ens, window=9, stride=1, w=w)
    assert len(rows) == 1
    rs = residuals(ens, obs)
    verdict = check_result3(rs, w)
    assert rows[0].s_min_sq == verdict.s_min_sq
    assert rows[0].s_sq == verdict.s_sq
    assert rows[0].best_model_index == verdict.best_model_index


def test_sweep_cancellation_average_wins():
    obs = ObservationSeries([0, 1, 2, 3], [0.0] * 4)
    ens = ModelEnsemble(
        ("m1", "m2"), [[1.0, 1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]]
    )
    rows = sweep_best_model(obs, ens, window=4, stride=1, w=WeightVector([0.5, 0.5]))
    assert rows == [
        type(rows[0])(
            window_start=0,
            window_end=3,
            best_model_index=0,
            s_min_sq=1.0,
            s_sq=0.0,
            average_wins=True,
        )
    ]


def test_sweep_drops_trailing_partial_window():
    rng = np.random.default_rng(219)
    obs, ens = _aligned(rng, 2, 10)
    rows = sweep_best_model(obs, ens, window=4, stride=3, w=uniform_weights(2))
    assert [(r.window_start, r.window_end) for r in rows] == [(0, 3), (3, 6), (6, 9)]


def test_sweep_validates_window():
    rng = np.random.default_rng(221)
    obs, ens = _aligned(rng, 2, 5)
    with pytest.raises(ValidationError):
        sweep_best_model(obs, ens, window=6, stride=1, w=uniform_weights(2))
    with pytest.raises(ValidationError):
        sweep_best_model(obs, ens, window=0, stride=1, w=uniform_weights(2))
    with pytest.raises(ValidationError):
        sweep_best_model(obs, ens, window=2, stride=0, w=uniform_weights(2))


def test_disjoint_windows_average_to_whole_interval_score():
    rng = np.random.default_rng(223)
    for _ in range(50):
        window = int(rng.integers(1, 8))
        n_windows = int(rng.integers(1, 8))
        t = window * n_windows
        obs, ens = _aligned(rng, int(rng.integers(1, 5)), t)
        rs = residuals(ens, obs)
        for m in range(ens.n_models):
            whole = model_score(rs.residuals[m])
            parts = [
                model_score(rs.residuals[m, s : s + window])
                for s in range(0, t, window)
            ]
            weighted_mean = sum(window / t * p for p in parts)
            assert weighted_mean == pytest.approx(whole, rel=1e-10)


TOO_SMALL = "residuals too small: a nonzero residual row scores 0"


def _false_zero_data(a, b):
    return ObservationSeries(range(6), [0.0] * 6), ModelEnsemble(("a", "b"), [a, b])


@pytest.mark.parametrize("window, stride", [(3, 3), (1, 1), (2, 1)])
def test_sweep_refuses_a_member_window_whose_nonzero_residuals_score_zero(window, stride):
    # member a's first three residuals square to 0, so it would be a perfect best member
    obs, ens = _false_zero_data([1e-170] * 3 + [1.0] * 3, [1.0] * 5 + [2.0])
    for sweep in (sweep_best_model, sweep_reference):
        with pytest.raises(ValidationError, match=TOO_SMALL):
            sweep(obs, ens, window, stride, uniform_weights(2))
    assert len(sweep_best_model(obs, ens, 6, 1, uniform_weights(2))) == 1


def test_sweep_refuses_an_average_window_whose_nonzero_residual_scores_zero():
    # each member scores about 1e-320 on the first window; their average,
    # about 1e-170, squares to 0 and would win with a false score of 0
    obs, ens = _false_zero_data([1e-160] * 3 + [1.0] * 3, [-1e-160 + 2e-170] * 3 + [1.0, 1.0, 2.0])
    with pytest.raises(ValidationError, match=TOO_SMALL):
        sweep_best_model(obs, ens, 3, 3, uniform_weights(2))
    assert len(sweep_best_model(obs, ens, 6, 1, uniform_weights(2))) == 1


def test_sweep_average_wins_matches_result3_hypothesis():
    rng = np.random.default_rng(227)
    obs, ens = _aligned(rng, 3, 12)
    w = random_weights(rng, 3)
    rows = sweep_best_model(obs, ens, window=4, stride=4, w=w)
    rs = residuals(ens, obs)
    for index, row in enumerate(rows):
        start = index * 4
        window_rs = type(rs)(rs.residuals[:, start : start + 4])
        verdict = check_result3(window_rs, w)
        assert row.average_wins == verdict.hypothesis_holds


# ---------------------------------------------------------------------------
# calibrate_then_validate
# ---------------------------------------------------------------------------


def test_calibrate_identical_halves():
    rng = np.random.default_rng(229)
    half_y = rng.uniform(-3, 3, size=5)
    half_x = rng.uniform(-3, 3, size=(3, 5))
    obs = ObservationSeries(np.arange(10), np.tile(half_y, 2))
    ens = ModelEnsemble(("a", "b", "c"), np.tile(half_x, (1, 2)))
    result = calibrate_then_validate(obs, ens, 4)
    report = result.validation_report
    rs_cal = residuals(
        ModelEnsemble(("a", "b", "c"), half_x), ObservationSeries(np.arange(5), half_y)
    )
    cal_score = ensemble_score(rs_cal, result.calibration_weights)
    assert report.ensemble_score == pytest.approx(cal_score, rel=1e-12)


def test_calibrate_piecewise_example():
    obs = ObservationSeries([0, 1, 2, 3], [0.0] * 4)
    ens = ModelEnsemble(
        ("m1", "m2"), [[1.0, 1.0, 2.0, 2.0], [-1.0, -1.0, 2.0, 2.0]]
    )
    result = calibrate_then_validate(obs, ens, 1)
    np.testing.assert_allclose(
        result.calibration_weights.weights, [0.5, 0.5], atol=1e-10
    )
    report = result.validation_report
    assert report.ensemble_score == pytest.approx(4.0, rel=1e-12)
    assert report.per_model_scores == pytest.approx((4.0, 4.0), rel=1e-12)
    assert not report.result3.hypothesis_holds  # members tie with the average


def test_calibrate_single_model():
    obs = ObservationSeries([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0])
    ens = ModelEnsemble(("only",), [[2.0, 3.0, 4.0, 5.0]])
    result = calibrate_then_validate(obs, ens, 1)
    assert np.array_equal(result.calibration_weights.weights, [1.0])
    report = result.validation_report
    assert report.ensemble_score == pytest.approx(report.per_model_scores[0], rel=1e-15)
    assert report.result1 is None and report.regime is None
    assert report.settings.weights_mode == "calibrated"
