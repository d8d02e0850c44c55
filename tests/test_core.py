"""Core data model and first-order metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensdiag import (
    AlignmentError,
    CorrespondenceMatrix,
    ModelEnsemble,
    ObservationSeries,
    PerfectModelError,
    ResidualSet,
    ValidationError,
    WeightVector,
    average_residual,
    check_result3,
    correspondence_matrix,
    cosine_matrix,
    ensemble_score,
    model_score,
    model_scores,
    residuals,
)
from helpers import (
    correspondence_oracle,
    dyadic_array,
    expansion_oracle,
    random_residual_set,
    random_weights,
    score_oracle,
    weighted_residual_oracle,
)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


def test_observation_series_accepts_consecutive_times():
    obs = ObservationSeries([5, 6, 7], [1.0, 2.0, 3.0])
    assert obs.n_points == 3
    assert obs.times.dtype == np.int64


@pytest.mark.parametrize(
    "times",
    [[0, 2], [1, 0], [0, 0], [0.5, 1.5]],
)
def test_observation_series_rejects_bad_times(times):
    with pytest.raises(ValidationError):
        ObservationSeries(times, [0.0] * len(times))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "times, message",
    [
        ([1e19], "times must lie within the int64 range"),
        ([2.0**63], "times must lie within the int64 range"),
        ([-1e19], "times must lie within the int64 range"),
        ([2**63], "times must lie within the int64 range"),  # numpy reads it as uint64
        # np.diff wraps to 1 here
        ([2**63 - 1, -(2**63)], "times must be consecutive increasing integers"),
    ],
    ids=["1e19", "2**63-float", "-1e19", "2**63-uint64", "diff-wraps"],
)
def test_observation_series_rejects_times_beyond_int64(times, message):
    with pytest.raises(ValidationError, match=message):
        ObservationSeries(times, [0.0] * len(times))


@pytest.mark.filterwarnings("error")
def test_observation_series_accepts_the_int64_extremes():
    assert ObservationSeries([-(2.0**63)], [0.0]).times.tolist() == [-(2**63)]
    top = ObservationSeries([2**63 - 2, 2**63 - 1], [0.0, 0.0])
    assert top.times.tolist() == [2**63 - 2, 2**63 - 1]


def test_observation_series_rejects_nonfinite_values():
    with pytest.raises(ValidationError):
        ObservationSeries([0, 1], [0.0, np.nan])


def test_observation_series_rejects_empty():
    with pytest.raises(ValidationError):
        ObservationSeries([], [])


def test_model_ensemble_rejects_duplicate_names():
    with pytest.raises(ValidationError):
        ModelEnsemble(("a", "a"), [[1.0], [2.0]])


def test_model_ensemble_rejects_ragged_outputs():
    with pytest.raises(ValidationError):
        ModelEnsemble(("a", "b"), [[1.0, 2.0], [1.0]])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ObservationSeries([0, 1], ["a", "b"]), "observed values must be a rectangular"),
        (lambda: ObservationSeries([0, 1], [[1], [2, 3]]), "observed values must be a rectangular"),
        (lambda: ObservationSeries([[0], [1, 2]], [1, 2]), "times must be a non-empty 1-d"),
        (lambda: ModelEnsemble(("a",), [["x", "y"]]), "model outputs must be a rectangular"),
        (lambda: WeightVector(["x"]), "weights must be a rectangular"),
        (lambda: WeightVector([{}]), "weights must be a rectangular"),
        (lambda: WeightVector([10**400]), "weights must be finite"),
        (lambda: ResidualSet([[1, 2], [3]], 2), "residuals must be a rectangular"),
        (lambda: CorrespondenceMatrix([["a"]]), "correspondence entries must be a rectangular"),
        (lambda: model_score(["x"], 1), "residual vector must be a rectangular"),
    ],
    ids=[
        "obs-strings", "obs-ragged", "times-ragged", "outputs-strings", "weights-string",
        "weights-object", "weights-int-beyond-float", "residuals-ragged", "entries-string",
        "residual-vector-string",
    ],
)
def test_array_records_reject_unconvertible_input(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def test_array_records_keep_their_memory_layout():
    outputs = np.asfortranarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ModelEnsemble(("a", "b"), outputs).outputs.flags.f_contiguous
    assert ResidualSet(outputs, 3).residuals.flags.c_contiguous


def test_model_ensemble_allows_duplicate_series():
    ens = ModelEnsemble(("a", "b"), [[1.0, 2.0], [1.0, 2.0]])
    assert ens.n_models == 2


def test_weight_vector_invariants():
    WeightVector([0.25, 0.75])
    with pytest.raises(ValidationError):
        WeightVector([0.5, -0.5, 1.0])
    with pytest.raises(ValidationError):
        WeightVector([0.6, 0.6])


def test_residual_set_divisor_must_match_length():
    with pytest.raises(ValidationError):
        ResidualSet([[1.0, 2.0]], 3)


def test_correspondence_matrix_type_rejects_asymmetry():
    with pytest.raises(ValidationError):
        CorrespondenceMatrix([[1.0, 0.5], [0.4, 1.0]])


def test_correspondence_matrix_type_rejects_indefinite():
    with pytest.raises(ValidationError):
        CorrespondenceMatrix([[1.0, 2.0], [2.0, 1.0]])


def test_core_arrays_are_read_only():
    rs = ResidualSet([[1.0, 2.0]], 2)
    with pytest.raises(ValueError):
        rs.residuals[0, 0] = 3.0


def test_residual_set_geometry_is_read_only_and_derived():
    rs = ResidualSet([[1.0, 2.0], [3.0, -1.0]], 2)
    for arr in (rs.entries, rs.scores, rs.norms, rs.cosines, rs.thresholds):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.0
    with pytest.raises(AttributeError):
        rs.best = 1
    with pytest.raises(TypeError):
        ResidualSet([[1.0, 2.0]], 2, entries=np.eye(1))
    assert model_scores(rs) is rs.scores
    assert np.array_equal(rs.entries.diagonal(), rs.scores)
    assert (rs.best, rs.s_min_sq, rs.perfect) == (0, 2.5, ())
    assert "entries" not in repr(rs)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residuals_zero_observations():
    obs = ObservationSeries([0, 1], [0.0, 0.0])
    ens = ModelEnsemble(("m1",), [[1.0, 1.0]])
    rs = residuals(ens, obs)
    assert np.array_equal(rs.residuals, [[1.0, 1.0]])
    assert rs.n_points == 2


def test_residuals_perfect_model():
    obs = ObservationSeries([0, 1], [3.0, 4.0])
    ens = ModelEnsemble(("m1",), [[3.0, 4.0]])
    rs = residuals(ens, obs)
    assert np.array_equal(rs.residuals, [[0.0, 0.0]])


def test_residuals_two_models_with_reconstruction_oracle():
    obs = ObservationSeries([0, 1], [1.0, 1.0])
    ens = ModelEnsemble(("m1", "m2"), [[2.0, 2.0], [-1.0, 0.0]])
    rs = residuals(ens, obs)
    assert np.array_equal(rs.residuals, [[1.0, 1.0], [-2.0, -1.0]])
    # reconstruction oracle: X = Z + Y
    assert np.array_equal(rs.residuals + obs.values, ens.outputs)


def test_residuals_alignment_error():
    obs = ObservationSeries([0, 1, 2], [0.0, 0.0, 0.0])
    ens = ModelEnsemble(("m1",), [[1.0, 1.0]])
    with pytest.raises(AlignmentError):
        residuals(ens, obs)


def test_residuals_whose_difference_overflows_are_refused_without_a_warning():
    # Tier-1 turns a RuntimeWarning into an error, so a leaked overflow
    # warning fails this test as well as a missing refusal.
    obs = ObservationSeries([0, 1], [1.7e308, 1.7e308])
    ens = ModelEnsemble(("a", "b"), [[-1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    with pytest.raises(ValidationError, match="residuals must be finite"):
        residuals(ens, obs)


def test_residuals_reconstruction_exact_on_dyadic_data():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = int(rng.integers(1, 40))
        m = int(rng.integers(1, 6))
        y = dyadic_array(rng, t)
        x = dyadic_array(rng, (m, t))
        obs = ObservationSeries(np.arange(t), y)
        ens = ModelEnsemble(tuple(f"m{i}" for i in range(m)), x)
        rs = residuals(ens, obs)
        assert np.array_equal(rs.residuals + y, x)


# ---------------------------------------------------------------------------
# model_score
# ---------------------------------------------------------------------------


def test_model_score_examples():
    assert model_score([0.0, 0.0], 2) == 0.0
    assert model_score([1.0, 1.0], 2) == pytest.approx(score_oracle([1.0, 1.0]), rel=1e-15)
    assert model_score([2.0, 2.0], 2) == pytest.approx(score_oracle([2.0, 2.0]), rel=1e-15)
    assert model_score([1.0, 1.0], 2) == 1.0
    assert model_score([2.0, 2.0], 2) == 4.0


def test_model_score_rejects_empty_and_mismatched():
    with pytest.raises(ValidationError):
        model_score([], 0)
    with pytest.raises(ValidationError):
        model_score([1.0, 2.0], 3)


def test_model_scores_matches_scalar_op():
    rng = np.random.default_rng(11)
    rs = random_residual_set(rng)
    per_model = model_scores(rs)
    for m in range(rs.n_models):
        assert per_model[m] == pytest.approx(
            model_score(rs.residuals[m], rs.n_points), rel=1e-14
        )


# ---------------------------------------------------------------------------
# correspondence and cosines
# ---------------------------------------------------------------------------


def test_correspondence_examples():
    r = correspondence_matrix(ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2)).entries
    assert r[0, 1] == pytest.approx(correspondence_oracle([1, 1], [2, 2]), rel=1e-15)
    assert r[0, 1] == 2.0

    r = correspondence_matrix(ResidualSet([[1.0, 0.0], [0.0, 1.0]], 2)).entries
    assert r[0, 1] == 0.0

    r = correspondence_matrix(ResidualSet([[1.0, 1.0], [-1.0, -1.0]], 2)).entries
    assert r[0, 1] == pytest.approx(correspondence_oracle([1, 1], [-1, -1]), rel=1e-15)
    assert r[0, 1] == -1.0


def test_correspondence_diagonal_is_scores():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rs = random_residual_set(rng)
        entries = correspondence_matrix(rs).entries
        np.testing.assert_allclose(
            entries.diagonal(), model_scores(rs), rtol=1e-12, atol=0.0
        )
        assert np.array_equal(entries, entries.T)
        assert np.linalg.eigvalsh(entries).min() >= -1e-10 * max(
            1.0, np.abs(entries).max()
        )


def test_cosine_examples():
    cos = cosine_matrix(ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2))
    assert cos[0, 1] == 1.0
    cos = cosine_matrix(ResidualSet([[1.0, 1.0], [-1.0, -1.0]], 2))
    assert cos[0, 1] == -1.0
    cos = cosine_matrix(ResidualSet([[1.0, 0.0], [0.0, 1.0]], 2))
    assert cos[0, 1] == 0.0


def test_cosine_perfect_model_error_names_member():
    rs = ResidualSet([[1.0, 1.0], [0.0, 0.0]], 2)
    with pytest.raises(PerfectModelError) as excinfo:
        cosine_matrix(rs)
    assert excinfo.value.indices == (1,)
    assert "1" in str(excinfo.value)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cosine_entries_bounded_and_diagonal_one(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rs = random_residual_set(rng)
    cos = cosine_matrix(rs)
    assert np.all(cos <= 1.0) and np.all(cos >= -1.0)
    assert np.all(cos.diagonal() == 1.0)
    assert np.array_equal(cos, cos.T)


# ---------------------------------------------------------------------------
# average_residual and ensemble_score
# ---------------------------------------------------------------------------


def test_average_residual_examples():
    half = WeightVector([0.5, 0.5])
    avg = average_residual(ResidualSet([[1.0, 1.0], [-1.0, -1.0]], 2), half)
    assert np.array_equal(avg, [0.0, 0.0])

    rs = ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2)
    avg = average_residual(rs, half)
    assert np.array_equal(avg, weighted_residual_oracle(rs.residuals, [0.5, 0.5]))
    assert np.array_equal(avg, [1.5, 1.5])


def test_average_residual_indicator_reproduces_member():
    rng = np.random.default_rng(23)
    rs = random_residual_set(rng)
    for m in range(rs.n_models):
        w = np.zeros(rs.n_models)
        w[m] = 1.0
        avg = average_residual(rs, WeightVector(w))
        assert np.array_equal(avg, rs.residuals[m])


def test_average_residual_dimension_mismatch():
    rs = ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2)
    with pytest.raises(ValidationError):
        average_residual(rs, WeightVector([1.0]))


def test_ensemble_score_examples():
    half = WeightVector([0.5, 0.5])
    assert ensemble_score(ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2), half) == 2.25
    assert ensemble_score(ResidualSet([[1.0, 1.0], [-1.0, -1.0]], 2), half) == 0.0


def test_ensemble_score_indicator_equals_member_score():
    rng = np.random.default_rng(29)
    rs = random_residual_set(rng)
    scores = model_scores(rs)
    for m in range(rs.n_models):
        w = np.zeros(rs.n_models)
        w[m] = 1.0
        assert ensemble_score(rs, WeightVector(w)) == pytest.approx(
            scores[m], rel=1e-12
        )


@pytest.mark.parametrize("order", ["C", "F"])
def test_member_score_identity_is_exact(order):
    """All weight on member b scores exactly b's score, whatever the layout the
    residuals arrive in, also past 8,192 points, so the average that is the
    best member never beats it."""
    rng = np.random.default_rng(37)
    for t_range in [(1, 64)] * 40 + [(8_000, 13_000)] * 4:
        m = int(rng.integers(2, 9))
        t = int(rng.integers(*t_range))
        z = np.asarray(rng.uniform(-10.0, 10.0, size=(m, t)), order=order)
        rs = ResidualSet(z, t)
        scores = model_scores(rs)
        for b in range(m):
            e_b = WeightVector(np.eye(m)[b])
            assert ensemble_score(rs, e_b) == scores[b] == model_score(z[b], t)
        e_best = WeightVector(np.eye(m)[int(np.argmin(scores))])
        assert not check_result3(rs, e_best).hypothesis_holds


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_expansion_identity(data):
    """Direct and expanded ensemble scores agree to 1e-10 relative."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rs = random_residual_set(rng, m_range=(1, 8), t_range=(1, 64))
    w = random_weights(rng, rs.n_models)
    direct = ensemble_score(rs, w)
    expanded = expansion_oracle(rs, w.weights)
    assert direct == pytest.approx(expanded, rel=1e-10, abs=1e-12)


def test_score_equals_quadratic_form():
    rng = np.random.default_rng(31)
    for _ in range(100):
        rs = random_residual_set(rng)
        w = random_weights(rng, rs.n_models)
        entries = correspondence_matrix(rs).entries
        quad = float(w.weights @ entries @ w.weights)
        assert ensemble_score(rs, w) == pytest.approx(quad, rel=1e-10)
