"""Uniform weights, simplex projection, and the score minimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ensdiag import (
    ResidualSet,
    ValidationError,
    WeightVector,
    correspondence_matrix,
    ensemble_score,
    model_scores,
    optimal_weights,
    project_to_simplex,
    uniform_weights,
)
from ensdiag.weights import _max_eigenvalue
from helpers import grid_minimum, random_residual_set


# ---------------------------------------------------------------------------
# uniform_weights
# ---------------------------------------------------------------------------


def test_uniform_weights_examples():
    assert np.array_equal(uniform_weights(4).weights, [0.25] * 4)
    assert np.array_equal(uniform_weights(1).weights, [1.0])
    w3 = uniform_weights(3).weights
    assert abs(w3.sum() - 1.0) <= 1e-12


def test_uniform_weights_rejects_zero():
    with pytest.raises(ValidationError):
        uniform_weights(0)


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 10),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
def test_projection_lands_on_simplex(v):
    p = project_to_simplex(v)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_projection_fixes_simplex_points():
    rng = np.random.default_rng(41)
    for _ in range(50):
        w = rng.dirichlet(np.ones(int(rng.integers(1, 9))))
        np.testing.assert_allclose(project_to_simplex(w), w, rtol=0, atol=1e-12)


def test_projection_is_nearest_feasible_point():
    rng = np.random.default_rng(43)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        v = rng.uniform(-5, 5, size=m)
        p = project_to_simplex(v)
        d_proj = np.linalg.norm(v - p)
        for _ in range(200):
            q = rng.dirichlet(np.ones(m))
            assert d_proj <= np.linalg.norm(v - q) + 1e-12


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------


def test_max_eigenvalue_against_eigvalsh():
    rng = np.random.default_rng(47)
    for _ in range(100):
        rs = random_residual_set(rng)
        gram = correspondence_matrix(rs).entries
        exact = float(np.linalg.eigvalsh(gram).max())
        estimate = _max_eigenvalue(gram)
        # a Rayleigh quotient never exceeds the top eigenvalue; for the
        # step size any estimate this close is more than enough
        assert estimate <= exact * (1.0 + 1e-9)
        assert estimate == pytest.approx(exact, rel=1e-6)


# ---------------------------------------------------------------------------
# optimal_weights
# ---------------------------------------------------------------------------


def test_optimal_weights_symmetric_cancellation():
    out = optimal_weights(ResidualSet([[1.0, 1.0], [-1.0, -1.0]], 2))
    assert np.array_equal(out.weights.weights, [0.5, 0.5])
    assert out.score == 0.0
    assert out.converged


def test_optimal_weights_dominated_collinear_pair():
    rs = ResidualSet([[1.0, 1.0], [2.0, 2.0]], 2)
    out = optimal_weights(rs)
    assert out.score == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(out.weights.weights, [1.0, 0.0], atol=1e-8)
    # grid oracle at step 0.001
    grid = grid_minimum(correspondence_matrix(rs).entries, 0.001)
    assert out.score <= grid + 1e-9


def test_optimal_weights_orthogonal_pair():
    out = optimal_weights(ResidualSet([[1.0, 0.0], [0.0, 1.0]], 2))
    np.testing.assert_allclose(out.weights.weights, [0.5, 0.5], atol=1e-10)
    assert out.score == pytest.approx(0.25, rel=1e-12)


def test_optimal_weights_single_model():
    out = optimal_weights(ResidualSet([[2.0, 2.0]], 2))
    assert np.array_equal(out.weights.weights, [1.0])
    assert out.score == 4.0
    assert out.converged


def test_optimal_weights_perfect_member_short_circuit():
    rs = ResidualSet([[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]], 2)
    out = optimal_weights(rs)
    assert out.score == 0.0
    assert np.array_equal(out.weights.weights, [0.0, 1.0, 0.0])
    assert out.active_support == (1,)


def test_optimal_weights_validates_settings():
    rs = ResidualSet([[1.0, 1.0]], 2)
    with pytest.raises(ValidationError):
        optimal_weights(rs, max_iter=0)
    with pytest.raises(ValidationError):
        optimal_weights(rs, tol=0.0)


def test_optimal_weights_beats_grid_oracle():
    rng = np.random.default_rng(53)
    for _ in range(60):
        rs = random_residual_set(rng, m_range=(1, 3))
        out = optimal_weights(rs)
        gram = correspondence_matrix(rs).entries
        assert out.score <= grid_minimum(gram, 0.01) + 1e-4


def test_optimal_weights_dominates_vertices_and_uniform():
    rng = np.random.default_rng(59)
    for _ in range(200):
        rs = random_residual_set(rng)
        out = optimal_weights(rs)
        s_min_sq = float(model_scores(rs).min())
        uniform_score = ensemble_score(rs, uniform_weights(rs.n_models))
        assert out.score <= s_min_sq + 1e-9
        assert out.score <= uniform_score + 1e-9


def test_optimal_weights_dominance_holds_with_tiny_budget():
    # the invariants may not rely on convergence
    rng = np.random.default_rng(61)
    for _ in range(100):
        rs = random_residual_set(rng)
        out = optimal_weights(rs, max_iter=1)
        s_min_sq = float(model_scores(rs).min())
        uniform_score = ensemble_score(rs, uniform_weights(rs.n_models))
        assert out.score <= s_min_sq + 1e-9
        assert out.score <= uniform_score + 1e-9


def test_optimal_weights_feasible_and_deterministic():
    rng = np.random.default_rng(67)
    rs = random_residual_set(rng)
    first = optimal_weights(rs)
    second = optimal_weights(rs)
    assert np.array_equal(first.weights.weights, second.weights.weights)
    assert first.score == second.score
    w = first.weights.weights
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
    assert all(w[i] > 1e-10 for i in first.active_support)

