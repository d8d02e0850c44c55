"""Uniform weights, simplex projection, and the score minimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ensdiag import (
    ResidualSet,
    ValidationError,
    WeightVector,
    check_result1,
    correspondence_matrix,
    ensemble_score,
    model_scores,
    optimal_weights,
    project_to_simplex,
    uniform_weights,
)
from helpers import (
    enumeration_minimum,
    grid_minimum,
    illcond_residual_set,
    random_residual_set,
)


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


@pytest.mark.parametrize(
    "v, expected",
    [
        ([1e16, 0.0], [1.0, 0.0]),  # the old "- 1.0" vanished beside 1e16
        ([1e20, 0.0], [1.0, 0.0]),
        ([1e308, -1e308], [1.0, 0.0]),  # the shift overflows to -inf
        ([1e308, 1e308], [0.5, 0.5]),
        ([0.0, -1.5e308, -1.5e308], [1.0, 0.0, 0.0]),  # products overflow
        ([2.0, 0.0], [1.0, 0.0]),
        ([0.25, 0.25], [0.5, 0.5]),
    ],
    ids=["1e16", "1e20", "shift-overflow", "tie-at-max", "product-overflow", "plain", "tie"],
)
def test_projection_of_extreme_entries(v, expected):
    assert project_to_simplex(v).tolist() == expected


@pytest.mark.parametrize(
    "v, message",
    [
        (["x"], "rectangular array of numbers"),
        ([math.nan, 1.0], "must be finite"),
        ([math.inf, 1.0], "must be finite"),
        ([], "non-empty 1-d"),
        ([[1.0, 0.0]], "non-empty 1-d"),
    ],
    ids=["string", "nan", "inf", "empty", "2-d"],
)
def test_projection_refuses_what_it_cannot_project(v, message):
    with pytest.raises(ValidationError, match=message):
        project_to_simplex(v)


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



def _fields(out):
    return (
        out.weights.weights.tobytes(),
        out.score,
        out.iterations,
        out.converged,
        out.active_support,
        out.kkt_gap,
    )


@pytest.mark.parametrize("m", range(3, 9))
def test_optimal_weights_match_enumeration_oracle_when_ill_conditioned(m):
    rng = np.random.default_rng(71 + m)
    for sigma in np.logspace(-3.0, 0.0, 7):
        rs = illcond_residual_set(rng, m, sigma)
        out = optimal_weights(rs)
        exact = enumeration_minimum(rs)
        assert out.converged
        assert out.score == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_optimal_weights_certificate_on_random_sets():
    # includes sets with more members than points, whose KKT systems are
    # singular and whose optimum is often the origin
    rng = np.random.default_rng(73)
    for _ in range(300):
        rs = random_residual_set(rng)
        out = optimal_weights(rs)
        exact = enumeration_minimum(rs)
        scale = float(model_scores(rs).max())
        assert out.converged
        assert out.score <= exact + 1e-12 * scale
        assert out.iterations <= 4 * rs.n_models


def test_optimal_weights_iteration_budget_does_not_change_the_answer():
    rng = np.random.default_rng(79)
    sets = [random_residual_set(rng) for _ in range(200)]
    sets += [illcond_residual_set(rng, m, s) for m in range(3, 9) for s in (1e-3, 1e-2, 1.0)]
    dup = rng.normal(size=(3, 40))
    sets.append(ResidualSet(np.vstack([dup, dup, -dup[:1]]), 40))
    for rs in sets:
        assert _fields(optimal_weights(rs, max_iter=50)) == _fields(optimal_weights(rs))


def test_optimal_weights_duplicate_members():
    z = np.random.default_rng(83).normal(size=(2, 30))
    for rows in ([z[0], z[0], z[1]], [z[0], z[1], z[0], z[1]], [z[0], -z[0], z[0]]):
        rs = ResidualSet(np.array(rows), 30)
        out = optimal_weights(rs)
        exact = enumeration_minimum(rs)
        assert out.converged
        assert out.score <= exact + 1e-12 * float(model_scores(rs).max())


@pytest.mark.parametrize("k", [-400, -211, -1, 1, 97, 400])
def test_optimal_weights_do_not_depend_on_units(k):
    rng = np.random.default_rng(89)
    for _ in range(30):
        rs = random_residual_set(rng)
        scaled = ResidualSet(np.ldexp(rs.residuals, k), rs.n_points)
        out, out_scaled = optimal_weights(rs), optimal_weights(scaled)
        assert out_scaled.weights.weights.tobytes() == out.weights.weights.tobytes()
        assert (out_scaled.iterations, out_scaled.converged) == (out.iterations, out.converged)
        assert out_scaled.score == math.ldexp(out.score, 2 * k)


def _row_test_population(rng):
    for _ in range(150):
        yield random_residual_set(rng)
    for _ in range(150):
        # one shared error with positive loadings: Result 1's hypothesis
        # often holds
        m, t = int(rng.integers(2, 9)), int(rng.integers(4, 64))
        loading = rng.uniform(0.5, 1.5, size=(m, 1))
        z = loading * rng.normal(size=t) + rng.uniform(0.0, 0.6) * rng.normal(size=(m, t))
        yield ResidualSet(z, t)
    for _ in range(100):
        # a dominant best member along one error, the rest that error plus
        # larger independent parts: the row test can hold where Result 1's
        # hypothesis does not
        m, t = int(rng.integers(3, 9)), int(rng.integers(4, 64))
        u = rng.normal(size=t)
        z = u + 2.0 * rng.normal(size=(m, t))
        z[0] = rng.uniform(0.05, 0.5) * u
        yield ResidualSet(z, t)


def test_row_test_is_the_exact_form_of_result1():
    rng = np.random.default_rng(97)
    seen = {(True, True): 0, (False, True): 0, (False, False): 0}
    for rs in _row_test_population(rng):
        geo = rs
        row = geo.best_vertex_is_optimal()
        hypothesis = check_result1(geo, uniform_weights(rs.n_models)).hypothesis_holds
        assert row or not hypothesis
        exact = enumeration_minimum(rs)
        s_min_sq = float(geo.entries.diagonal().min())
        assert (not row) == (exact < s_min_sq * (1.0 - 1e-12))
        seen[hypothesis, row] += 1
    assert all(seen.values()), seen
