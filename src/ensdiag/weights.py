"""Weight construction: uniform weights and the simplex-constrained minimizer.

The ensemble score is a convex quadratic ``w @ G @ w`` in the weights,
with ``G`` the correspondence matrix, so the minimizer over the
probability simplex is found by projected gradient descent with an exact
Euclidean simplex projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ResidualSet,
    WeightVector,
    _correspondence_entries,  # unused here; perfbench/worker.py traces it by name
    geometry_of,
)
from .errors import ValidationError

__all__ = [
    "DEFAULT_MAX_ITER",
    "DEFAULT_TOL",
    "ACTIVE_SUPPORT_TOL",
    "OptimizationOutcome",
    "uniform_weights",
    "project_to_simplex",
    "optimal_weights",
]

DEFAULT_MAX_ITER = 10_000
DEFAULT_TOL = 1e-12

#: Weights above this count as part of the active support.
ACTIVE_SUPPORT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OptimizationOutcome:
    """Result of minimizing the ensemble score over the simplex."""

    weights: WeightVector
    score: float
    iterations: int
    converged: bool
    active_support: tuple[int, ...]


def uniform_weights(n_models: int) -> WeightVector:
    """Equal weights ``1/M`` on every member."""
    m = int(n_models)
    if m < 1:
        raise ValidationError("at least one model is required")
    return WeightVector(np.full(m, 1.0 / m))


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-and-threshold algorithm: the projection is ``max(v - tau, 0)``
    for the unique shift ``tau`` making the positive part sum to one.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("projection input must be a non-empty 1-d vector")
    sorted_desc = np.sort(arr)[::-1]
    cumulative = np.cumsum(sorted_desc)
    counts = np.arange(1, arr.size + 1)
    support = np.flatnonzero(sorted_desc * counts > cumulative - 1.0)
    rho = int(support[-1])
    tau = (cumulative[rho] - 1.0) / (rho + 1)
    return np.maximum(arr - tau, 0.0)


def _max_eigenvalue(matrix: np.ndarray, max_iter: int = 200, rtol: float = 1e-12) -> float:
    """Power-iteration estimate of the largest eigenvalue of a PSD matrix."""
    v = np.linspace(1.0, 2.0, matrix.shape[0])
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(max_iter):
        image = matrix @ v
        norm = float(np.linalg.norm(image))
        if norm == 0.0:
            return 0.0
        v = image / norm
        current = float(v @ matrix @ v)
        if abs(current - estimate) <= rtol * abs(current):
            return max(current, 0.0)
        estimate = current
    return max(estimate, 0.0)


def _indicator(m: int, index: int) -> np.ndarray:
    w = np.zeros(m)
    w[index] = 1.0
    return w


def optimal_weights(
    rs: ResidualSet,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> OptimizationOutcome:
    """Minimize the ensemble score over the probability simplex.

    Projected gradient descent from the uniform start with step
    ``1 / (2 * lambda_max)``, where ``lambda_max`` is a power-iteration
    estimate of the largest eigenvalue of the correspondence matrix.
    Convergence means the relative score change of one step fell below
    ``tol``.  The returned score never exceeds the best vertex (best
    single member) or the uniform start, whatever the iteration budget:
    the best iterate seen and the best vertex are both candidates.

    A member with exactly zero residual is returned immediately with
    full weight; no averaging can beat it.
    """
    if int(max_iter) < 1:
        raise ValidationError("max_iter must be at least 1")
    if not tol > 0.0:
        raise ValidationError("tol must be positive")
    m = rs.n_models
    gram = geometry_of(rs).entries
    diag = gram.diagonal()

    perfect = np.flatnonzero(diag == 0.0)
    if perfect.size:
        index = int(perfect[0])
        return OptimizationOutcome(
            weights=WeightVector(_indicator(m, index)),
            score=0.0,
            iterations=0,
            converged=True,
            active_support=(index,),
        )
    if m == 1:
        return OptimizationOutcome(
            weights=WeightVector(np.ones(1)),
            score=float(diag[0]),
            iterations=0,
            converged=True,
            active_support=(0,),
        )

    lam = max(_max_eigenvalue(gram), float(diag.max()))
    step = 1.0 / (2.0 * lam)

    w = np.full(m, 1.0 / m)
    value = float(w @ gram @ w)
    best_w, best_value = w, value
    converged = False
    iterations = 0
    for iteration in range(1, int(max_iter) + 1):
        w = project_to_simplex(w - step * 2.0 * (gram @ w))
        new_value = float(w @ gram @ w)
        iterations = iteration
        if new_value < best_value:
            best_w, best_value = w, new_value
        if abs(value - new_value) <= tol * max(abs(value), abs(new_value)):
            converged = True
            break
        value = new_value

    vertex = int(np.argmin(diag))
    if float(diag[vertex]) < best_value:
        best_w = _indicator(m, vertex)

    final = np.maximum(best_w, 0.0)
    final /= final.sum()
    score = float(final @ gram @ final)
    support = tuple(int(i) for i in np.flatnonzero(final > ACTIVE_SUPPORT_TOL))
    return OptimizationOutcome(
        weights=WeightVector(final),
        score=score,
        iterations=iterations,
        converged=converged,
        active_support=support,
    )
