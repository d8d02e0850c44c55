"""Weight construction: uniform weights and the simplex-constrained minimizer.

The ensemble score is a convex quadratic ``w @ G @ w`` in the weights,
with ``G`` the correspondence matrix, so its minimizer over the
probability simplex is the minimum-norm point in the convex hull of the
residual vectors (Wolfe, 1976).  A primal active-set method finds it
exactly in finitely many steps, and the Frank-Wolfe gap of the answer
certifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ResidualSet,
    WeightVector,
    _correspondence_entries,  # unused here; perfbench/worker.py traces it by name
    _frozen_float_array,
    ensemble_score,
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
    """Result of minimizing the ensemble score over the simplex.

    ``kkt_gap`` is the Frank-Wolfe gap ``g @ w - min(g)`` of the returned
    weights, with ``g = 2 G w``: zero exactly at the optimum, and an upper
    bound on how far ``score`` lies above it.
    """

    weights: WeightVector
    score: float
    iterations: int
    converged: bool
    active_support: tuple[int, ...]
    kkt_gap: float


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
    Adding one constant to every entry does not change the projection,
    so ``v - max(v)`` is projected: its leading entry is 0, and the
    support is never empty.  An entry that the shift takes to ``-inf``
    projects to 0; overflow reaches only entries far below the support.
    """
    arr = _frozen_float_array(v, "projection input")
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("projection input must be a non-empty 1-d vector")
    with np.errstate(over="ignore"):
        arr = arr - arr.max()
        sorted_desc = np.sort(arr)[::-1]
        cumulative = np.cumsum(sorted_desc)
        counts = np.arange(1, arr.size + 1)
        support = np.flatnonzero(sorted_desc * counts > cumulative - 1.0)
    rho = int(support[-1])
    tau = (cumulative[rho] - 1.0) / (rho + 1)
    return np.maximum(arr - tau, 0.0)


def _check_optimizer_options(max_iter: int, tol: float) -> None:
    """The optimizer options' one rule, for every caller that takes them."""
    if int(max_iter) < 1:
        raise ValidationError("max_iter must be at least 1")
    if not tol > 0.0:
        raise ValidationError("tol must be positive")


def _indicator(m: int, index: int) -> np.ndarray:
    w = np.zeros(m)
    w[index] = 1.0
    return w


def _face_minimizer(block: np.ndarray) -> np.ndarray:
    """Minimizer of ``v @ block @ v`` subject to ``sum(v) == 1``.

    Solves the KKT system ``[[2 block, 1], [1, 0]]``.  It is singular when
    the face holds duplicate members, or more members than the residuals'
    affine rank; its least-squares solution is then one of the minimizers.
    """
    n = block.shape[0]
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * block
    kkt[n, n] = 0.0
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        solution = np.linalg.solve(kkt, rhs)
        if np.isfinite(solution).all():
            return solution[:n]
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:n]


def _active_set(gram: np.ndarray, floor: float, max_iter: int, tol: float):
    """Primal active-set minimization of ``w @ gram @ w`` over the simplex.

    From the uniform point on the full support, each step minimizes over
    the affine hull of the support.  A minimizer with a member at or below
    zero is approached until the first member reaches zero, and that
    member leaves the support.  A strictly positive one is taken, and the
    member of least gradient joins the support, unless the Frank-Wolfe gap
    is within ``tol * value + floor``, the value stopped falling, or that
    member is already in the support.  Returns the weights and the number
    of KKT solves.
    """
    m = gram.shape[0]
    w = np.full(m, 1.0 / m)
    support = np.ones(m, dtype=bool)
    last = math.inf
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        idx = np.flatnonzero(support)
        v = _face_minimizer(gram[idx][:, idx])
        if (v > 0.0).all():
            w[idx] = v
            g = 2.0 * (gram @ w)
            value = 0.5 * float(g @ w)
            enter = int(np.argmin(g))
            gap = float(g @ w) - float(g[enter])
            if gap <= tol * value + floor or value >= last or support[enter]:
                break
            last = value
            support[enter] = True
        else:
            current = w[idx]
            blocking = np.flatnonzero(v <= 0.0)
            shrink = current[blocking] - v[blocking]
            ratios = np.divide(
                current[blocking], shrink, out=np.zeros(blocking.size), where=shrink > 0.0
            )
            first = int(np.argmin(ratios))  # lowest index among ties
            w[idx] = np.maximum(current + ratios[first] * (v - current), 0.0)
            leaving = int(idx[blocking[first]])
            w[leaving] = 0.0
            support[leaving] = False
    return w, iterations


def optimal_weights(
    rs: ResidualSet,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> OptimizationOutcome:
    """Minimize the ensemble score over the probability simplex.

    A primal active-set method on the correspondence matrix ``G``, from
    the uniform start, taking at most ``max_iter`` KKT solves.  It works
    on ``G`` divided by an exact power of two near its largest score, so
    no intermediate overflows and the weights do not depend on the units
    of the data.  ``converged`` means the Frank-Wolfe gap of the returned
    weights is at most ``tol * score`` plus the rounding allowance
    ``M * eps * max|G|``.  The steps never raise the score above the
    uniform start's, and the best vertex (best single member) is a
    candidate whatever the budget, so the returned score exceeds neither.

    When the member with the least score is already optimal (its row of
    ``G`` passes the row test, as it always does for a member with zero
    residual or a single model) it is returned at once with full weight.
    """
    _check_optimizer_options(max_iter, tol)
    m = rs.n_models
    # a power of two, so that dividing by it is exact
    scale = math.ldexp(1.0, math.frexp(float(rs.scores.max()))[1] - 1)
    gram = rs.entries / scale
    floor = m * float(np.finfo(np.float64).eps) * float(np.abs(gram).max())

    weights, iterations = None, 0
    if not rs.best_vertex_is_optimal():
        w, iterations = _active_set(gram, floor, int(max_iter), tol)
        w /= w.sum()
        weights = WeightVector(w)
        score = ensemble_score(rs, weights)
        if rs.s_min_sq < score:
            weights = None
    if weights is None:  # the best vertex
        weights, score = WeightVector(_indicator(m, rs.best)), rs.s_min_sq

    w = weights.weights
    g = 2.0 * (gram @ w)
    gap = max(float(g @ w - g.min()), 0.0)
    return OptimizationOutcome(
        weights=weights,
        score=score,
        iterations=iterations,
        converged=gap <= tol * score / scale + floor,
        active_support=tuple(np.flatnonzero(w > ACTIVE_SUPPORT_TOL).tolist()),
        kkt_gap=gap * scale,
    )
