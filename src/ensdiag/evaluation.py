"""Calibration/validation splitting and windowed best-member analysis.

Which member is best can change from one stretch of the interval to the
next.  ``split_interval`` partitions the data so weights can be fitted
on one part and judged on the other, and ``sweep_best_model`` walks a
window across the interval reporting the best member and whether the
average wins in each position.  The sweep builds one residual set, of the
full interval, whose Gram geometry carries the direct-against-expansion
cross-check of the ensemble score, and no per-window set or geometry: it
scores every window of the members and of the averaged residual at once
with the one mean-square reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    ModelEnsemble,
    ObservationSeries,
    WeightVector,
    _check_aligned,
    _mean_square,
    average_residual,
    ensemble_score,
    model_scores,  # unused here; perfbench/worker.py traces it by name
    residuals,
)
from .diagnostics import DEFAULT_TOL_COS, DEFAULT_TOL_EQUAL
from .errors import ValidationError
from .report import DiagnosticsReport, build_report
from .weights import DEFAULT_MAX_ITER, DEFAULT_TOL, optimal_weights

__all__ = [
    "IntervalSplit",
    "SweepRow",
    "CalibratedValidation",
    "split_interval",
    "sweep_best_model",
    "calibrate_then_validate",
]


@dataclass(frozen=True, eq=False)
class IntervalSplit:
    """Exact partition of aligned data into calibration and validation parts."""

    calibration: tuple[ObservationSeries, ModelEnsemble]
    validation: tuple[ObservationSeries, ModelEnsemble]


@dataclass(frozen=True)
class SweepRow:
    """Diagnostics for one window position; bounds are inclusive times."""

    window_start: int
    window_end: int
    best_model_index: int
    s_min_sq: float
    s_sq: float
    average_wins: bool


@dataclass(frozen=True, eq=False)
class CalibratedValidation:
    """Weights fitted on the calibration part, judged on the validation part."""

    calibration_weights: WeightVector
    validation_report: DiagnosticsReport


def split_interval(
    obs: ObservationSeries, ens: ModelEnsemble, boundary: int
) -> IntervalSplit:
    """Split at a time value: calibration takes every point with time at
    most ``boundary``, validation the rest.  Both parts must be non-empty,
    so ``boundary`` has to lie in ``[first time, last time - 1]``."""
    _check_aligned(ens, obs)
    boundary = int(boundary)
    first = int(obs.times[0])
    last = int(obs.times[-1])
    n_cal = boundary - first + 1
    if n_cal < 1 or n_cal > obs.n_points - 1:
        raise ValidationError(
            f"boundary {boundary} must lie within [{first}, {last - 1}] so both "
            "parts keep at least one point"
        )
    cal = (
        ObservationSeries(obs.times[:n_cal], obs.values[:n_cal]),
        ModelEnsemble(ens.model_names, ens.outputs[:, :n_cal]),
    )
    val = (
        ObservationSeries(obs.times[n_cal:], obs.values[n_cal:]),
        ModelEnsemble(ens.model_names, ens.outputs[:, n_cal:]),
    )
    return IntervalSplit(calibration=cal, validation=val)


def sweep_best_model(
    obs: ObservationSeries,
    ens: ModelEnsemble,
    window: int,
    stride: int,
    w: WeightVector,
) -> list[SweepRow]:
    """Evaluate every window position; a trailing partial window is dropped."""
    full = residuals(ens, obs)
    window = int(window)
    stride = int(stride)
    if window < 1 or window > obs.n_points:
        raise ValidationError(
            f"window ({window}) must lie in [1, {obs.n_points}]"
        )
    if stride < 1:
        raise ValidationError("stride must be at least 1")
    ensemble_score(full, w)  # its cross-checks, once for the whole interval
    # Every window at once; differenced cumulative sums would cancel on long series.
    z = sliding_window_view(full.residuals, window, axis=-1)[:, ::stride]
    zbar = sliding_window_view(average_residual(full, w), window)[::stride]
    scores = _mean_square(z)
    s_sq = _mean_square(zbar)
    best = np.argmin(scores, axis=0)  # ties resolve to the lowest index
    s_min_sq = scores[best, np.arange(best.size)]
    starts = obs.times[: obs.n_points - window + 1 : stride].tolist()
    rows = zip(starts, best.tolist(), s_min_sq.tolist(), s_sq.tolist())
    return [SweepRow(t, t + window - 1, b, lo, avg, avg < lo) for t, b, lo, avg in rows]


def calibrate_then_validate(
    obs: ObservationSeries,
    ens: ModelEnsemble,
    boundary: int,
    *,
    opt_max_iter: int = DEFAULT_MAX_ITER,
    opt_tol: float = DEFAULT_TOL,
    tol_equal: float = DEFAULT_TOL_EQUAL,
    tol_cos: float = DEFAULT_TOL_COS,
) -> CalibratedValidation:
    """Fit score-minimizing weights on the calibration part, then report
    the full diagnostics on the validation part with those weights frozen."""
    split = split_interval(obs, ens, boundary)
    cal_obs, cal_ens = split.calibration
    outcome = optimal_weights(residuals(cal_ens, cal_obs), opt_max_iter, opt_tol)
    val_obs, val_ens = split.validation
    report = build_report(
        val_obs,
        val_ens,
        outcome.weights,
        tol_equal=tol_equal,
        tol_cos=tol_cos,
        weights_mode="calibrated",
        opt_max_iter=opt_max_iter,
        opt_tol=opt_tol,
    )
    return CalibratedValidation(
        calibration_weights=outcome.weights,
        validation_report=report,
    )
