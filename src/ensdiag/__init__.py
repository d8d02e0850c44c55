"""Diagnostics for weighted model averages measured against the best member.

Given observations on a fixed interval and several model output series,
this package computes mean-squared skill scores, the correspondence and
cosine geometry of the residual vectors, verdicts on when the average
beats the best individual member, score-minimizing simplex weights, and
model-selection screens, with a CSV-in / JSON-out command line on top.
"""

from .core import (
    COSINE_OVERSHOOT_TOL,
    SCORE_AGREEMENT_RTOL,
    WEIGHT_SUM_TOL,
    CorrespondenceMatrix,
    ModelEnsemble,
    ObservationSeries,
    ResidualSet,
    WeightVector,
    average_residual,
    correspondence_matrix,
    cosine_matrix,
    ensemble_score,
    model_score,
    model_scores,
    residuals,
)
from .diagnostics import (
    TIGHT_COSINE_TOL,
    Regime,
    ResultVerdict,
    ScoreBounds,
    check_result1,
    check_result2,
    check_result3,
    classify_regime,
    schwartz_bounds,
)
from .errors import (
    AlignmentError,
    CsvFormatError,
    CsvParseError,
    EnsdiagError,
    PerfectModelError,
    ValidationError,
    ZeroNormError,
)
from .evaluation import (
    CalibratedValidation,
    IntervalSplit,
    SweepRow,
    calibrate_then_validate,
    split_interval,
    sweep_best_model,
)
from .report import (
    SCHEMA_VERSION,
    DiagnosticsReport,
    ReportSettings,
    build_report,
    emit_report,
    format_ensemble_csv,
    parse_ensemble_csv,
    parse_report,
    render_json,
)
from .selection import (
    EXHAUSTIVE_LIMIT,
    SelectionReport,
    anti_correlated_subset,
    equally_bad_test,
    prescreen,
)
from .weights import (
    ACTIVE_SUPPORT_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    OptimizationOutcome,
    optimal_weights,
    project_to_simplex,
    uniform_weights,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ObservationSeries",
    "ModelEnsemble",
    "ResidualSet",
    "WeightVector",
    "CorrespondenceMatrix",
    "residuals",
    "model_score",
    "model_scores",
    "correspondence_matrix",
    "cosine_matrix",
    "average_residual",
    "ensemble_score",
    "WEIGHT_SUM_TOL",
    "COSINE_OVERSHOOT_TOL",
    "SCORE_AGREEMENT_RTOL",
    # diagnostics
    "ResultVerdict",
    "ScoreBounds",
    "Regime",
    "check_result1",
    "check_result2",
    "check_result3",
    "schwartz_bounds",
    "classify_regime",
    "TIGHT_COSINE_TOL",
    # weights
    "OptimizationOutcome",
    "uniform_weights",
    "optimal_weights",
    "project_to_simplex",
    "DEFAULT_MAX_ITER",
    "DEFAULT_TOL",
    "ACTIVE_SUPPORT_TOL",
    # selection
    "SelectionReport",
    "prescreen",
    "equally_bad_test",
    "anti_correlated_subset",
    "EXHAUSTIVE_LIMIT",
    # evaluation
    "IntervalSplit",
    "SweepRow",
    "CalibratedValidation",
    "split_interval",
    "sweep_best_model",
    "calibrate_then_validate",
    # report / io
    "DiagnosticsReport",
    "ReportSettings",
    "build_report",
    "emit_report",
    "parse_report",
    "render_json",
    "parse_ensemble_csv",
    "format_ensemble_csv",
    "SCHEMA_VERSION",
    # errors
    "EnsdiagError",
    "ValidationError",
    "AlignmentError",
    "PerfectModelError",
    "ZeroNormError",
    "CsvFormatError",
    "CsvParseError",
]
