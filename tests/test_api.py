"""The public API: each name is listed once, in the module that defines it."""

import importlib

import ensdiag

MODULES = ("core", "diagnostics", "errors", "evaluation", "report", "selection", "weights")

PUBLIC_NAMES = [
    "ACTIVE_SUPPORT_TOL", "AlignmentError", "COSINE_OVERSHOOT_TOL", "CalibratedValidation",
    "CorrespondenceMatrix", "CsvFormatError", "CsvParseError", "DEFAULT_MAX_ITER",
    "DEFAULT_TOL", "DiagnosticsReport", "EXHAUSTIVE_LIMIT", "EnsdiagError", "IntervalSplit",
    "ModelEnsemble", "ObservationSeries", "OptimizationOutcome", "PerfectModelError",
    "Regime", "ReportSettings", "ResidualSet", "ResultVerdict", "SCHEMA_VERSION",
    "SCORE_AGREEMENT_RTOL", "ScoreBounds", "SelectionReport", "SweepRow",
    "TIGHT_COSINE_TOL", "ValidationError", "WEIGHT_SUM_TOL", "WeightVector",
    "ZeroNormError", "__version__", "anti_correlated_subset", "average_residual",
    "build_report", "calibrate_then_validate", "check_result1", "check_result2",
    "check_result3", "classify_regime", "correspondence_matrix", "cosine_matrix",
    "emit_report", "ensemble_score", "equally_bad_test", "format_ensemble_csv",
    "model_score", "model_scores", "optimal_weights", "parse_ensemble_csv",
    "parse_report", "prescreen", "project_to_simplex", "render_json", "residuals",
    "schwartz_bounds", "split_interval", "sweep_best_model", "uniform_weights",
]


def _module_lists():
    return {name: importlib.import_module(f"ensdiag.{name}").__all__ for name in MODULES}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 59
    assert sorted(ensdiag.__all__) == PUBLIC_NAMES


def test_each_name_is_the_object_its_module_binds():
    for module_name, names in _module_lists().items():
        module = importlib.import_module(f"ensdiag.{module_name}")
        for name in names:
            assert getattr(ensdiag, name) is getattr(module, name), f"{module_name}.{name}"


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from ensdiag import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


def test_no_name_is_listed_by_two_modules():
    listed = [name for names in _module_lists().values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(["__version__", *listed]) == PUBLIC_NAMES
