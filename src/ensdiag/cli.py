"""Command-line interface: diagnose, optimize, select, and sweep."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import ModelEnsemble, ObservationSeries, WeightVector, residuals
from .diagnostics import DEFAULT_TOL_COS, DEFAULT_TOL_EQUAL
from .errors import EnsdiagError, ValidationError
from .evaluation import calibrate_then_validate, sweep_best_model
from .report import (
    SCHEMA_VERSION,
    build_report,
    emit_report,
    parse_ensemble_csv,
    render_json,
    report_to_dict,
)
from .selection import anti_correlated_subset, prescreen
from .weights import DEFAULT_MAX_ITER, DEFAULT_TOL, optimal_weights, uniform_weights

#: Supplied weight files may miss an exact unit sum by this much before
#: renormalization; anything looser is rejected.
WEIGHT_FILE_SUM_TOL = 1e-9


def _weights_choice(text: str) -> str:
    if text in ("uniform", "optimal") or text.startswith("@"):
        return text
    raise argparse.ArgumentTypeError(
        "expected 'uniform', 'optimal', or '@<path to JSON array>'"
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="path to the ensemble CSV")
    parser.add_argument(
        "--output", help="write the JSON report here instead of standard output"
    )


def _add_weight_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--weights",
        type=_weights_choice,
        default="uniform",
        help="'uniform' (default), 'optimal', or '@file.json' with a weight array",
    )


def _add_opt_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--opt-max-iter", type=int, default=DEFAULT_MAX_ITER,
        help="cap on the weight optimizer's active-set steps",
    )
    parser.add_argument(
        "--opt-tol", type=float, default=DEFAULT_TOL,
        help="weight optimizer's KKT-gap tolerance, relative to the score",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensdiag",
        description=(
            "Diagnose whether a weighted average of models outperforms its "
            "best individual member over a fixed observation interval."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diagnose = sub.add_parser(
        "diagnose", help="full diagnostics report for one CSV input"
    )
    _add_common(diagnose)
    _add_weight_options(diagnose)
    _add_opt_options(diagnose)
    diagnose.add_argument(
        "--tol-equal", type=float, default=DEFAULT_TOL_EQUAL,
        help="relative tolerance for 'about equally good' scores",
    )
    diagnose.add_argument(
        "--tol-cos", type=float, default=DEFAULT_TOL_COS,
        help="cosine ceiling for 'low correspondence'",
    )
    diagnose.add_argument(
        "--calibration-end", type=int, default=None, metavar="N",
        help=(
            "fit optimal weights on times <= N and report on the rest; "
            "overrides --weights"
        ),
    )

    optimize = sub.add_parser(
        "optimize", help="minimize the ensemble score over the simplex"
    )
    _add_common(optimize)
    _add_opt_options(optimize)

    select = sub.add_parser("select", help="pre-screen or pick an anti-correlated subset")
    _add_common(select)
    select.add_argument(
        "--mode", choices=("prescreen", "anticorr"), required=True
    )
    select.add_argument(
        "--threshold", type=float, default=None,
        help="screening ratio ceiling (prescreen mode)",
    )
    select.add_argument(
        "--k", type=int, default=None, help="subset size (anticorr mode)"
    )

    sweep = sub.add_parser("sweep", help="best member and average per window")
    _add_common(sweep)
    _add_weight_options(sweep)
    _add_opt_options(sweep)
    sweep.add_argument("--window", type=int, required=True, help="window length")
    sweep.add_argument("--stride", type=int, required=True, help="window step")

    return parser


def _validate_combinations(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "select":
        if args.mode == "prescreen" and args.threshold is None:
            parser.error("--threshold is required with --mode prescreen")
        if args.mode == "anticorr" and args.k is None:
            parser.error("--k is required with --mode anticorr")


def _read_text(kind: str, path: str) -> str:
    """A UTF-8 file's text, without a leading byte-order mark."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{kind} file {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    return text.removeprefix("\ufeff")


def _read_input(path: str) -> tuple[ObservationSeries, ModelEnsemble]:
    return parse_ensemble_csv(_read_text("input", path))


def _weights_from_file(path: str, n_models: int) -> WeightVector:
    text = _read_text("weight", path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also too many digits
        raise ValidationError(f"weight file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in data
    ):
        raise ValidationError(f"weight file {path!r} must hold a JSON array of numbers")
    try:
        arr = np.asarray(data, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range is not finite either
        arr = np.full(len(data), np.inf)
    if arr.size != n_models:
        raise ValidationError(
            f"weight file {path!r} has {arr.size} entries but the ensemble "
            f"has {n_models} models"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValidationError(f"weights in {path!r} must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if abs(total - 1.0) > WEIGHT_FILE_SUM_TOL:
        raise ValidationError(
            f"weights in {path!r} must sum to 1 within {WEIGHT_FILE_SUM_TOL}; "
            f"got {total!r}"
        )
    return WeightVector(arr / total)


def _resolve_weights(args, obs, ens) -> tuple[WeightVector, str]:
    if args.weights == "uniform":
        return uniform_weights(ens.n_models), "uniform"
    if args.weights == "optimal":
        outcome = optimal_weights(
            residuals(ens, obs), args.opt_max_iter, args.opt_tol
        )
        return outcome.weights, "optimal"
    return _weights_from_file(args.weights[1:], ens.n_models), "file"


def _run_diagnose(args) -> str:
    obs, ens = _read_input(args.input)
    if args.calibration_end is not None:
        result = calibrate_then_validate(
            obs,
            ens,
            args.calibration_end,
            opt_max_iter=args.opt_max_iter,
            opt_tol=args.opt_tol,
            tol_equal=args.tol_equal,
            tol_cos=args.tol_cos,
        )
        payload = {
            "schema_version": SCHEMA_VERSION,
            "calibration": {
                "boundary": int(args.calibration_end),
                "weights": result.calibration_weights.weights.tolist(),
            },
            "validation_report": report_to_dict(result.validation_report),
        }
        return render_json(payload)
    weights, mode = _resolve_weights(args, obs, ens)
    used_optimizer = mode == "optimal"
    report = build_report(
        obs,
        ens,
        weights,
        tol_equal=args.tol_equal,
        tol_cos=args.tol_cos,
        weights_mode=mode,
        opt_max_iter=args.opt_max_iter if used_optimizer else None,
        opt_tol=args.opt_tol if used_optimizer else None,
    )
    return emit_report(report)


def _run_optimize(args) -> str:
    obs, ens = _read_input(args.input)
    outcome = optimal_weights(residuals(ens, obs), args.opt_max_iter, args.opt_tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "weights": outcome.weights.weights.tolist(),
        "score": outcome.score,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "active_support": list(outcome.active_support),
        "settings": {
            "opt_max_iter": int(args.opt_max_iter),
            "opt_tol": float(args.opt_tol),
        },
    }
    return render_json(payload)


def _run_select(args) -> str:
    obs, ens = _read_input(args.input)
    rs = residuals(ens, obs)
    if args.mode == "prescreen":
        report = prescreen(rs, obs, args.threshold)
        settings = {"mode": "prescreen", "threshold": float(args.threshold), "k": None}
    else:
        report = anti_correlated_subset(rs, args.k)
        settings = {"mode": "anticorr", "threshold": None, "k": int(args.k)}
    ratios = report.ratios
    payload = {
        "schema_version": SCHEMA_VERSION,
        "criterion": report.criterion,
        "kept": list(report.kept),
        "dropped": [
            {"index": i, "ratio": None if ratios is None else ratios[i]}
            for i in report.dropped
        ],
        "ratios": None if ratios is None else list(ratios),
        "objective_value": report.objective_value,
        "settings": settings,
    }
    return render_json(payload)


def _run_sweep(args) -> str:
    obs, ens = _read_input(args.input)
    weights, mode = _resolve_weights(args, obs, ens)
    rows = sweep_best_model(obs, ens, args.window, args.stride, weights)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "window": int(args.window),
        "stride": int(args.stride),
        "weights_mode": mode,
        "weights_used": weights.weights.tolist(),
        "rows": rows,
    }
    return render_json(payload)


_RUNNERS = {
    "diagnose": _run_diagnose,
    "optimize": _run_optimize,
    "select": _run_select,
    "sweep": _run_sweep,
}


def run_command(argv, stdout=None, stderr=None) -> int:
    """Run one CLI invocation.

    Returns 0 on success, 1 on data or validation errors (one line on
    standard error), 2 on usage errors.
    """
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_combinations(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = _RUNNERS[args.command](args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            out.write(text)
    except (EnsdiagError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
