"""Command-line interface: one path from argv to stdout.

Parse the arguments, read and parse the ``--input`` CSV once, call the
subcommand's runner (bound as ``run``), and render its result as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import WeightVector, residuals
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


def build_parser() -> argparse.ArgumentParser:
    io_options = argparse.ArgumentParser(add_help=False)
    io_options.add_argument("--input", required=True, help="path to the ensemble CSV")
    io_options.add_argument(
        "--output", help="write the JSON report here instead of standard output"
    )
    weight_options = argparse.ArgumentParser(add_help=False)
    weight_options.add_argument(
        "--weights",
        type=_weights_choice,
        default="uniform",
        help="'uniform' (default), 'optimal', or '@file.json' with a weight array",
    )
    opt_options = argparse.ArgumentParser(add_help=False)
    opt_options.add_argument(
        "--opt-max-iter", type=int, default=DEFAULT_MAX_ITER,
        help="cap on the weight optimizer's active-set steps",
    )
    opt_options.add_argument(
        "--opt-tol", type=float, default=DEFAULT_TOL,
        help="weight optimizer's KKT-gap tolerance, relative to the score",
    )

    parser = argparse.ArgumentParser(
        prog="ensdiag",
        description=(
            "Diagnose whether a weighted average of models outperforms its "
            "best individual member over a fixed observation interval."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diagnose = sub.add_parser(
        "diagnose", help="full diagnostics report for one CSV input",
        parents=[io_options, weight_options, opt_options],
    )
    diagnose.set_defaults(run=_run_diagnose)
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

    sub.add_parser(
        "optimize", help="minimize the ensemble score over the simplex",
        parents=[io_options, opt_options],
    ).set_defaults(run=_run_optimize)

    select = sub.add_parser(
        "select", help="pre-screen or pick an anti-correlated subset",
        parents=[io_options],
    )
    select.set_defaults(run=_run_select)
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

    sweep = sub.add_parser(
        "sweep", help="best member and average per window",
        parents=[io_options, weight_options, opt_options],
    )
    sweep.set_defaults(run=_run_sweep)
    sweep.add_argument("--window", type=int, required=True, help="window length")
    sweep.add_argument("--stride", type=int, required=True, help="window step")

    return parser


def _validate_combinations(parser: argparse.ArgumentParser, args) -> None:
    option = {"prescreen": "threshold", "anticorr": "k"}.get(getattr(args, "mode", None))
    if option is not None and getattr(args, option) is None:
        parser.error(f"--{option} is required with --mode {args.mode}")


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


def _document(**fields) -> str:
    """Canonical JSON of one output document, ``schema_version`` first."""
    return render_json({"schema_version": SCHEMA_VERSION, **fields})


def _run_diagnose(args, obs, ens) -> str:
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
        return _document(
            calibration={
                "boundary": int(args.calibration_end),
                "weights": result.calibration_weights.weights.tolist(),
            },
            validation_report=report_to_dict(result.validation_report),
        )
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


def _run_optimize(args, obs, ens) -> str:
    outcome = optimal_weights(residuals(ens, obs), args.opt_max_iter, args.opt_tol)
    return _document(
        weights=outcome.weights.weights.tolist(),
        score=outcome.score,
        iterations=outcome.iterations,
        converged=outcome.converged,
        active_support=list(outcome.active_support),
        settings={
            "opt_max_iter": int(args.opt_max_iter),
            "opt_tol": float(args.opt_tol),
        },
    )


def _run_select(args, obs, ens) -> str:
    rs = residuals(ens, obs)
    if args.mode == "prescreen":
        report = prescreen(rs, obs, args.threshold)
        settings = {"mode": "prescreen", "threshold": float(args.threshold), "k": None}
    else:
        report = anti_correlated_subset(rs, args.k)
        settings = {"mode": "anticorr", "threshold": None, "k": int(args.k)}
    ratios = report.ratios
    return _document(
        criterion=report.criterion,
        kept=list(report.kept),
        dropped=[
            {"index": i, "ratio": None if ratios is None else ratios[i]}
            for i in report.dropped
        ],
        ratios=None if ratios is None else list(ratios),
        objective_value=report.objective_value,
        settings=settings,
    )


def _run_sweep(args, obs, ens) -> str:
    weights, mode = _resolve_weights(args, obs, ens)
    return _document(
        window=int(args.window),
        stride=int(args.stride),
        weights_mode=mode,
        weights_used=weights.weights.tolist(),
        rows=sweep_best_model(obs, ens, args.window, args.stride, weights),
    )


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
        obs, ens = parse_ensemble_csv(_read_text("input", args.input))
        text = args.run(args, obs, ens)
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
