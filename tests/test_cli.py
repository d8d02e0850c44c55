"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import argparse
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ensdiag
from ensdiag import ModelEnsemble, ObservationSeries, format_ensemble_csv, report, selection
from ensdiag.cli import build_parser, run_command
from helpers import cross_sum_reference, exhaustive_subset_reference, render_json_reference

FIXTURE = "t,Y,alpha,beta,gamma\n" + "".join(
    f"{t},{y},{a},{b},{c}\n"
    for t, y, a, b, c in [
        (0, 0.0, 1.0, -0.5, 2.0),
        (1, 1.0, 2.5, 0.25, 3.0),
        (2, -1.0, 0.0, -1.75, 0.5),
        (3, 0.5, 1.25, 0.0, 1.5),
        (4, 2.0, 3.5, 1.25, 4.0),
        (5, -0.5, 0.75, -1.0, 1.0),
    ]
)


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text(FIXTURE, encoding="utf-8")
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_diagnose_uniform(fixture_csv):
    code, out, err = _run(["diagnose", "--input", str(fixture_csv)])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert data["model_names"] == ["alpha", "beta", "gamma"]
    assert data["settings"]["weights_mode"] == "uniform"


def test_diagnose_is_byte_identical_across_runs(fixture_csv):
    first = _run(["diagnose", "--input", str(fixture_csv)])
    second = _run(["diagnose", "--input", str(fixture_csv)])
    assert first == second
    assert first[1].encode("utf-8") == second[1].encode("utf-8")


def test_diagnose_optimal_weights(fixture_csv):
    code, out, _ = _run(["diagnose", "--input", str(fixture_csv), "--weights", "optimal"])
    assert code == 0
    data = json.loads(out)
    assert data["settings"]["weights_mode"] == "optimal"
    assert data["settings"]["opt_max_iter"] == 10000
    assert data["ensemble_score"] <= data["best"]["s_min_sq"] + 1e-9


def test_diagnose_weights_from_file(fixture_csv, tmp_path):
    weight_path = tmp_path / "w.json"
    weight_path.write_text("[0.2, 0.3, 0.5]", encoding="utf-8")
    code, out, _ = _run(
        ["diagnose", "--input", str(fixture_csv), "--weights", f"@{weight_path}"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["weights_used"] == [0.2, 0.3, 0.5]
    assert data["settings"]["weights_mode"] == "file"


def test_diagnose_weight_file_renormalizes_within_tolerance(fixture_csv, tmp_path):
    weight_path = tmp_path / "w.json"
    weight_path.write_text("[0.2000000001, 0.3, 0.5]", encoding="utf-8")
    code, out, _ = _run(
        ["diagnose", "--input", str(fixture_csv), "--weights", f"@{weight_path}"]
    )
    assert code == 0
    assert abs(sum(json.loads(out)["weights_used"]) - 1.0) <= 1e-12


def test_diagnose_weight_file_bad_sum(fixture_csv, tmp_path):
    weight_path = tmp_path / "w.json"
    weight_path.write_text("[0.5, 0.3, 0.5]", encoding="utf-8")
    code, _, err = _run(
        ["diagnose", "--input", str(fixture_csv), "--weights", f"@{weight_path}"]
    )
    assert code == 1
    assert "sum" in err


def test_diagnose_missing_input():
    code, out, err = _run(["diagnose", "--input", "does/not/exist.csv"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "does/not/exist.csv" in err
    assert err.count("\n") == 1  # one-line diagnostic


def test_diagnose_calibration_end(fixture_csv):
    code, out, _ = _run(
        ["diagnose", "--input", str(fixture_csv), "--calibration-end", "2"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["calibration"]["boundary"] == 2
    assert len(data["calibration"]["weights"]) == 3
    inner = data["validation_report"]
    assert inner["interval"] == {"start": 3, "end": 5, "n_points": 3}
    assert inner["settings"]["weights_mode"] == "calibrated"


def test_output_file_option(fixture_csv, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        ["diagnose", "--input", str(fixture_csv), "--output", str(target)]
    )
    assert code == 0 and out == ""
    direct = _run(["diagnose", "--input", str(fixture_csv)])[1]
    assert target.read_text(encoding="utf-8") == direct


def test_optimize(fixture_csv):
    code, out, _ = _run(["optimize", "--input", str(fixture_csv)])
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert abs(sum(data["weights"]) - 1.0) <= 1e-12
    assert data["converged"] is True
    assert data["score"] >= 0.0


def test_select_prescreen(fixture_csv):
    code, out, _ = _run(
        ["select", "--input", str(fixture_csv), "--mode", "prescreen", "--threshold", "2.0"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["criterion"] == "prescreen"
    assert sorted(data["kept"] + [d["index"] for d in data["dropped"]]) == [0, 1, 2]
    assert len(data["ratios"]) == 3
    for entry in data["dropped"]:
        assert entry["ratio"] == data["ratios"][entry["index"]]
        assert entry["ratio"] > 2.0


def test_select_anticorr(fixture_csv):
    code, out, _ = _run(
        ["select", "--input", str(fixture_csv), "--mode", "anticorr", "--k", "2"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["criterion"] == "anticorr-exhaustive"
    assert len(data["kept"]) == 2
    assert data["ratios"] is None


def test_select_missing_mode_argument_is_usage_error(fixture_csv, capsys):
    code = run_command(
        ["select", "--input", str(fixture_csv), "--mode", "prescreen"],
        stdout=io.StringIO(),
        stderr=io.StringIO(),
    )
    assert code == 2
    assert "--threshold" in capsys.readouterr().err


def test_sweep(fixture_csv):
    code, out, _ = _run(
        ["sweep", "--input", str(fixture_csv), "--window", "3", "--stride", "3"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["window"] == 3 and data["stride"] == 3
    assert [row["window_start"] for row in data["rows"]] == [0, 3]
    for row in data["rows"]:
        assert row["average_wins"] == (row["s_sq"] < row["s_min_sq"])


def test_sweep_rows_carry_the_sweep_row_fields_in_order(fixture_csv):
    code, out, _ = _run(["sweep", "--input", str(fixture_csv), "--window", "3", "--stride", "2"])
    assert code == 0
    names = [field.name for field in dataclasses.fields(ensdiag.SweepRow)]
    assert [list(row) for row in json.loads(out)["rows"]] == [names, names]


def test_sweep_window_too_long_is_data_error(fixture_csv):
    code, _, err = _run(
        ["sweep", "--input", str(fixture_csv), "--window", "99", "--stride", "1"]
    )
    assert code == 1
    assert "window" in err


# member a's first three residuals, 1e-170, square to 0
FALSE_ZERO = "t,Y,a,b\n" + "".join(
    f"{t},0,{a},{b}\n" for t, a, b in [(0, 1e-170, 1), (1, 1e-170, 1), (2, 1e-170, 1), (3, 1, 1), (4, 1, 1), (5, 1, 2)]
)


@pytest.mark.parametrize("window, stride", [("3", "3"), ("1", "1")])
def test_sweep_window_whose_nonzero_residuals_score_zero_is_data_error(tmp_path, window, stride):
    path = tmp_path / "false_zero.csv"
    path.write_text(FALSE_ZERO, encoding="utf-8")
    code, out, err = _run(["sweep", "--input", str(path), "--window", window, "--stride", stride])
    assert (code, out, err) == (1, "", "error: residuals too small: a nonzero residual row scores 0\n")
    code, out, err = _run(["sweep", "--input", str(path), "--window", "6", "--stride", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"][0]["s_min_sq"] > 0.0


def test_unknown_command_is_usage_error():
    code = run_command(["frobnicate"], stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 2


def test_bad_weights_literal_is_usage_error(fixture_csv):
    code = run_command(
        ["diagnose", "--input", str(fixture_csv), "--weights", "sideways"],
        stdout=io.StringIO(),
        stderr=io.StringIO(),
    )
    assert code == 2


def test_malformed_csv_is_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,Y,m\n0,zero,1\n", encoding="utf-8")
    code, _, err = _run(["diagnose", "--input", str(path)])
    assert code == 1
    assert "row 2" in err


@pytest.mark.parametrize(
    "text, message", [("", "input is empty"), ("t,Y,a\n", "no data rows")], ids=["empty", "header-only"]
)
def test_csv_without_data_is_a_one_line_data_error(tmp_path, text, message):
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="utf-8")
    assert _run(["diagnose", "--input", str(path)]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "weights, message",
    [
        ("[true]", "must hold a JSON array of numbers"),
        ("[0.5, 0.5]", "has 2 entries but the ensemble has 3 models"),
    ],
    ids=["bool", "wrong-length"],
)
def test_weight_file_of_the_wrong_kind_is_a_one_line_data_error(fixture_csv, tmp_path, weights, message):
    path = tmp_path / "w.json"
    path.write_text(weights, encoding="utf-8")
    code, out, err = _run(["diagnose", "--input", str(fixture_csv), "--weights", f"@{path}"])
    assert (code, out, err) == (1, "", f"error: weight file {str(path)!r} {message}\n")


def _scaled(factor):
    return lambda fn: lambda *args: fn(*args) * factor


def _overshooting(fn):
    def entries_and_scores(rs):
        entries, scores = fn(rs)
        entries[0, 1] = entries[1, 0] = 1.01 * np.sqrt(scores[0] * scores[1])
        return entries, scores

    return entries_and_scores


@pytest.mark.parametrize(
    "module, name, fault, message",
    [
        ("core", "_mean_square", _scaled(1 + 1e-9), "correspondence diagonal departs"),
        ("core", "_correspondence_entries", _overshooting, "cosine overshoot"),
        ("core", "average_residual", _scaled(1 + 1e-6), "direct ensemble score"),
        ("diagnostics", "ensemble_score", _scaled(1.01), "exceeds its upper bound"),
    ],
    ids=["diagonal", "cosine-overshoot", "expansion", "upper-bound"],
)
def test_each_internal_cross_check_fires_on_an_injected_fault(monkeypatch, tmp_path, module, name, fault, message):
    # collinear members, so the ensemble score attains its upper bound
    path = tmp_path / "collinear.csv"
    path.write_text("t,Y,a,b\n0,0,1,2\n1,0,1,2\n", encoding="utf-8")
    target = importlib.import_module(f"ensdiag.{module}")
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    obs, ens = ensdiag.parse_ensemble_csv(path.read_text(encoding="utf-8"))
    with pytest.raises(ensdiag.EnsdiagError, match=f"^internal inconsistency: .*{message}"):
        ensdiag.build_report(obs, ens, ensdiag.uniform_weights(2))
    code, out, err = _run(["diagnose", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: internal inconsistency: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "csv_bytes, weight_bytes, kind, reason",
    [
        (b"t,Y,\xe9\n0,0,1\n1,0,1\n", None, "input", "invalid continuation byte at byte 4"),
        (FIXTURE.encode(), b"[0.5, 0.25, 0.25]\xff", "weight", "invalid start byte at byte 17"),
    ],
    ids=["input", "weights"],
)
def test_non_utf8_files_are_one_line_data_errors(tmp_path, csv_bytes, weight_bytes, kind, reason):
    paths = {"input": tmp_path / "in.csv", "weight": tmp_path / "w.json"}
    paths["input"].write_bytes(csv_bytes)
    argv = ["diagnose", "--input", str(paths["input"])]
    if weight_bytes is not None:
        paths["weight"].write_bytes(weight_bytes)
        argv += ["--weights", f"@{paths['weight']}"]
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert err == f"error: {kind} file {str(paths[kind])!r} is not UTF-8 text: {reason}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "cell, message",
    [
        # csv.reader refuses fields over its 131,072-character limit
        ('"' + "x" * 200_000 + '"', "malformed CSV: field larger than field limit"),
        ("x" * 200_000, "row 2, column 3: invalid number 'xxx"),
    ],
    ids=["quoted", "unquoted"],
)
def test_overlong_fields_are_one_line_data_errors(tmp_path, cell, message):
    path = tmp_path / "long-field.csv"
    path.write_text(f"t,Y,a\n0,0,{cell}\n1,0,1\n", encoding="utf-8")
    code, out, err = _run(["diagnose", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


#: Residuals near 1e200 overflow the correspondence entries.
OVERFLOW = "t,Y,a,b,c\n" + "".join(
    f"{t},0.0,{(t % 3 + 1) * 1e200},{-(t % 2 + 1) * 2e200},{(t % 4) * 1.5e200}\n"
    for t in range(8)
)


def _huge(n_models):
    """Residuals of 4.6e153: finite entries near 2e307, whose sums overflow."""
    header = "t,Y," + ",".join(f"m{i}" for i in range(n_models))
    return header + "\n" + "".join(f"{t},0.0" + ",4.6e153" * n_models + "\n" for t in range(8))


NOT_FINITE = "error: correspondence entries must be finite\n"
TOO_LARGE = "error: correspondence entries are too large to sum over 4 models\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, text, expected",
    [
        (["diagnose"], OVERFLOW, NOT_FINITE),
        (["diagnose", "--weights", "optimal"], OVERFLOW, NOT_FINITE),
        (["diagnose", "--calibration-end", "3"], OVERFLOW, NOT_FINITE),
        (["optimize"], OVERFLOW, NOT_FINITE),
        (["select", "--mode", "anticorr", "--k", "2"], OVERFLOW, NOT_FINITE),
        # 4 of 4 models: exhaustive search; 4 of 30: greedy selection
        (["select", "--mode", "anticorr", "--k", "4"], _huge(4), TOO_LARGE),
        (["select", "--mode", "anticorr", "--k", "4"], _huge(30), TOO_LARGE),
    ],
    ids=["argv0", "argv1", "argv2", "argv3", "argv4", "anticorr-exhaustive", "anticorr-greedy"],
)
def test_overflowing_residuals_are_one_line_data_errors(tmp_path, argv, text, expected):
    path = tmp_path / "overflow.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run([argv[0], "--input", str(path), *argv[1:]])
    assert (code, out, err) == (1, "", expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv", [["optimize"], ["diagnose", "--weights", "optimal"], ["diagnose", "--calibration-end", "3"]]
)
def test_optimizer_is_silent_on_huge_finite_entries(tmp_path, argv):
    path = tmp_path / "huge.csv"
    path.write_text(_huge(4), encoding="utf-8")
    code, out, err = _run([argv[0], "--input", str(path), *argv[1:]])
    assert (code, err) == (0, "")
    assert json.loads(out)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command", [["diagnose"], ["sweep", "--window", "2", "--stride", "1"]], ids=["diagnose", "sweep"]
)
@pytest.mark.parametrize(
    "weights, expected",
    [
        ("[1" + "0" * 400 + ", 0, 0]", "must be finite and nonnegative"),
        ("[1e308, 1e308, 0]", "must sum to 1 within 1e-09; got inf"),
    ],
    ids=["int-beyond-float", "sum-overflows"],
)
def test_overflowing_weight_files_are_one_line_data_errors(
    fixture_csv, tmp_path, command, weights, expected
):
    path = tmp_path / "w.json"
    path.write_text(weights, encoding="utf-8")
    argv = [command[0], "--input", str(fixture_csv), *command[1:], "--weights", f"@{path}"]
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert err == f"error: weights in {str(path)!r} {expected}\n"


def _tiny(e):
    """Residuals near 10**-e, in two models over three points."""
    return f"t,Y,a,b\n0,0.0,1e-{e},-2e-{e}\n1,0.0,3e-{e},1e-{e}\n2,0.0,-1e-{e},2e-{e}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["diagnose"],
        ["optimize"],
        ["select", "--mode", "anticorr", "--k", "2"],
        ["sweep", "--window", "2", "--stride", "1"],
    ],
)
def test_underflowing_residuals_are_one_line_data_errors(tmp_path, argv):
    """Squares near 1e-340 round to 0, but no member is perfect; squares
    near 1e-310 are subnormal and still score."""
    path = tmp_path / "tiny.csv"
    path.write_text(_tiny(170), encoding="utf-8")
    code, out, err = _run([argv[0], "--input", str(path), *argv[1:]])
    assert (code, out) == (1, "")
    assert err == "error: residuals too small: a nonzero residual row scores 0\n"
    path.write_text(_tiny(155), encoding="utf-8")
    code, out, err = _run([argv[0], "--input", str(path), *argv[1:]])
    assert (code, err) == (0, "")
    assert json.loads(out)


def _prescreen_csv(y, a, b):
    """Observations ``y * (1 + t)`` and two models, over three points."""
    return "t,Y,a,b\n" + "".join(
        f"{t},{y * (1 + t)!r},{a(t)!r},{b(t)!r}\n" for t in range(3)
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, expected",
    [
        (
            # member a departs from observations near 1e-156 by about 1e-170
            _prescreen_csv(1e-156, lambda t: 1e-156 * (1 + t) + 1e-170, lambda t: 1.0 + 0.1 * t),
            "residuals too small: a nonzero residual row scores 0",
        ),
        (
            _prescreen_csv(1e-170, lambda t: 0.5 + t, lambda t: 1.5 - t),
            "observations too small: their mean square underflows to 0",
        ),
        (
            _prescreen_csv(1e-156, lambda t: 1.0 + 0.1 * t, lambda t: 2e-156 * (1 + t)),
            "screening ratios overflow: the observations are too small for the model scores",
        ),
    ],
    ids=["tiny-residuals", "tiny-observations", "ratio-overflow"],
)
def test_prescreen_of_tiny_values_is_a_one_line_data_error(tmp_path, text, expected):
    path = tmp_path / "tiny.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(
        ["select", "--input", str(path), "--mode", "prescreen", "--threshold", "0.5"]
    )
    assert (code, out, err) == (1, "", f"error: {expected}\n")


def _csv(y, outputs):
    obs = ObservationSeries(np.arange(y.size), y)
    return format_ensemble_csv(obs, ModelEnsemble(("a", "b", "c")[: len(outputs)], outputs))


def test_vertex_optimal_average_scores_exactly_as_its_member(tmp_path):
    """Member b's residual is 1.5 times member a's plus noise, so the optimal
    weights put everything on a, and the average must not beat a."""
    rng = np.random.default_rng(2)
    y, e = rng.normal(size=40), rng.normal(size=40)
    path = tmp_path / "vertex.csv"
    path.write_text(_csv(y, [y + e, y + 1.5 * e + 0.1 * rng.normal(size=40)]), encoding="utf-8")
    code, out, err = _run(["diagnose", "--input", str(path), "--weights", "optimal"])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["weights_used"] == [1.0, 0.0]
    assert data["ensemble_score"] == data["best"]["s_min_sq"]
    assert data["result3"]["hypothesis_holds"] is False


def test_stdout_does_not_depend_on_blas_threads(tmp_path):
    """OpenBLAS threads a dot product of more than 10,000 elements."""
    rng = np.random.default_rng(43)
    y = rng.normal(size=20_000)
    path = tmp_path / "long.csv"
    path.write_text(_csv(y, y + rng.normal(size=(3, y.size))), encoding="utf-8")
    src = str(Path(ensdiag.__file__).resolve().parents[1])
    for argv in (["diagnose"], ["sweep", "--window", "15000", "--stride", "2500"]):
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "ensdiag.cli", argv[0], "--input", str(path), *argv[1:]],
                env=env, capture_output=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv


@pytest.mark.parametrize(
    "argv",
    [
        ["diagnose"],
        ["diagnose", "--weights", "optimal"],
        ["diagnose", "--weights", "@WEIGHTS"],
        ["diagnose", "--calibration-end", "2"],
        ["optimize"],
        ["select", "--mode", "prescreen", "--threshold", "2.0"],
        ["select", "--mode", "anticorr", "--k", "2"],
        ["sweep", "--window", "3", "--stride", "1"],
        ["sweep", "--window", "2", "--stride", "3", "--weights", "optimal"],
    ],
)
def test_stdout_is_the_item_by_item_rendering_of_itself(fixture_csv, tmp_path, argv):
    weight_path = tmp_path / "weights.json"
    weight_path.write_text("[0.2, 0.3, 0.5]", encoding="utf-8")
    argv = [arg.replace("WEIGHTS", str(weight_path)) for arg in argv]
    code, out, err = _run([argv[0], "--input", str(fixture_csv), *argv[1:]])
    assert (code, err) == (0, "")
    assert render_json_reference(json.loads(out)) + "\n" == out


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,0," + "x" * 200_000, "row 2, column 3: invalid number 'xxxx"),
        ("1" * 200_000 + ",0,1", "row 2, column 1: invalid integer '1111"),
        ("0,0," + "9" * 200_000, "row 2, column 3: non-finite value '9999"),
    ],
    ids=["value", "time", "overflow"],
)
def test_overlong_cell_error_is_a_short_line(tmp_path, row, message):
    path = tmp_path / "long-cell.csv"
    path.write_text(f"t,Y,a\n{row}\n2,0,1\n", encoding="utf-8")
    code, out, err = _run(["diagnose", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert len(err) < 200 and err.endswith("…' (200000 characters)\n")


@pytest.mark.parametrize("command", [["diagnose"], ["sweep", "--window", "3", "--stride", "2"]])
def test_byte_order_mark_is_ignored(fixture_csv, tmp_path, command):
    marked = tmp_path / "marked.csv"
    marked.write_text("\ufeff" + FIXTURE, encoding="utf-8")
    plain = _run([command[0], "--input", str(fixture_csv), *command[1:]])
    assert plain[0] == 0
    assert _run([command[0], "--input", str(marked), *command[1:]]) == plain


def test_byte_order_mark_is_ignored_in_weight_files(fixture_csv, tmp_path):
    outputs = []
    for name, prefix in [("plain.json", ""), ("marked.json", "\ufeff")]:
        path = tmp_path / name
        path.write_text(prefix + "[0.5, 0.25, 0.25]", encoding="utf-8")
        outputs.append(_run(["diagnose", "--input", str(fixture_csv), "--weights", f"@{path}"]))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize(
    "weights", ["[" + "1" * 5000 + "]", "[" * 100_000], ids=["too-many-digits", "too-deep"]
)
def test_unreadable_weight_json_is_a_one_line_data_error(fixture_csv, tmp_path, weights):
    path = tmp_path / "w.json"
    path.write_text(weights, encoding="utf-8")
    code, out, err = _run(["diagnose", "--input", str(fixture_csv), "--weights", f"@{path}"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: weight file {str(path)!r} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["diagnose"],
        ["optimize"],
        ["select", "--mode", "anticorr", "--k", "2"],
        ["sweep", "--window", "2", "--stride", "1"],
    ],
)
def test_residuals_that_overflow_in_the_subtraction_are_one_line_data_errors(tmp_path, argv):
    path = tmp_path / "overflow.csv"
    path.write_text(
        "t,Y,a,b\n0,1.7e308,-1.7e308,1.7e308\n1,1.7e308,1.7e308,-1.7e308\n",
        encoding="utf-8",
    )
    code, out, err = _run([argv[0], "--input", str(path), *argv[1:]])
    assert (code, out, err) == (1, "", "error: residuals must be finite\n")


@pytest.mark.parametrize(
    "text", ["t,Y,a,b\n0,1,1,3\n1,2,2,5\n", "t,Y,a\n0,1,2\n1,2,3\n"],
    ids=["perfect-member", "single-model"],
)
def test_regime_tolerances_are_checked_on_inputs_without_a_regime(tmp_path, text):
    path = tmp_path / "no-regime.csv"
    path.write_text(text, encoding="utf-8")
    argv = ["diagnose", "--input", str(path)]
    assert _run(argv)[0] == 0
    code, out, err = _run([*argv, "--tol-equal", "5", "--tol-cos", "-3"])
    assert (code, out) == (1, "")
    assert err == "error: regime tolerances must lie strictly between 0 and 1\n"


#: The option strings of each subcommand, in the order its help lists them.
SUBCOMMAND_OPTIONS = {
    "diagnose": [
        "-h", "--help", "--input", "--output", "--weights", "--opt-max-iter",
        "--opt-tol", "--tol-equal", "--tol-cos", "--calibration-end",
    ],
    "optimize": ["-h", "--help", "--input", "--output", "--opt-max-iter", "--opt-tol"],
    "select": ["-h", "--help", "--input", "--output", "--mode", "--threshold", "--k"],
    "sweep": [
        "-h", "--help", "--input", "--output", "--weights", "--opt-max-iter",
        "--opt-tol", "--window", "--stride",
    ],
}


def test_each_subcommand_takes_exactly_its_options():
    (subcommands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    found = {
        name: [option for action in parser._actions for option in action.option_strings]
        for name, parser in subcommands.choices.items()
    }
    assert found == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize(
    "argv", [["optimize"], ["diagnose", "--weights", "optimal"]]
)
def test_optimizer_settings_reach_the_output(fixture_csv, argv):
    options = ["--opt-max-iter", "7", "--opt-tol", "1e-9"]
    code, out, err = _run([argv[0], "--input", str(fixture_csv), *argv[1:], *options])
    assert (code, err) == (0, "")
    settings = json.loads(out)["settings"]
    assert (settings["opt_max_iter"], settings["opt_tol"]) == (7, 1e-9)


def test_console_script_resolves_to_a_callable():
    # A regex, not tomllib: tomllib needs Python 3.11, and 3.10 is supported.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(
        r'^\[project\.scripts\]\nensdiag = "([\w.]+):(\w+)"$',
        pyproject.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    assert match, "pyproject.toml declares no ensdiag console script"
    module, attribute = match.groups()
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize(
    "command",
    [
        ["diagnose"],
        ["diagnose", "--weights", "optimal"],
        ["diagnose", "--calibration-end", "2"],
        ["optimize"],
        ["sweep", "--window", "2", "--stride", "1"],
    ],
    ids=["diagnose", "diagnose-optimal", "diagnose-calibration", "optimize", "sweep"],
)
@pytest.mark.parametrize(
    "options, message",
    [
        (["--opt-max-iter", "-5", "--opt-tol", "-1"], "max_iter must be at least 1"),
        (["--opt-max-iter", "0"], "max_iter must be at least 1"),
        (["--opt-tol", "-1"], "tol must be positive"),
        (["--opt-tol", "0"], "tol must be positive"),
        (["--opt-tol", "nan"], "tol must be positive"),
    ],
    ids=["both", "max-iter-0", "tol-negative", "tol-0", "tol-nan"],
)
def test_optimizer_options_are_checked_on_every_command_that_takes_them(
    fixture_csv, command, options, message
):
    argv = [command[0], "--input", str(fixture_csv), *command[1:]]
    assert _run(argv)[0] == 0
    assert _run([*argv, *options]) == (1, "", f"error: {message}\n")


def _residual_csv(path, columns):
    """A CSV with observations 0, so that each model column is its residual."""
    names = [f"m{i}" for i in range(len(columns))]
    rows = zip(*columns)
    path.write_text(
        f"t,Y,{','.join(names)}\n"
        + "".join(f"{t},0,{','.join(map(repr, row))}\n" for t, row in enumerate(rows)),
        encoding="utf-8",
    )
    code, out, err = _run(["diagnose", "--input", str(path)])
    assert (code, err) == (0, "")
    return json.loads(out)


def test_result2_is_result1_where_division_by_the_scores_erases_a_one_ulp_gap(tmp_path):
    data = _residual_csv(tmp_path / "near-tie.csv", [
        [-1.284580778805345, -0.6616129303555477, -0.8381669607156745],
        [-4.126986063195838, 0.9224660607301658, 2.267720258309381],
    ])
    assert data["correspondence"][0][1] > data["best"]["s_min_sq"]
    assert data["result2"] == data["result1"]
    assert (data["result2"]["hypothesis_holds"], data["result2"]["witnesses"]) == (True, [])


def test_result3_witnesses_a_correspondence_one_ulp_below_the_best_score(tmp_path):
    data = _residual_csv(tmp_path / "near-tie.csv", [
        [-0.575167777202622, 0.040946287172141375, 2.0330920537185277,
         -2.23760584483325, 0.06595710668270424],
        [-0.7130032919635465, -2.9721435632797952, 3.015243851859436,
         -1.3925225725236774, -0.8701884326376157],
    ])
    assert data["correspondence"][0][1] < data["best"]["s_min_sq"]
    assert data["result3"]["conclusion_holds"] is True
    assert data["result3"]["witnesses"] == [[0, 1]]


def test_result3_does_not_witness_a_duplicated_best_member(tmp_path):
    best = [1, 0, -2, -1, -3]
    data = _residual_csv(tmp_path / "duplicate.csv", [best, best, [-3, -3, -2, 2, 1]])
    assert data["correspondence"][0][1] == data["best"]["s_min_sq"] == 3.0
    assert data["result3"]["witnesses"] == [[0, 2], [1, 2]]


def _seeded_csv(path):
    """20 models of 2,000 points, the observations plus a bias, a shared
    error with loadings of both signs and an independent part."""
    rng = np.random.default_rng(2015)
    t = np.arange(2000)
    y = 10.0 * np.sin(t / 50.0) + 2.0 * np.sin(t / 7.0)
    loading = rng.uniform(-0.6, 1.2, (20, 1))
    errors = loading * rng.normal(size=2000) + rng.normal(size=(20, 2000))
    outputs = y + rng.normal(0.0, 0.3, (20, 1)) + errors
    ens = ModelEnsemble(tuple(f"m{i}" for i in range(20)), outputs)
    path.write_text(format_ensemble_csv(ObservationSeries(t, y), ens))
    return path


#: Commands whose stdout goes through the batched exhaustive search or
#: the column-by-column rendering of tuple and record lists: the sweep's
#: rows, and the witness lists of each verdict (177 pairs each here).
BATCHED_COMMANDS = [
    ("diagnose",),
    ("diagnose", "--weights", "optimal"),
    ("select", "--mode", "anticorr", "--k", "2"),
    ("select", "--mode", "anticorr", "--k", "3"),
    ("select", "--mode", "anticorr", "--k", "4"),
    ("sweep", "--window", "200", "--stride", "1"),
    ("sweep", "--window", "200", "--stride", "7"),
    ("sweep", "--window", "200", "--stride", "1", "--weights", "optimal"),
    ("sweep", "--window", "200", "--stride", "7", "--weights", "optimal"),
]


@pytest.mark.parametrize("argv", BATCHED_COMMANDS, ids=" ".join)
def test_anticorr_and_sweep_stdout_is_that_of_the_per_item_loops(tmp_path, monkeypatch, argv):
    path = _seeded_csv(tmp_path / "seeded.csv")
    batched = _run([*argv, "--input", str(path)])
    monkeypatch.setattr(selection, "_exhaustive_subset", exhaustive_subset_reference)
    monkeypatch.setattr(selection, "_cross_sum", cross_sum_reference)
    monkeypatch.setattr(report, "_render_table", lambda values: None)
    per_item = _run([*argv, "--input", str(path)])
    assert batched[0] == 0 and batched[2] == ""
    assert batched == per_item
