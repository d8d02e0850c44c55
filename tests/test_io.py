"""CSV parsing, report building, and deterministic JSON serialization."""

import json

import numpy as np
import pytest

from ensdiag import (
    CsvFormatError,
    CsvParseError,
    ModelEnsemble,
    ObservationSeries,
    ValidationError,
    WeightVector,
    build_report,
    emit_report,
    format_ensemble_csv,
    parse_ensemble_csv,
    parse_report,
    render_json,
    uniform_weights,
)


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_file():
    obs, ens = parse_ensemble_csv("t,Y,m1\n0,0,1\n1,0,1\n")
    assert np.array_equal(obs.values, [0.0, 0.0])
    assert np.array_equal(ens.outputs, [[1.0, 1.0]])
    assert ens.model_names == ("m1",)


def test_parse_sorts_rows_by_time():
    obs, ens = parse_ensemble_csv("t,Y,m1\n1,0,1\n0,0,2\n")
    assert np.array_equal(obs.times, [0, 1])
    assert np.array_equal(ens.outputs, [[2.0, 1.0]])


def test_parse_requires_model_columns():
    with pytest.raises(CsvFormatError):
        parse_ensemble_csv("t,Y\n0,0\n")


def test_parse_requires_t_y_header():
    with pytest.raises(CsvFormatError):
        parse_ensemble_csv("time,obs,m1\n0,0,1\n")


def test_parse_duplicate_time():
    with pytest.raises(CsvFormatError, match="duplicate time"):
        parse_ensemble_csv("t,Y,m1\n0,0,1\n0,0,2\n")


def test_parse_reports_row_and_column():
    with pytest.raises(CsvParseError, match="row 3, column 2"):
        parse_ensemble_csv("t,Y,m1\n0,0,1\n1,,2\n")
    with pytest.raises(CsvParseError, match="row 2, column 3"):
        parse_ensemble_csv("t,Y,m1\n0,0,abc\n")
    with pytest.raises(CsvParseError, match="row 2, column 1"):
        parse_ensemble_csv("t,Y,m1\n0.5,0,1\n")
    with pytest.raises(CsvParseError, match="row 2, column 1"):
        parse_ensemble_csv("t,Y,m1\n9223372036854775808,0,1\n")


def test_parse_missing_cell():
    with pytest.raises(CsvParseError, match="row 2"):
        parse_ensemble_csv("t,Y,m1\n0,0\n")


def test_parse_rejects_nonfinite_and_underscores():
    with pytest.raises(CsvParseError, match="non-finite"):
        parse_ensemble_csv("t,Y,m1\n0,inf,1\n1,0,1\n")
    with pytest.raises(CsvParseError):
        parse_ensemble_csv("t,Y,m1\n0,1_0,1\n1,0,1\n")
    with pytest.raises(CsvParseError):
        parse_ensemble_csv("t,Y,m1\n0,nan,1\n1,0,1\n")


def test_parse_accepts_scientific_notation():
    obs, _ = parse_ensemble_csv("t,Y,m1\n0,1e-3,2.5E2\n1,-2.5e1,+0.125\n")
    assert np.array_equal(obs.values, [1e-3, -25.0])


def test_parse_rejects_gapped_times():
    with pytest.raises(ValidationError, match="consecutive"):
        parse_ensemble_csv("t,Y,m1\n0,0,1\n2,0,1\n")


def test_csv_round_trip_is_identity():
    rng = np.random.default_rng(301)
    obs = ObservationSeries(np.arange(-3, 9), rng.uniform(-10, 10, size=12))
    ens = ModelEnsemble(("alpha", "beta"), rng.uniform(-10, 10, size=(2, 12)))
    text = format_ensemble_csv(obs, ens)
    obs2, ens2 = parse_ensemble_csv(text)
    assert np.array_equal(obs2.times, obs.times)
    assert np.array_equal(obs2.values, obs.values)
    assert np.array_equal(ens2.outputs, ens.outputs)
    assert ens2.model_names == ens.model_names
    # idempotence: a second pass serializes identically
    assert format_ensemble_csv(obs2, ens2) == text


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def test_render_json_floats_keep_type_and_precision():
    text = render_json({"a": 1.0, "b": 0.1, "c": 3, "d": True, "e": None})
    assert text == '{"a":1.0,"b":0.10000000000000001,"c":3,"d":true,"e":null}\n'
    parsed = json.loads(text)
    assert isinstance(parsed["a"], float)
    assert parsed["b"] == 0.1


def test_render_json_rejects_nonfinite():
    with pytest.raises(ValidationError):
        render_json({"a": float("nan")})
    with pytest.raises(ValidationError):
        render_json({"a": float("inf")})


def test_render_json_is_deterministic():
    payload = {"x": [0.1, 0.2, 0.30000000000000004], "y": {"z": -1.5e-300}}
    assert render_json(payload) == render_json(payload)


# ---------------------------------------------------------------------------
# report building and round trip
# ---------------------------------------------------------------------------


def _sample_report():
    obs = ObservationSeries([0, 1, 2, 3], [0.0, 1.0, 0.5, -0.25])
    ens = ModelEnsemble(
        ("alpha", "beta", "gamma"),
        [
            [0.5, 1.5, 1.0, 0.25],
            [-1.0, 0.0, -0.5, -1.25],
            [0.1, 1.1, 0.4, -0.2],
        ],
    )
    return build_report(obs, ens, uniform_weights(3))


def test_report_round_trip():
    report = _sample_report()
    text = emit_report(report)
    parsed = parse_report(text)
    assert parsed == report
    assert emit_report(parsed) == text
    assert text.endswith("\n")


def test_report_emission_is_byte_stable():
    assert emit_report(_sample_report()) == emit_report(_sample_report())


def test_report_key_order_is_documented_order():
    data = json.loads(emit_report(_sample_report()))
    assert list(data) == [
        "schema_version",
        "interval",
        "model_names",
        "weights_used",
        "per_model_scores",
        "correspondence",
        "cosines",
        "perfect_models",
        "ensemble_score",
        "best",
        "result1",
        "result2",
        "result3",
        "bounds",
        "regime",
        "settings",
    ]
    assert data["schema_version"] == "1"


def test_report_matrices_serialized_symmetric():
    data = json.loads(emit_report(_sample_report()))
    corr = data["correspondence"]
    cos = data["cosines"]
    for i in range(3):
        for j in range(3):
            assert corr[i][j] == corr[j][i]
            assert cos[i][j] == cos[j][i]


def test_report_perfect_model_degenerate_form():
    obs = ObservationSeries([0, 1], [3.0, 4.0])
    ens = ModelEnsemble(("exact", "off"), [[3.0, 4.0], [4.0, 5.0]])
    report = build_report(obs, ens, uniform_weights(2))
    assert report.perfect_models == (0,)
    assert report.cosines is None
    assert report.result1 is not None  # correspondence form still defined
    assert report.result2 is None and report.result3 is None
    assert report.regime is None
    data = json.loads(emit_report(report))
    assert data["cosines"] is None
    assert data["perfect_models"] == [0]
    assert parse_report(emit_report(report)) == report


def test_report_single_model_degenerate_form():
    obs = ObservationSeries([0, 1], [0.0, 0.0])
    ens = ModelEnsemble(("only",), [[1.0, 2.0]])
    report = build_report(obs, ens, WeightVector([1.0]))
    assert report.result1 is None
    assert report.regime is None
    assert report.bounds.actual == pytest.approx(2.5, rel=1e-15)
    assert parse_report(emit_report(report)) == report


def test_parse_report_rejects_other_schema():
    text = emit_report(_sample_report()).replace('"schema_version":"1"', '"schema_version":"2"')
    with pytest.raises(ValidationError):
        parse_report(text)


def test_report_self_consistency():
    report = _sample_report()
    data = json.loads(emit_report(report))
    assert data["best"]["index"] == report.best_index
    assert data["result1"]["s_sq"] == report.ensemble_score
    assert data["bounds"]["actual"] == report.ensemble_score
    assert data["regime"] in (
        "EquallyGoodLowCorrespondence",
        "DominantBestPositiveCorrespondence",
        "Neither",
    )
