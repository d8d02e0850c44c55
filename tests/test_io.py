"""CSV parsing, report building, and deterministic JSON serialization."""

import json

import numpy as np
import pytest

import ensdiag.report
from ensdiag import (
    CsvFormatError,
    CsvParseError,
    EnsdiagError,
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
from helpers import parse_csv_reference


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
# chunked conversion against the row-by-row rules
# ---------------------------------------------------------------------------

#: Cells that break, or only nearly break, a format rule.
ODD_CELLS = [
    "", " ", "\t", "_", "1_0", "abc", "1.0e", "0x10", "--1", "1e3", "1.5",
    "+1", " 2\t", "٣", " ٥ ", "٣.5",
    "nan", "-inf", "Infinity", "1e999", "-1e999", "1e-400",
    "1" * 4301, "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "18446744073709551616",
    '"3"', '"1,2"', '"', 'x"y', "\x00", "4\x00", "5\r", "\r",
]


def _outcome(parse, text):
    """Arrays, layout and names of a parse, or its error's type and text."""
    try:
        obs, ens = parse(text)
    except EnsdiagError as exc:
        return type(exc), str(exc)
    return (
        obs.times.dtype, obs.times.tobytes(), obs.values.tobytes(),
        ens.outputs.shape, ens.outputs.flags.f_contiguous, ens.outputs.tobytes(),
        ens.model_names,
    )


def _assert_same_as_reference(text):
    assert _outcome(parse_ensemble_csv, text) == _outcome(parse_csv_reference, text), text


def _fuzzed_csv(rng) -> str:
    """A small valid CSV, then up to four random breaks of the format."""
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 14))
    names = [f"gcm_{i}" if rng.random() < 0.3 else f"m{i}" for i in range(m)]
    times = int(rng.integers(-5, 5)) + np.arange(n)
    if rng.random() < 0.3:
        times = rng.permutation(times)
    rows = [["t", "Y", *names]] + [
        [str(t), *(repr(float(x)) for x in rng.normal(0.0, 10.0, m + 1))]
        for t in times
    ]
    for _ in range(int(rng.integers(0, 5))):
        i, k = (int(x) for x in rng.integers(1, len(rows), size=2))
        j = int(rng.integers(0, len(rows[i]) + 1))
        kind = rng.integers(0, 6)
        if kind == 5:
            rows.insert(i, [])  # a blank line
        elif not rows[i]:
            continue
        elif kind == 0 and j < len(rows[i]):
            rows[i][j] = ODD_CELLS[rng.integers(len(ODD_CELLS))]
        elif kind == 1 and rows[k]:
            rows[i][0] = rows[k][0]
        elif kind == 2 and j < len(rows[i]):
            del rows[i][j]
        elif kind == 3:
            rows[i].insert(j, repr(float(rng.normal())))
        elif kind == 4 and i + 1 < len(rows):
            rows[i + 1].insert(0, rows[i].pop())  # ragged rows, count unchanged
    lines = [",".join(row) for row in rows]
    end = ["\n", "\r\n", "\r"][rng.choice(3, p=[0.8, 0.15, 0.05])]
    return end.join(lines) + (end if rng.random() < 0.8 else "")


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5])
def test_chunked_parse_matches_row_by_row_rules(monkeypatch, chunk_rows):
    monkeypatch.setattr(ensdiag.report, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(7000 + chunk_rows)
    for _ in range(1500):
        _assert_same_as_reference(_fuzzed_csv(rng))


def _csv(*lines, end="\n"):
    return end.join(lines) + end


#: Named breaks of the format; with chunks of 3 rows, rows 2-4, 5-7, ...
#: form one chunk each.
CHUNK_CASES = {
    "clean": _csv("t,Y,a,b", *(f"{t},{t},1,2" for t in range(8))),
    "unsorted": _csv("t,Y,a", "2,0,1", "0,0,1", "1,0,1", "4,0,1", "3,0,1"),
    "compensating ragged rows": _csv("t,Y,a,b", "0,1,2", "1,1,2,3,4", "2,1,2,3"),
    "ragged row ending a chunk": _csv("t,Y,a", "0,1,2", "1,1,2", "2,1", "3,4,5,6"),
    "bad cell first in chunk": _csv("t,Y,a", *(f"{t},0,1" for t in range(3)), "3,0,x", "4,0,1"),
    "bad cell last in chunk": _csv("t,Y,a", *(f"{t},0,1" for t in range(5)), "5,0,1.0e"),
    "bad cell in last row": _csv("t,Y,a", *(f"{t},0,1" for t in range(7)), "7,0,"),
    "early duplicate, later bad cell": _csv(
        "t,Y,a", "0,0,1", "1,0,1", "0,0,1", "3,0,1", "4,0,1", "5,0,1", "6,0,x"
    ),
    "duplicate across chunks, later bad cell": _csv(
        "t,Y,a", "0,0,1", "1,0,1", "2,0,1", "3,0,1", "1,0,1", "5,0,x"
    ),
    "duplicate across chunks": _csv("t,Y,a", "0,0,1", "1,0,1", "2,0,1", "3,0,1", "2,0,1"),
    "blank lines": "\n\nt,Y,a\n\n0,0,1\n\n\n1,0,1\n2,x,1\n",
    "underscore in a name": _csv("t,Y,gcm_a,gcm_b", "0,0,1,2", "1,0,1,2"),
    "underscore in the body": _csv("t,Y,a", "0,0,1", "1,1_0,1", "2,0,1"),
    "underscore in a time": _csv("t,Y,a", "0,0,1", "1_0,0,1"),
    "quoted name and cells": _csv('t,Y,"a,b"', '0,"1",2', '1,2,"3"'),
    "quoted comma": _csv("t,Y,a", '0,"1,5",2'),
    "crlf": _csv("t,Y,a", "0,0,1", "1,0,1", end="\r\n"),
    "lone cr": "t,Y,a\n0,0,1\r1,0,1\n",
    "nul": _csv("t,Y,a", "0,0,1", "1,0,\x001"),
    "long time": _csv("t,Y,a", "0,0,1", "1" * 4301 + ",0,1"),
    "unicode digits and padding": _csv(
        "t,Y,a", "٠,+1, 2\t", "+1,٣.5, -4 ", " 2 ,1e3,٥"
    ),
    "nan": _csv("t,Y,a", "0,0,1", "1,nan,1"),
    "inf": _csv("t,Y,a", "0,0,-inf", "1,0,1"),
    "1e999": _csv("t,Y,a", "0,0,1", "1,0,1", "2,1e999,1"),
    "int64 edge": _csv("t,Y,a", "9223372036854775806,0,1", "9223372036854775807,0,1"),
    "time above int64": _csv("t,Y,a", "9223372036854775807,0,1", "9223372036854775808,0,1"),
    "time below int64": _csv("t,Y,a", "-9223372036854775809,0,1"),
}


@pytest.mark.parametrize("text", CHUNK_CASES.values(), ids=CHUNK_CASES.keys())
def test_chunked_parse_cases_match_row_by_row_rules(monkeypatch, text):
    monkeypatch.setattr(ensdiag.report, "_CHUNK_ROWS", 3)
    _assert_same_as_reference(text)


def _counting_validator(monkeypatch):
    calls = []
    validate = ensdiag.report._validate_row

    def counted(*args):
        calls.append(args[1])
        return validate(*args)

    monkeypatch.setattr(ensdiag.report, "_validate_row", counted)
    return calls


def test_clean_csv_takes_no_strict_rows(monkeypatch):
    calls = _counting_validator(monkeypatch)
    n = 2 * ensdiag.report._CHUNK_ROWS + 5
    text = _csv("t,Y,gcm_a,b", *(f"{t},{t / 3!r},-1e-3,{t}" for t in range(n)))
    obs, _ = parse_ensemble_csv(text)
    assert obs.n_points == n
    assert calls == []


def test_bad_last_row_takes_at_most_one_chunk_of_strict_rows(monkeypatch):
    calls = _counting_validator(monkeypatch)
    n = 2 * ensdiag.report._CHUNK_ROWS + 5
    text = _csv("t,Y,a", *(f"{t},0,1" for t in range(n)), f"{n},0,1.0e")
    with pytest.raises(CsvParseError, match=f"row {n + 2}, column 3"):
        parse_ensemble_csv(text)
    assert 0 < len(calls) <= ensdiag.report._CHUNK_ROWS


def test_converter_and_strict_rules_disagreeing_is_an_error(monkeypatch):
    monkeypatch.setattr(ensdiag.report, "_convert", lambda cells, width: None)
    with pytest.raises(ValidationError, match="internal inconsistency"):
        parse_ensemble_csv("t,Y,a\n0,0,1\n1,0,1\n")


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
