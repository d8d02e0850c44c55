"""CSV parsing, report building, and deterministic JSON serialization."""

import dataclasses
import gc
import json
import math
import time
import warnings

import numpy as np
import pytest

import ensdiag.core
import ensdiag.ingest
from ensdiag import (
    CsvFormatError,
    CsvParseError,
    EnsdiagError,
    ModelEnsemble,
    ObservationSeries,
    ValidationError,
    WeightVector,
    build_report,
    calibrate_then_validate,
    emit_report,
    optimal_weights,
    format_ensemble_csv,
    parse_ensemble_csv,
    parse_report,
    render_json,
    residuals,
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


@pytest.mark.parametrize("name", [" a", "a ", "a\n", "\ta", "a\u3000", "\x1ca"])
def test_format_csv_rejects_names_that_would_not_read_back(name):
    obs = ObservationSeries([0, 1], [0.0, 0.0])
    ens = ModelEnsemble(("b", name), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValidationError, match="surrounding whitespace") as info:
        format_ensemble_csv(obs, ens)
    assert "\n" not in str(info.value)


def test_format_csv_rejects_misaligned_inputs():
    obs = ObservationSeries([0, 1], [0.0, 0.0])
    with pytest.raises(ValidationError, match="observations and ensemble must be aligned"):
        format_ensemble_csv(obs, ModelEnsemble(("a",), [[1.0]]))


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
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", chunk_rows)
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
    "duplicate across plain chunks, later strict chunk": _csv(
        "t,Y,a", "0,0,1", "1,0,1", "2,0,1", "3,0,1", "1,0,1", "5,0,1", "6,0,٣"
    ),
    "strict chunk repeats a time two plain chunks back": _csv(
        "t,Y,a", "0,0,1", "1,0,1", "2,0,1", "3,0,1", "4,0,1", "5,0,1", "6,0,٣", "1,0,1"
    ),
    "strict chunks around a plain one": _csv(
        "t,Y,a", "0,0,٣", "1,0,1", "2,0,1", "3,0,1", "4,0,1", "5,0,1", "6,0,٣", "4,0,1"
    ),
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
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", 3)
    _assert_same_as_reference(text)


#: The named cases whose line ends are all LF.
LF_CASES = {name: text for name, text in CHUNK_CASES.items() if "\r" not in text}


def _line_end_copies(text):
    """``text`` with every line end CRLF, and with LF and CRLF in turn."""
    lines = text.split("\n")
    mixed = "".join(line + ("\n", "\r\n")[i % 2] for i, line in enumerate(lines[:-1]))
    return text.replace("\n", "\r\n"), mixed + lines[-1]


@pytest.mark.parametrize("text", LF_CASES.values(), ids=LF_CASES.keys())
def test_crlf_and_mixed_line_ends_parse_as_lf(monkeypatch, text):
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", 3)
    expected = _outcome(parse_ensemble_csv, text)  # the arrays, or the error's row and column
    for copy in _line_end_copies(text):
        assert _outcome(parse_ensemble_csv, copy) == expected
        _assert_same_as_reference(copy)
        if '"' not in copy and "\0" not in copy:  # split as LF text, not by csv.reader
            assert ensdiag.ingest._tokenize(copy) == ensdiag.ingest._tokenize(text)


def test_crlf_text_parses_within_15_percent_of_lf():
    rng = np.random.default_rng(3203)
    values = rng.normal(size=(25_000, 4)).tolist()
    rows = [f"{t}," + ",".join(map(repr, row)) for t, row in enumerate(values)]
    lf = _csv("t,Y,a,b,c", *rows)
    texts = [lf, lf.replace("\n", "\r\n")]
    for _ in range(3):  # a stall of the shared host may spoil one measurement, not three
        best = [math.inf, math.inf]
        gc.disable()
        try:
            for _ in range(5):  # alternated, so that both see the same machine
                for i, text in enumerate(texts):
                    start = time.process_time()
                    parse_ensemble_csv(text)
                    best[i] = min(best[i], time.process_time() - start)
        finally:
            gc.enable()
        if best[1] <= 1.15 * best[0]:
            return
    pytest.fail(f"CRLF parse took {best[1]:.4f} s against {best[0]:.4f} s for LF")


def _counting_validator(monkeypatch):
    calls = []
    validate = ensdiag.ingest._convert_row

    def counted(*args):
        calls.append(args[1])
        return validate(*args)

    monkeypatch.setattr(ensdiag.ingest, "_convert_row", counted)
    return calls


def test_clean_csv_takes_no_strict_rows(monkeypatch):
    calls = _counting_validator(monkeypatch)
    n = 2 * ensdiag.ingest._CHUNK_ROWS + 5
    text = _csv("t,Y,gcm_a,b", *(f"{t},{t / 3!r},-1e-3,{t}" for t in range(n)))
    obs, _ = parse_ensemble_csv(text)
    assert obs.n_points == n
    assert calls == []


def test_bad_last_row_takes_at_most_one_chunk_of_strict_rows(monkeypatch):
    calls = _counting_validator(monkeypatch)
    n = 2 * ensdiag.ingest._CHUNK_ROWS + 5
    text = _csv("t,Y,a", *(f"{t},0,1" for t in range(n)), f"{n},0,1.0e")
    with pytest.raises(CsvParseError, match=f"row {n + 2}, column 3"):
        parse_ensemble_csv(text)
    assert 0 < len(calls) <= ensdiag.ingest._CHUNK_ROWS


def test_a_strict_chunk_takes_the_earlier_times_in_one_pass(monkeypatch):
    ordered = _counting(monkeypatch, "_time_order")
    added = _counting(monkeypatch, "_add_time")
    size = ensdiag.ingest._CHUNK_ROWS
    rows = [f"{t},0,1" for t in range(2 * size + 5)]
    text = _csv("t,Y,a", *rows, f"{len(rows)},0,1.0e")  # two plain chunks, then a strict one
    with pytest.raises(CsvParseError, match=f"row {len(rows) + 2}, column 3"):
        parse_ensemble_csv(text)
    assert ordered == [] and len(added) == 6  # the strict rows' own times only
    added.clear()
    rows[size + 3] = "7,0,1"  # row size + 5 repeats row 9's time
    text = _csv("t,Y,a", *rows, f"{len(rows)},0,1.0e")
    assert _outcome(parse_ensemble_csv, text) == _outcome(parse_csv_reference, text)
    assert _outcome(parse_ensemble_csv, text)[1] == f"duplicate time 7 at row {size + 5}"
    assert len(ordered) == 2 and added == []


# ---------------------------------------------------------------------------
# numpy's reader as the first tier of the converter
# ---------------------------------------------------------------------------

#: Cells that numpy's reader might read otherwise than ``float``, ``int``
#: and ``str.strip`` do; ``{}`` stands for the cell's own value.
NUMPY_CELLS = [
    "#x", "1#", "{}#",
    "\x0c", "\x0c{}", "{}\x0c", "\x1c", "\x1c{}", "{}\x1f", "\x85", "\x85{}\x85",
    " ", " {} ", "\u3000", "\u3000{}", "{}\u3000", "\x0b{}", "{}\u2028",
    "1d5", "0x1p3", "1 2", "{} 2", "\u0661", "\u0663.5",
    "{},",  # a trailing comma in the last column
]


def _numpy_cell_cases():
    """A clean 6-row CSV with one row replaced by a whitespace-only line, or
    one cell of it by each of ``NUMPY_CELLS``, in each column."""
    rows = [[str(t), repr(t / 4), "-1e-3", repr(2.0**-t)] for t in range(6)]
    for r in range(len(rows)):
        for line in [" ", "\t\x0c"]:
            yield _csv("t,Y,a,b", *(line if i == r else ",".join(row) for i, row in enumerate(rows)))
        for c in range(4):
            for cell in NUMPY_CELLS:
                edited = [list(row) for row in rows]
                edited[r][c] = cell.format(edited[r][c])
                yield _csv("t,Y,a,b", *map(",".join, edited))


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5])
def test_numpy_tier_matches_row_by_row_rules(monkeypatch, chunk_rows):
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", chunk_rows)
    for text in _numpy_cell_cases():
        _assert_same_as_reference(text)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5])
def test_fallback_tier_matches_row_by_row_rules(monkeypatch, chunk_rows):
    monkeypatch.setattr(ensdiag.ingest, "_load_plain", lambda lines, width: None)
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(7100 + chunk_rows)
    for _ in range(1500):
        _assert_same_as_reference(_fuzzed_csv(rng))


def _decimal(rng) -> str:
    """A random decimal: a sign, 1-40 digits with or without a point, and
    an exponent from -330 to 310."""
    digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(1, 41)))))
    point = int(rng.integers(0, len(digits) + 1))
    if rng.random() < 0.5:
        digits = digits[:point] + "." + digits[point:]
    sign = ["", "-", "+"][int(rng.integers(0, 3))]
    return f"{sign}{digits}e{int(rng.integers(-330, 311))}"


def test_numpy_tier_values_are_bit_identical_to_float():
    rng = np.random.default_rng(7200)
    cells = [cell for cell in (_decimal(rng) for _ in range(3000)) if math.isfinite(float(cell))]
    cells = cells[: len(cells) // 2 * 2]
    lines = [f"{t},{cells[2 * t]},{cells[2 * t + 1]}" for t in range(len(cells) // 2)]
    times, values = ensdiag.ingest._load_plain(lines, 3)
    assert times.tolist() == list(range(len(lines)))
    assert values.ravel().tobytes() == np.array(list(map(float, cells))).tobytes()


#: Time cells at and past the int64 range, and ones that ``int`` and
#: numpy's integer reader might read otherwise; ``{}`` stands for the row's
#: own time.
TIME_CELLS = [
    "-9223372036854775808", "9223372036854775807", "9223372036854775808",
    "+1000", "001000", "1000.0", "1e3", "\x1c{}", "{}\x1c", "\x1f{}\x1f", "\x1c\x1f{} ",
]


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5])
def test_time_cells_read_in_one_pass_match_row_by_row_rules(monkeypatch, chunk_rows):
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", chunk_rows)
    rows = [[str(t), repr(t / 4), "-1e-3"] for t in range(6)]
    for r in range(len(rows)):
        for cell in TIME_CELLS:
            edited = [list(row) for row in rows]
            edited[r][0] = cell.format(edited[r][0])
            _assert_same_as_reference(_csv("t,Y,a", *map(",".join, edited)))


def test_a_time_read_through_a_float_is_refused(monkeypatch):
    """A numpy that reads an int cell such as ``1.0`` through a float, with
    a DeprecationWarning, as numpy 1.23 does: its answer is not taken."""
    loadtxt = np.loadtxt

    def through_float(lines, dtype, **options):
        lines = list(lines)
        if any("." in line.partition(",")[0] for line in lines):
            warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
            lines = [line.replace(".0,", ",", 1) for line in lines]
        return loadtxt(lines, dtype=dtype, **options)

    monkeypatch.setattr(ensdiag.ingest, "_INT_VIA_FLOAT", True)
    monkeypatch.setattr(np, "loadtxt", through_float)
    for text in [_csv("t,Y,a", "0,0,1", "1.0,0,1"), _csv("t,Y,a", "0,0,1", "1,0,1")]:
        _assert_same_as_reference(text)
    with pytest.raises(CsvParseError, match="row 3, column 1: invalid integer '1.0'"):
        parse_ensemble_csv(_csv("t,Y,a", "0,0,1", "1.0,0,1"))


def test_plain_text_is_screened_for_underscores_past_the_header(monkeypatch):
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", 3)
    loaded = _counting(monkeypatch, "_load_plain")
    validated = _counting(monkeypatch, "_convert_row")
    rows = [f"{t},{t / 4!r},-1e-3" for t in range(8)]
    named = _csv("t,Y,gcm_a", *rows)  # only the header holds one: every chunk takes numpy's reader
    assert _outcome(parse_ensemble_csv, named) == _outcome(parse_csv_reference, named)
    assert len(loaded) == 3 and validated == []
    loaded.clear()
    rows[4] = "4,1_0,-1e-3"  # one value cell: its chunk, rows 5-7, goes row by row
    body = _csv("t,Y,a", *rows)
    assert _outcome(parse_ensemble_csv, body) == _outcome(parse_csv_reference, body)
    assert len(loaded) == 1 and [row for _, row, *_ in validated] == [5, 6]
    with pytest.raises(CsvParseError, match="row 6, column 2: invalid number '1_0'"):
        parse_ensemble_csv(body)


def _counting(monkeypatch, name):
    calls = []
    function = getattr(ensdiag.ingest, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(ensdiag.ingest, name, counted)
    return calls


def test_plain_csv_takes_numpy_tier_unless_it_refuses(monkeypatch):
    converted = _counting(monkeypatch, "_convert_rows")
    validated = _counting(monkeypatch, "_convert_row")
    n = 2 * ensdiag.ingest._CHUNK_ROWS + 5
    rows = [f"{t},{t / 3!r},-1e-3,{t}" for t in range(n)]
    obs, _ = parse_ensemble_csv(_csv("t,Y,gcm_a,b", *rows))
    assert obs.n_points == n
    assert converted == [] and validated == []
    rows[n - 1] = f"{n - 1},\u0663.5,-1e-3,0"  # non-ASCII digits: numpy's reader refuses
    obs, _ = parse_ensemble_csv(_csv("t,Y,gcm_a,b", *rows))
    assert obs.values[-1] == 3.5
    assert len(converted) == 1 and 0 < len(validated) <= ensdiag.ingest._CHUNK_ROWS


def test_strict_chunks_check_each_time_for_repeats_once(monkeypatch):
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", 16)
    ordered = _counting(monkeypatch, "_time_order")
    added = _counting(monkeypatch, "_add_time")
    n = 40 * 16
    rows = [f"{t},{t / 3!r},\u0663.5" if t % 16 == 5 else f"{t},{t / 3!r},-1e-3" for t in range(n)]
    text = _csv("t,Y,a", *rows)  # numpy's reader refuses every chunk
    assert _outcome(parse_ensemble_csv, text) == _outcome(parse_csv_reference, text)
    assert sum(len(times) for times, in ordered) + len(added) <= 2 * n


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_reader_csv_takes_the_strict_rules(monkeypatch, end):
    loaded = _counting(monkeypatch, "_load_plain")
    n = 2 * ensdiag.ingest._CHUNK_ROWS + 5
    rows = [f"{t},{t / 3!r},-1e-3,{t}" for t in range(n)]
    text = _csv('"t",Y,"gcm_a","b,c"', *rows, end=end)
    obs, ens = parse_ensemble_csv(text)
    assert obs.n_points == n and ens.model_names == ("gcm_a", "b,c")
    assert loaded == []  # numpy's reader never sees a line of csv.reader text
    assert _outcome(parse_ensemble_csv, text) == _outcome(parse_csv_reference, text)


#: Quoted cells of ``csv.reader`` text that hold what a comma line could
#: not carry to numpy's reader as it is; ``{}`` stands for the cell's own
#: value.
READER_CELLS = [
    '"{}"', '""', '"{}"""', '"""{}"', '"{},5"', '"1,{}"', '"{},"', '","',
    '"{}\n"', '"\n{}"', '"{}\r"', '"\r{}"', '"{}\r\n"',
    '"\0{}"', '"{}\0"', '"1_{}"', '"{}_"', '"_"', ' "{}"',
]


def _reader_cell_cases():
    """A clean 6-row CSV with one cell replaced by each of ``READER_CELLS``,
    in each column, or one row by a line one cell short whose quoted cell
    holds a comma, so that its comma count is the header's."""
    rows = [[str(t), repr(t / 4), "-1e-3", repr(2.0**-t)] for t in range(6)]
    for r in range(len(rows)):
        for c in range(3):
            short = [list(row) for row in rows]
            short[r][c : c + 2] = [f'"{short[r][c]},{short[r][c + 1]}"']
            yield _csv("t,Y,a,b", *map(",".join, short))
        for c in range(4):
            for cell in READER_CELLS:
                edited = [list(row) for row in rows]
                edited[r][c] = cell.format(edited[r][c])
                yield _csv("t,Y,a,b", *map(",".join, edited))


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5])
def test_reader_cells_match_row_by_row_rules(monkeypatch, chunk_rows):
    monkeypatch.setattr(ensdiag.ingest, "_CHUNK_ROWS", chunk_rows)
    loaded = _counting(monkeypatch, "_load_plain")  # another numpy may tokenize these otherwise
    for text in _reader_cell_cases():
        _assert_same_as_reference(text)
    assert loaded == []


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


def _sample_inputs():
    obs = ObservationSeries([0, 1, 2, 3], [0.0, 1.0, 0.5, -0.25])
    ens = ModelEnsemble(
        ("alpha", "beta", "gamma"),
        [
            [0.5, 1.5, 1.0, 0.25],
            [-1.0, 0.0, -0.5, -1.25],
            [0.1, 1.1, 0.4, -0.2],
        ],
    )
    return obs, ens


def _sample_report():
    return build_report(*_sample_inputs(), uniform_weights(3))


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


def test_report_computes_result1_once_and_reports_it_as_result2():
    report = _sample_report()
    assert report.result2 is report.result1
    parsed = parse_report(emit_report(report))
    assert parsed.result2 == parsed.result1 and parsed.result2 is not parsed.result1


def test_report_cross_checks_its_ensemble_score_once(monkeypatch):
    calls = []
    average_residual = ensdiag.core.average_residual
    monkeypatch.setattr(
        ensdiag.core, "average_residual", lambda rs, w: calls.append(w) or average_residual(rs, w)
    )
    weights = uniform_weights(3)
    report = build_report(*_sample_inputs(), weights)
    assert calls == [weights]
    assert report.result1.s_sq == report.result3.s_sq == report.bounds.actual == report.ensemble_score


@pytest.mark.parametrize(
    "bad",
    [((0, 1), (1, 3)), ((0, 2), (2, 1)), ((-1, 1),), ((np.int64(1), np.int64(1)),)],
    ids=["beyond-models", "order", "negative", "numpy-self-pair"],
)
def test_report_refuses_a_bad_result3_list_beside_a_valid_result1(bad):
    report = _sample_report()
    assert report.result3.witnesses is report.result1.witnesses  # no tie: one list
    with pytest.raises(ValidationError, match=r"^malformed report structure: report\.result3\.witnesses"):
        dataclasses.replace(report, result3=dataclasses.replace(report.result3, witnesses=bad))
    valid = ((0, 1), (np.int64(0), np.int64(2)), (1, 2))
    dataclasses.replace(report, result3=dataclasses.replace(report.result3, witnesses=valid))


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


def _optimized_reports():
    obs, ens = _sample_inputs()
    fitted = optimal_weights(residuals(ens, obs), 50, 1e-9)
    built = build_report(
        obs, ens, fitted.weights, weights_mode="optimal", opt_max_iter=50, opt_tol=1e-9
    )
    validated = calibrate_then_validate(obs, ens, 1, opt_max_iter=60, opt_tol=1e-8)
    return {"build_report": built, "calibrate_then_validate": validated.validation_report}


@pytest.mark.parametrize("source", ["build_report", "calibrate_then_validate"])
def test_report_round_trip_with_optimizer_settings(source):
    report = _optimized_reports()[source]
    assert report.settings.opt_max_iter is not None and report.settings.opt_tol is not None
    text = emit_report(report)
    parsed = parse_report(text)
    assert parsed == report
    assert emit_report(parsed) == text


def _set(*path, value):
    """An edit of a report document that sets the key at ``path``."""

    def edit(report):
        *parents, key = path
        data = report
        for parent in parents:
            data = data[parent]
        data[key] = value
        return report

    return edit


def _drop(*path):
    """An edit of a report document that deletes the key at ``path``."""

    def edit(report):
        *parents, key = path
        data = report
        for parent in parents:
            data = data[parent]
        del data[key]
        return report

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set("ensemble_score", value="abc"),
        _set("interval", "start", value=1.5),
        _set("result1", "hypothesis_holds", value="false"),
        _set("result1", "hypothesis_holds", value=0),
        _set("result1", "witnesses", value=[[0, 1, 2]]),
        _set("regime", value="bogus"),
        _set("result1", value=3),
        _drop("bounds"),
        _drop("interval", "end"),
        lambda report: [report],
        lambda report: None,
        _set("model_names", value="abc"),
        _set("ensemble_score", value=10**400),
    ],
    ids=[
        "string-score", "fractional-start", "string-bool", "int-bool", "3-item-witness",
        "unknown-regime", "number-for-record", "missing-bounds", "missing-interval-end",
        "top-level-array", "top-level-null", "string-for-array", "int-beyond-float",
    ],
)
def test_parse_report_rejects_each_mistyped_field(edit):
    text = json.dumps(edit(json.loads(emit_report(_sample_report()))))
    with pytest.raises(ValidationError, match="^malformed report structure: "):
        parse_report(text)


def _edits(*edits):
    def edit(report):
        for each in edits:
            report = each(report)
        return report

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _edits(
            _set("best", "index", value=7),
            _set("weights_used", value=[1.0, 1.0, 1.0]),
            _set("model_names", value=["alpha"]),
        ),
        _set("best", "index", value=7),
        _set("best", "index", value=-1),
        _set("best", "name", value="nobody"),
        _set("weights_used", value=[0.5, 0.5]),
        _set("weights_used", value=[1.0, 1.0, 1.0]),
        _set("weights_used", value=[1.5, -0.5, 0.0]),
        _set("per_model_scores", value=[1.0, 2.0, 3.0, 4.0]),
        _set("correspondence", value=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        _set("cosines", value=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        _set("perfect_models", value=[3]),
        _set("result1", "witnesses", value=[[1, 0]]),
        _set("result2", "witnesses", value=[[0, 0]]),
        _set("result3", "witnesses", value=[[0, 1], [1, 3]]),
        _set("result3", "witnesses", value=[[-1, 1]]),
        _set("result1", "best_model_index", value=7),
        _set("result2", "best_model_index", value=-3),
        _set("result3", "best_model_index", value=0),
        _set("interval", "end", value=-5),
        _set("interval", "n_points", value=5),
    ],
    ids=[
        "index-weights-and-names", "index-beyond-models", "negative-index", "other-best-name",
        "short-weights", "weights-off-simplex", "negative-weight", "long-scores",
        "short-matrix", "narrow-matrix", "perfect-beyond-models", "witness-order",
        "witness-self-pair", "witness-beyond-models", "negative-witness",
        "verdict-index-beyond-models", "negative-verdict-index", "verdict-index-not-best",
        "end-before-start", "interval-longer-than-its-times",
    ],
)
def test_parse_report_refuses_each_broken_invariant(edit):
    text = json.dumps(edit(json.loads(emit_report(_sample_report()))))
    with pytest.raises(ValidationError, match="^malformed report structure: "):
        parse_report(text)


def test_parse_report_rejects_invalid_json():
    with pytest.raises(ValidationError, match="^malformed report JSON: "):
        parse_report(emit_report(_sample_report())[:-10])


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
