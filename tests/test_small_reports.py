"""Small reports, built and rendered without re-validation: their bytes
against the item-by-item reference renderer, the dispatch of ``_render``
over every class in its table, and the witness pairs gathered from the
per-M table of shared tuples, under the one cap on the per-M tables."""

import dataclasses
import enum
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ensdiag import (
    ModelEnsemble,
    ObservationSeries,
    ResidualSet,
    ScoreBounds,
    ValidationError,
    build_report,
    emit_report,
    optimal_weights,
    parse_report,
    render_json,
    residuals,
    uniform_weights,
)
from ensdiag import core, report
from helpers import render_json_reference, witnesses_reference


def _as_dicts(value):
    """``value`` with every record replaced by the dict of its attributes,
    for the reference renderer, which renders no record."""
    if dataclasses.is_dataclass(value):  # a dataclass itself gives its namespace, refused
        value = vars(value)
    if isinstance(value, dict):
        return {key: _as_dicts(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_dicts(item) for item in value]
    return value


def _reference_text(built) -> str:
    return render_json_reference(_as_dicts(report.report_to_dict(built))) + "\n"


def _inputs(rng, m, t=40, perfect=False):
    truth = rng.normal(0.0, 1.0, t)
    shared = rng.normal(0.0, 1.0, t)
    loading = rng.uniform(-0.5, 1.5, (m, 1))
    spread = rng.uniform(0.1, 2.0, (m, 1))
    outputs = truth + loading * shared + spread * rng.normal(0.0, 1.0, (m, t))
    if perfect:
        outputs[rng.integers(m)] = truth
    obs = ObservationSeries(np.arange(7, 7 + t), truth)
    return obs, ModelEnsemble(tuple(f"model {i}" for i in range(m)), outputs)


def _population():
    """Seeded reports: M from 1 to 8 with uniform and optimal weights, with
    and without a perfect member, and one whose correspondence ties
    ``S_min^2`` exactly, so that Result 3's witnesses are not Result 1's."""
    rng = np.random.default_rng(2521)
    for m in range(1, 9):
        for perfect in (False, True):
            obs, ens = _inputs(rng, m, perfect=perfect)
            yield build_report(obs, ens, uniform_weights(m), weights_mode="uniform")
            fit = optimal_weights(residuals(ens, obs))
            yield build_report(obs, ens, fit.weights, weights_mode="optimal", opt_tol=1e-12)
    yield _tie_report()


def _tie_report():
    """Four models, one of whose correspondences ties ``S_min^2`` exactly."""
    obs = ObservationSeries([0, 1, 2], [0.0, 0.0, 0.0])
    rows = [[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, -2.0]]
    return build_report(obs, ModelEnsemble(tuple("bmcd"), rows), uniform_weights(4))


def test_small_reports_render_as_the_reference_and_read_back():
    built = list(_population())
    tie = built[-1]
    assert tie.s_min_sq == tie.correspondence[0][1] == 2 / 3
    assert tie.result1.witnesses == ((0, 1), (0, 3), (1, 3), (2, 3))
    assert tie.result3.witnesses == ((0, 3), (1, 3), (2, 3))
    assert tie.result3.witnesses is not tie.result1.witnesses
    assert any(b.cosines is None for b in built) and any(b.result1 is None for b in built)
    for one in built:
        text = emit_report(one)
        assert text == _reference_text(one)
        again = parse_report(text)
        assert again == one and emit_report(again) == text


class _Kind(enum.Enum):
    A = "a"


class _Count(enum.IntEnum):
    TWO = 2


_BUILT = _tie_report()

#: One leaf for each class of ``report._RENDERERS`` (a built report's
#: typed weights, matrix and witness list among them) and a record.
LEAVES = [
    None, True, np.bool_(False), 7, np.int64(-3), 0.25, np.float64(1.0), "é\\\"",
    [0.5, 1.0], (1, (2, 3)), {"k": 1.5}, _Kind.A, _Count.TWO,
    _BUILT.weights_used, _BUILT.correspondence, _BUILT.result1.witnesses,
    ScoreBounds(lower=0.0, upper=2.0, actual=np.float64(1.5), upper_tight=np.bool_(True)),
]


def test_every_renderer_renders_as_the_reference():
    used = {report._renderer(type(leaf)) for leaf in [*LEAVES, b"refused"]}
    assert set(report._RENDERERS.values()) <= used
    payload = {"leaves": LEAVES, "again": LEAVES[-1], "nested": {"leaf": LEAVES[7]}}
    assert render_json(payload) == render_json_reference(_as_dicts(payload)) + "\n"
    for refused in (b"refused", ScoreBounds, [1.0, 2j]):
        with pytest.raises(TypeError) as got:
            render_json({"x": refused})
        with pytest.raises(TypeError) as expected:
            render_json_reference(_as_dicts({"x": refused}))
        assert str(got.value) == str(expected.value)


def test_witness_pairs_are_the_shared_tuples_of_the_reference():
    rng = np.random.default_rng(2523)
    sizes = [*range(1, 14), 2, 5, 13]  # 13 distinct sizes, then sizes already tabled
    for m in sizes:
        z = rng.uniform(-0.5, 1.5, (m, 1)) * rng.normal(size=30) + rng.normal(size=(m, 30))
        rs = ResidualSet(z)
        at_most, below = rs.witness_pairs
        expected = witnesses_reference(rs)
        assert (at_most, below) == (expected[0], expected[2])
        table = core._pair_tuples(m)
        assert core._pair_tuples(m) is table  # tabled
        for pairs in (at_most, below):
            assert type(pairs) is core._PairList and pairs.m == m
            assert all(type(i) is int and type(j) is int for i, j in pairs)
            assert all(pair is table[k] for pair, k in zip(pairs, pairs.index.tolist()))
        if table.size:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = (0, 0)
    assert sum(m * m for _, m in core._TABLES) <= core._TABLE_CELLS


def test_the_per_m_tables_empty_when_full_and_keep_no_table_past_the_cap():
    made = []

    def build(m):
        made.append(m)
        return [m]

    table = core._per_m(build)
    side = int(core._TABLE_CELLS**0.5)  # 512: the largest size kept
    try:
        first = table(side // 2)
        assert table(side // 2) is first and made == [side // 2]  # kept
        assert table(side + 1) is not table(side + 1)  # past the cap: built at each call
        assert table(side // 2) is first  # and nothing was dropped for it
        table(side)  # fills the cap alone: the tables are emptied first
        assert list(core._TABLES) == [(build, side)]
        assert table(side // 2) is not first
        assert sum(m * m for _, m in core._TABLES) <= core._TABLE_CELLS
    finally:
        for key in [key for key in core._TABLES if key[0] is build]:
            del core._TABLES[key]


def test_every_array_of_a_per_m_table_is_read_only():
    builders = (core._pairs, core._pair_tuples, report._triangle, report._pair_texts)
    for m in (5, 600):  # 600: past the cap, built at each call
        tables = [build(m) for build in builders]
        parts = [part for table in tables for part in (table if type(table) is tuple else [table])]
        arrays = [part for part in parts if isinstance(part, np.ndarray)]
        assert len(arrays) == 6 and not any(a.flags.writeable for a in arrays)


#: Run in a fresh interpreter, so that no other test's sizes are in the
#: tables: one report of 1,000 members, then the sizes of a lib round of
#: the benchmark (200, 3 to 8) twice.  The members' errors are multiples
#: of one error, at least the best's, plus a little noise, so that few
#: pairs are witnesses and the report stays small; every table of the
#: size is made all the same.
_TABLES_SCRIPT = """
import gc, json, tracemalloc
import numpy as np
from ensdiag import ModelEnsemble, ObservationSeries, build_report, emit_report
from ensdiag import anti_correlated_subset, residuals, uniform_weights
from ensdiag import core

def one_report(m, t):
    rng = np.random.default_rng(m)
    truth = rng.normal(size=t)
    errors = rng.uniform(1.0, 2.0, (m, 1)) * rng.normal(size=t) + 0.01 * rng.normal(size=(m, t))
    obs = ObservationSeries(np.arange(t), truth)
    ens = ModelEnsemble(tuple(f"m{i}" for i in range(m)), truth + errors)
    emit_report(build_report(obs, ens, uniform_weights(m)))
    anti_correlated_subset(residuals(ens, obs), 3)

tracemalloc.start()
one_report(1000, 60)
gc.collect()
held = tracemalloc.get_traced_memory()[0]
core._TABLES.clear()
gc.collect()
held -= tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
rounds = []
for _ in range(2):
    for m in (200, *range(3, 9)):
        one_report(m, 60)
    rounds.append({repr(key): id(table) for key, table in core._TABLES.items()})
print(json.dumps({"held": held, "rounds": rounds}))
"""


def test_the_per_m_tables_keep_no_large_table_and_the_lib_sizes():
    src = str(Path(core.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _TABLES_SCRIPT],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["held"] <= 5_000_000  # bytes, after one report of 1,000 members
    first, second = result["rounds"]
    assert len(first) == 4 + 4 * 6  # four tables for each size
    assert second == first  # the same tables: the second round built none


def _count_builds(monkeypatch, table, builds):
    """Append the builder's name to ``builds`` at each build of ``table``, a
    ``core._per_m`` table, by wrapping the builder that it closes over."""
    (cell,) = table.__closure__
    build = cell.cell_contents

    @functools.wraps(build)
    def counted(m):
        builds.append(build.__name__)
        return build(m)

    monkeypatch.setattr(cell, "cell_contents", counted)


@pytest.mark.parametrize("tie", [False, True], ids=["one witness list", "two"])
def test_a_large_report_builds_each_per_m_table_once(monkeypatch, tie):
    builds = []
    tables = (core._pairs, core._pair_tuples, report._triangle, report._pair_texts)
    for table in tables:
        _count_builds(monkeypatch, table, builds)
    m, t = 1000, 60  # past the cap: no table of this size is kept between reports
    rng = np.random.default_rng(2801)
    truth = rng.normal(size=t)
    errors = rng.uniform(1.0, 2.0, (m, 1)) * rng.normal(size=t) + 0.01 * rng.normal(size=(m, t))
    if tie:  # small integers, and a copy of the best member: a pair ties S_min^2 exactly
        truth = rng.integers(-5, 6, t).astype(np.float64)
        errors = rng.integers(4, 8, (m, 1)) * rng.integers(-4, 5, t) + rng.integers(-1, 2, (m, t))
        best = int(np.argmin((errors**2).sum(axis=1)))
        errors[best - 1] = errors[best]
    obs = ObservationSeries(np.arange(t), truth)
    ens = ModelEnsemble(tuple(f"m{i}" for i in range(m)), truth + errors)
    built = build_report(obs, ens, uniform_weights(m))
    text = emit_report(built)
    assert (built.result1.witnesses is not built.result3.witnesses) == tie
    assert sorted(builds) == ["_pair_tuples", "_pairs", "_triangle"]
    assert not any(size == m for _, size in core._TABLES)
    assert json.loads(text)["result1"]["witnesses"] == [list(p) for p in built.result1.witnesses]


def test_a_built_reports_weights_are_not_checked_again_but_replaced_ones_are():
    obs, ens = _inputs(np.random.default_rng(2527), 3)
    built = build_report(obs, ens, uniform_weights(3))
    assert type(built.weights_used) is report._SimplexWeights
    with pytest.raises(ValidationError, match=r"report\.weights_used"):
        dataclasses.replace(built, weights_used=(0.5, 0.5, 0.5))
    assert dataclasses.replace(built, weights_used=(0.5, 0.25, 0.25)).weights_used[0] == 0.5
