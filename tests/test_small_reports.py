"""Small reports, built and rendered without re-validation: their bytes
against the item-by-item reference renderer, the dispatch of ``_render``
over every class in its table, and the witness pairs gathered from the
per-M table of shared tuples."""

import dataclasses
import enum

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
    obs = ObservationSeries([0, 1, 2], [0.0, 0.0, 0.0])
    rows = [[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, -2.0]]
    yield build_report(obs, ModelEnsemble(tuple("bmcd"), rows), uniform_weights(4))


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


#: One leaf for each class of ``report._RENDERERS`` and a record.
LEAVES = [
    None, True, np.bool_(False), 7, np.int64(-3), 0.25, np.float64(1.0), "é\\\"",
    [0.5, 1.0], (1, (2, 3)), {"k": 1.5}, _Kind.A, _Count.TWO,
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
    sizes = [*range(1, 14), 2, 5, 13]  # 13 distinct sizes, then sizes evicted from the tables
    for m in sizes:
        z = rng.uniform(-0.5, 1.5, (m, 1)) * rng.normal(size=30) + rng.normal(size=(m, 30))
        rs = ResidualSet(z)
        at_most, below = rs.witness_pairs
        expected = witnesses_reference(rs)
        assert (at_most, below) == (expected[0], expected[2])
        table = core._pair_tuples(m)
        for pairs in (at_most, below):
            assert type(pairs) is core._PairList and pairs.m == m
            assert all(type(i) is int and type(j) is int for i, j in pairs)
            assert all(pair is table[k] for pair, k in zip(pairs, pairs.index.tolist()))
        if table.size:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = (0, 0)
    assert core._pair_tuples.cache_info().currsize == 8


def test_a_built_reports_weights_are_not_checked_again_but_replaced_ones_are():
    obs, ens = _inputs(np.random.default_rng(2527), 3)
    built = build_report(obs, ens, uniform_weights(3))
    assert type(built.weights_used) is report._SimplexWeights
    with pytest.raises(ValidationError, match=r"report\.weights_used"):
        dataclasses.replace(built, weights_used=(0.5, 0.5, 0.5))
    assert dataclasses.replace(built, weights_used=(0.5, 0.25, 0.25)).weights_used[0] == 0.5
