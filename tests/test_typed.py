"""The report's typed values: symmetric matrices and pair lists that keep
the arrays they came from, against plain tuples and the item-by-item
renderer, and the plain tuples that pickling and copying give; and the
residual arrays that ``residuals`` and ``model_score`` hand over
uncopied."""

import copy
import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensdiag import (
    ModelEnsemble,
    ObservationSeries,
    ResidualSet,
    ValidationError,
    build_report,
    emit_report,
    model_score,
    optimal_weights,
    parse_report,
    render_json,
    residuals,
    uniform_weights,
)
from ensdiag.core import _BLOCK, _PairList
from ensdiag.report import _SymmetricRows
from helpers import NO_SHRINK, render_json_reference


def _outcome(render, payload):
    try:
        return render(payload)
    except (ValidationError, TypeError) as exc:
        return type(exc), str(exc)


def _reference(payload):
    return render_json_reference(payload) + "\n"


def _plain(rows):
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# symmetric matrices
# ---------------------------------------------------------------------------

#: Cells whose ``%.17g`` text lacks a fraction (1.0, -0.0, 2^53, 1e16), or
#: has none and an exponent (1e17), subnormals, both zeros, and values
#: that are not finite.
SPECIAL = [1.0, -1.0, 0.0, -0.0, 2.0**53, -(2.0**53), 1e16, 1e17, 5e-324, -2.5e-320,
           2.2250738585072014e-308]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]

cell_values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),
)


@st.composite
def symmetric_arrays(draw):
    """Bitwise symmetric float64 arrays of 1 to 40 rows, from a small pool
    of cells so that they repeat; sometimes with one non-finite cell,
    mirrored."""
    m = draw(st.integers(1, 40))
    pool = draw(st.lists(cell_values, min_size=1, max_size=6))
    picks = random.Random(draw(st.integers(0, 2**32)))
    arr = np.array([[picks.choice(pool) for _ in range(m)] for _ in range(m)])
    upper = np.triu(np.ones((m, m), dtype=bool))
    arr = np.where(upper, arr, arr.T)  # the upper triangle, mirrored bit for bit
    if draw(st.booleans()):
        np.fill_diagonal(arr, 1.0)  # a cosine matrix's diagonal
    if draw(st.integers(0, 5)) == 0:
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        arr[i, j] = arr[j, i] = draw(st.sampled_from(NON_FINITE))
    return arr


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(symmetric_arrays())
def test_typed_symmetric_render_is_that_of_the_plain_rows(arr):
    typed = _SymmetricRows(arr)
    assert type(typed) is _SymmetricRows
    assert np.array(typed).tobytes() == arr.tobytes()  # bit for bit: nan is no tuple's equal
    expected = _outcome(_reference, {"m": _plain(arr.tolist())})
    assert _outcome(render_json, {"m": typed}) == expected


@pytest.mark.parametrize("m", [4, 5, 40])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_typed_cell_raises_the_plain_error(m, bad):
    arr = np.full((m, m), 0.25)
    arr[1, 3] = arr[3, 1] = bad
    with pytest.raises(ValidationError, match="must not contain NaN or infinite") as typed:
        render_json({"m": _SymmetricRows(arr)})
    with pytest.raises(ValidationError) as plain:
        render_json_reference({"m": _plain(arr.tolist())})
    assert str(typed.value) == str(plain.value)


def test_the_kept_array_is_a_read_only_copy():
    """A report keeps its residual set's read-only arrays, made from a copy
    of the caller's outputs, so a change to those outputs reaches neither
    the rows nor the arrays."""
    outputs = np.array([[1.0, 2.0, 0.5], [3.0, -1.0, 2.0], [0.5, 0.5, -2.0]])
    obs = ObservationSeries(np.arange(3), [0.25, 0.5, -0.5])
    ens = ModelEnsemble(("a", "b", "c"), outputs)
    rs = residuals(ens, obs)
    built = build_report(obs, ens, uniform_weights(3))
    text = emit_report(built)
    outputs[:] = 9.0
    for rows, arr in ((built.correspondence, rs.entries), (built.cosines, rs.cosines)):
        assert not rows.array.flags.writeable
        assert rows.array.tobytes() == arr.tobytes() and rows == _plain(arr.tolist())
    assert emit_report(built) == text


# ---------------------------------------------------------------------------
# pair lists
# ---------------------------------------------------------------------------


def _pairs(m, n, seed):
    """``n`` pairs i < j of ``m`` models, in row-major order: positions in
    ``np.triu_indices(m, 1)``, which lists the pairs in that order."""
    keep = np.random.default_rng(seed).choice(m * (m - 1) // 2, n, replace=False)
    return _PairList(m, np.sort(keep))


def _pair_list(m, pairs):
    """The ``_PairList`` of the pairs i < j of ``m`` models given, at their
    row-major positions."""
    positions = [i * (2 * m - i - 1) // 2 + j - i - 1 for i, j in pairs]
    return _PairList(m, np.array(positions, dtype=np.intp))


@pytest.mark.parametrize(
    "m, n",
    [
        (2, 0),
        (2, 1),
        (3, 3),
        (40, 7),
        (40, 30),
        (200, 19_894),
        (600, 50),  # past the cap of the per-M tables: off its own pairs
    ],
)
def test_typed_pair_list_renders_as_its_pairs(m, n):
    pairs = _pairs(m, n, seed=m + n)
    assert len(pairs) == n and all(type(i) is int and 0 <= i < j < m for i, j in pairs)
    assert render_json({"w": pairs}) == _reference({"w": tuple(pairs)})


@pytest.mark.parametrize("m", [2, 3, 5, 40, 200, 600])
def test_a_pair_list_holds_the_pairs_at_its_positions(m):
    rows, cols = np.triu_indices(m, 1)
    every = tuple(zip(rows.tolist(), cols.tolist()))
    assert _PairList(m, np.arange(len(every))) == every
    assert _pair_list(m, every[1::3]) == every[1::3]


# ---------------------------------------------------------------------------
# the typed values are tuples
# ---------------------------------------------------------------------------


def test_typed_values_compare_and_hash_like_plain_tuples():
    arr = np.array([[2.0, -0.5, 0.0], [-0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
    rows, plain_rows = _SymmetricRows(arr), _plain(arr.tolist())
    pairs, plain_pairs = _PairList(3, np.arange(3)), ((0, 1), (0, 2), (1, 2))
    for typed, plain in [(rows, plain_rows), (pairs, plain_pairs)]:
        assert isinstance(typed, tuple)
        assert typed == plain and plain == typed and not typed != plain
        assert hash(typed) == hash(plain)
        assert {typed: 1}[plain] == 1
        assert tuple(typed) == plain and len(typed) == len(plain)
    none = _PairList(4, np.arange(0))
    assert none == () and hash(none) == hash(())


def _wide_report(seed=811, m=30):
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal(400)
    outputs = truth + rng.standard_normal((m, 400)) * rng.uniform(0.5, 2.0, (m, 1))
    obs = ObservationSeries(np.arange(400), truth)
    ens = ModelEnsemble(tuple(f"m{i}" for i in range(m)), outputs)
    return build_report(obs, ens, uniform_weights(m))


def test_a_report_holds_typed_values():
    built = _wide_report()
    assert type(built.correspondence) is _SymmetricRows
    assert type(built.cosines) is _SymmetricRows
    assert not built.correspondence.array.flags.writeable
    assert type(built.result1.witnesses) is _PairList and built.result1.witnesses
    assert built.result1.witnesses.m == len(built.model_names)


@pytest.mark.parametrize(
    "duplicate",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        copy.deepcopy,
        copy.copy,
        lambda r: dataclasses.replace(r),
        lambda r: dataclasses.replace(r, best_name=r.best_name),
        lambda r: parse_report(emit_report(r)),
    ],
    ids=["pickle", "deepcopy", "copy", "replace", "replace-field", "parse"],
)
def test_a_duplicated_report_is_equal_and_renders_the_same_bytes(duplicate):
    # 200 independent members: nearly every pair is a witness, so a parsed
    # copy renders a 19,000-pair list and two 200x200 matrices item by item
    for built in (_wide_report(), _wide_report(m=200)):
        text = emit_report(built)
        again = duplicate(built)
        assert again == built
        assert hash(again.correspondence) == hash(built.correspondence)
        assert emit_report(again) == text
    assert len(built.result1.witnesses) >= 19_000


@pytest.mark.parametrize(
    "duplicate",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_pickle_and_deepcopy_give_plain_tuples_and_keep_their_sharing(duplicate):
    built = _wide_report()
    again = duplicate(built)
    assert type(again.correspondence) is tuple and type(again.cosines) is tuple
    for verdict in (again.result1, again.result2, again.result3):
        assert type(verdict.witnesses) is tuple
    assert again == built and emit_report(again) == emit_report(built)
    assert again.result2 is again.result1
    assert (again.result3.witnesses is again.result1.witnesses) == (
        built.result3.witnesses is built.result1.witnesses
    )


# ---------------------------------------------------------------------------
# the report's refusals
# ---------------------------------------------------------------------------


def _with_witnesses(built, witnesses):
    verdict = dataclasses.replace(built.result1, witnesses=witnesses)
    return dataclasses.replace(built, result1=verdict, result2=verdict)


def test_a_report_refuses_a_plain_pair_out_of_range():
    built = _wide_report(m=4)
    with pytest.raises(ValidationError, match=r"report\.result1\.witnesses"):
        _with_witnesses(built, ((0, 1), (2, 4)))
    with pytest.raises(ValidationError, match=r"report\.result1\.witnesses"):
        _with_witnesses(built, ((1, 1),))
    assert _with_witnesses(built, ((0, 1), (2, 3))).result1.witnesses == ((0, 1), (2, 3))


def test_a_report_walks_a_pair_list_made_for_another_m():
    built = _wide_report(m=4)
    with pytest.raises(ValidationError, match=r"report\.result1\.witnesses"):
        _with_witnesses(built, _pair_list(5, [(0, 1), (2, 4)]))
    within = _with_witnesses(built, _pair_list(5, [(0, 3)]))  # in range: the walk passes it
    assert within.result1.witnesses == ((0, 3),)


# ---------------------------------------------------------------------------
# the residual array handed over uncopied
# ---------------------------------------------------------------------------


def test_f_and_c_ordered_outputs_give_the_same_bits():
    rng = np.random.default_rng(827)
    obs = ObservationSeries(np.arange(3000), rng.standard_normal(3000))
    outputs = obs.values + rng.standard_normal((24, 3000)) * rng.uniform(0.2, 3.0, (24, 1))
    names = tuple(f"m{i}" for i in range(24))
    sets = []
    for layout in (np.ascontiguousarray(outputs), np.asfortranarray(outputs), outputs.T.copy().T):
        ens = ModelEnsemble(names, layout)
        sets.append(residuals(ens, obs))
    c_set = sets[0]
    assert np.asfortranarray(outputs).flags.f_contiguous
    for rs in sets:
        assert rs.residuals.flags.c_contiguous and not rs.residuals.flags.writeable
        assert rs.entries.tobytes() == c_set.entries.tobytes()
        assert rs.cosines.tobytes() == c_set.cosines.tobytes()
        fit, c_fit = optimal_weights(rs), optimal_weights(c_set)
        assert fit.weights.weights.tobytes() == c_fit.weights.weights.tobytes()
        assert (fit.score, fit.kkt_gap) == (c_fit.score, c_fit.kkt_gap)


def test_a_callers_array_is_copied():
    z = np.array([[1.0, 2.0, -1.0], [0.5, -0.5, 3.0]])
    rs = ResidualSet(z)
    before = (rs.residuals.copy(), rs.entries.copy())
    z[:] = 7.0
    assert np.array_equal(rs.residuals, before[0]) and np.array_equal(rs.entries, before[1])
    assert z.flags.writeable and rs.residuals is not z


def test_an_overflowing_subtraction_is_still_refused():
    obs = ObservationSeries([0, 1], [-1e308, 0.0])
    ens = ModelEnsemble(("a", "b"), [[1e308, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="residuals must be finite"):
        residuals(ens, obs)


@pytest.mark.parametrize("n", [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_model_score_is_its_one_member_sets_score(n):
    z = np.random.default_rng(829 + n).standard_normal(n)
    before = z.copy()
    assert model_score(z) == ResidualSet(z[None, :]).s_min_sq
    assert model_score(list(z)) == ResidualSet(z[None, :]).s_min_sq
    assert z.flags.writeable and np.array_equal(z, before)
