"""Canonical JSON: the bulk paths against the item-by-item renderer."""

import random
import struct
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensdiag import SweepRow, ValidationError, render_json
from helpers import render_json_reference

#: Floats whose ``%.17g`` text has no fraction, or only an exponent.
INTEGRAL = [1.0, -1.0, 0.0, -0.0, 2.0**53, -(2.0**53), 1e16, 1e17, 1e22, 5e-324]


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


plain_floats = st.one_of(
    st.sampled_from(INTEGRAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.integers(0, 2**64 - 1).map(_bits_to_float),  # nan and inf among them
    st.integers(-(2**60), 2**60).map(float),
)
small_ints = st.integers(-(2**70), 2**70)
non_finite = st.sampled_from([float("nan"), float("inf"), -float("inf")])

#: Long float rows, sometimes with one nan or inf among them.
float_rows = st.builds(
    lambda row, bad, at: row[:at] + [bad] + row[at:] if bad is not None else row,
    st.lists(plain_floats.filter(lambda x: x == x and abs(x) != np.inf), max_size=300),
    st.one_of(st.none(), non_finite),
    st.integers(0, 300),
)
#: Tuple shapes; a list of one shape renders column by column.
tuple_shapes = [
    st.tuples(small_ints, small_ints),
    st.tuples(small_ints, small_ints, small_ints),
    st.tuples(st.integers(0, 5), st.booleans()),
    st.tuples(st.integers(0, 5).map(np.int64), st.integers(0, 5)),
    st.tuples(plain_floats, st.booleans()),
    st.tuples(st.booleans(), small_ints, st.one_of(plain_floats, non_finite)),
    st.tuples(plain_floats, plain_floats),  # a matrix: row by row
]
int_tuples = st.one_of(tuple_shapes)
tuple_lists = st.sampled_from(tuple_shapes).flatmap(lambda shape: st.lists(shape, max_size=40))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([np.bool_(True), np.bool_(False)]),
    small_ints,
    small_ints.filter(lambda x: abs(x) < 2**63).map(np.int64),
    plain_floats,
    plain_floats.map(np.float64),
    st.text(max_size=8),
    float_rows,
    float_rows.map(tuple),
    st.lists(int_tuples, max_size=40),
    tuple_lists,
    st.lists(st.tuples(small_ints, small_ints), max_size=40).map(tuple),
    st.just(b"bytes"),
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans()),
            children,
            max_size=6,
        ),
    ),
    max_leaves=30,
)


def _outcome(render, payload):
    try:
        return render(payload)
    except (ValidationError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_bulk_render_matches_item_by_item(payload):
    expected = _outcome(lambda p: render_json_reference(p) + "\n", payload)
    assert _outcome(render_json, payload) == expected


@settings(max_examples=200, deadline=None)
@given(tuple_lists)
def test_tuple_lists_render_as_their_items(tuples):
    expected = _outcome(lambda p: render_json_reference(p) + "\n", tuples)
    assert _outcome(render_json, tuples) == expected


@pytest.mark.parametrize(
    "row",
    [
        INTEGRAL,
        tuple(INTEGRAL),
        [0.25] * 199 + [1.0],  # a cosine row: one exact diagonal
        [1.0] * 200,
        [0.1, 2, 0.3],  # mixed: item by item
        [0.5, np.float64(1.0), 0.25],
        [0.5, True],
        [],
        (),
        *INTEGRAL,  # scalars
        np.float64(1e16),
    ],
)
def test_float_rows(row):
    assert render_json({"row": row}) == render_json_reference({"row": row}) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_cell_in_a_long_row_is_rejected(bad):
    row = [0.5] * 150 + [bad] + [1.0] * 150
    with pytest.raises(ValidationError, match="must not contain NaN or infinite"):
        render_json({"row": row})


@pytest.mark.parametrize(
    "pairs",
    [
        ((0, 1), (0, 2), (1, 2)),
        [(0, 1)],
        ((-(2**70), 2**70),),
        ((0, 1), (0, 1, 2)),  # 3-tuples: item by item
        ((0, True),),
        ((np.int64(0), 1),),
        ((0, 1.0),),
        ([0, 1], [1, 2]),
        ((), ()),
        ((0.5, True), (-0.0, False), (1e16, True)),
        ((0.5, 1.0), (0.25, 2)),  # a float first row: row by row
    ],
)
def test_int_pair_lists(pairs):
    assert render_json({"w": pairs}) == render_json_reference({"w": pairs}) + "\n"


# ---------------------------------------------------------------------------
# record lists, column by column
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Three:
    a: object
    b: object
    c: object


@dataclass
class _One:
    x: object


@dataclass
class _NoFields:
    pass


def _extra(record, **attributes):
    """A record with attributes beyond its fields, which render after them."""
    vars(record).update(attributes)
    return record


#: Field values of the exact types that render column by column.
exact_cells = [
    st.sampled_from(INTEGRAL + [float("nan"), float("inf"), -float("inf")]),
    plain_floats,
    small_ints,
    st.booleans(),
]
#: Field values: each column draws its values from one of these.
cells = exact_cells + [
    plain_floats.map(np.float64),
    small_ints.filter(lambda x: abs(x) < 2**63).map(np.int64),
    st.sampled_from([np.bool_(True), np.bool_(False)]),
    st.none(),
    st.text(max_size=4),
    st.lists(plain_floats, max_size=3).map(tuple),
]
cells.append(st.one_of(cells))  # a column of mixed types


@st.composite
def record_lists(draw):
    """0, 1, a few or 300 records of one type, sometimes with one record
    of another type among them; each column's values are drawn from a
    small pool, so that long lists stay cheap to generate."""
    kind = draw(st.sampled_from([SweepRow, _Three, _One, _NoFields]))
    n = draw(st.one_of(st.integers(0, 12), st.just(300)))
    column = st.one_of(st.sampled_from(exact_cells), st.sampled_from(cells))
    pools = [draw(st.lists(draw(column), min_size=1, max_size=6)) for _ in fields(kind)]
    picks = random.Random(draw(st.integers(0, 2**32)))
    records = [kind(*[picks.choice(pool) for pool in pools]) for _ in range(n)]
    if records and draw(st.booleans()):
        other = draw(st.sampled_from([_One(1.0), _NoFields(), _Three(1, 2.0, True)]))
        records.insert(draw(st.integers(0, n)), other)
    return draw(st.sampled_from([list, tuple]))(records)


@settings(max_examples=200, deadline=None)
@given(record_lists())
def test_record_lists_render_as_their_fields_item_by_item(records):
    expected = _outcome(
        lambda p: render_json_reference({"rows": [vars(r) for r in p]}) + "\n", records
    )
    assert _outcome(lambda p: render_json({"rows": p}), records) == expected


@pytest.mark.parametrize(
    "records",
    [
        [SweepRow(1, 9, 0, 0.5, 1.0, True)],
        (_One(-0.0),),
        (_One(float("nan")),),
        [SweepRow, SweepRow],  # classes, not records
        [_One, _One(1.0)],
        [_extra(_One(1.0), **{"%s": 2}), _extra(_One(0.5), **{"%s": 3})],
        [_One(1.0), _extra(_One(0.5), y=True)],  # of two widths: item by item
    ],
)
def test_one_record_and_record_classes(records):
    expected = _outcome(
        lambda p: render_json_reference({"rows": [vars(r) for r in p]}) + "\n", records
    )
    assert _outcome(lambda p: render_json({"rows": p}), records) == expected


def test_sweep_rows_render_column_by_column():
    rows = [SweepRow(t, t + 9, t % 3, 0.5 * t, 1.0, t % 2 == 0) for t in range(5)]
    assert render_json({"rows": rows}) == render_json_reference(
        {"rows": [vars(r) for r in rows]}
    ) + "\n"
    rows[3] = SweepRow(3, 12, 0, float("nan"), 1.0, False)
    with pytest.raises(ValidationError, match="must not contain NaN or infinite"):
        render_json({"rows": rows})
