"""Canonical JSON: the bulk paths against the item-by-item renderer."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensdiag import ValidationError, render_json
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

#: Long float rows, sometimes with one nan or inf among them.
float_rows = st.builds(
    lambda row, bad, at: row[:at] + [bad] + row[at:] if bad is not None else row,
    st.lists(plain_floats.filter(lambda x: x == x and abs(x) != np.inf), max_size=300),
    st.one_of(st.none(), st.sampled_from([float("nan"), float("inf"), -float("inf")])),
    st.integers(0, 300),
)
int_tuples = st.one_of(
    st.tuples(small_ints, small_ints),
    st.tuples(small_ints, small_ints, small_ints),
    st.tuples(st.integers(0, 5), st.booleans()),
    st.tuples(st.integers(0, 5).map(np.int64), st.integers(0, 5)),
)
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
    ],
)
def test_int_pair_lists(pairs):
    assert render_json({"w": pairs}) == render_json_reference({"w": pairs}) + "\n"

