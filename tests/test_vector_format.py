"""The vectorised ``%.17g`` kernel, ``report._float_cells``, against Python's
own conversion, cell for cell; and the two routes of the bulk renderers,
below and from ``_VECTOR_CELLS`` on, against the item-by-item renderer."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensdiag import ValidationError, render_json
from ensdiag.report import (
    _CELL,
    _VECTOR_CELLS,
    _SymmetricRows,
    _cell_texts,
    _float_cells,
    _render_floats,
    _render_symmetric,
    _text,
)
from helpers import NO_SHRINK, render_json_reference

N = 100_000


def _expected(values: np.ndarray) -> list[str]:
    return [render_json_reference(x) for x in values.tolist()]


def _kernel_texts(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The kernel's text of every cell, and its certificate."""
    cells, certified = _float_cells(values)
    assert cells.shape == (values.size, _CELL) and cells.dtype == np.uint8
    assert not cells[:, -1].any()  # the separator slot is left free
    cells[:, -1] = ord(",")
    return _text(cells).split(",")[:-1], certified


def _mismatches(values: np.ndarray, texts: list[str], expected: list[str], mask=None):
    """The first few (value, text, expected text) that differ: a short
    failure report, where comparing the lists would print all of them."""
    mask = [True] * len(texts) if mask is None else mask.tolist()
    pairs = zip(values.tolist(), texts, expected, mask)
    return [(x, text, want) for x, text, want, ok in pairs if ok and text != want][:5]


def _check(values: np.ndarray) -> np.ndarray:
    """Every certified cell, and every cell after the fallback, is the
    ``%.17g`` text with the ``.0`` rule; returns the certificate."""
    expected = _expected(values)
    texts, certified = _kernel_texts(values)
    assert not _mismatches(values, texts, expected, certified)
    after = _text(_cell_texts(values)).split(",")[:-1]
    assert len(after) == len(expected) and not _mismatches(values, after, expected)
    return certified


def _same_text(got: str, want: str) -> None:
    """``got == want``, reporting only where they part."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(want))
        start = max(at - 40, 0)
        pytest.fail(f"texts part at {at}: {got[start : at + 40]!r} != {want[start : at + 40]!r}")


def _ties(j: np.ndarray, seed: int) -> np.ndarray:
    """Integers in [2**52, 2**53) divided by 2**j: exact binary fractions,
    many of whose decimal expansions stop just after the 17th digit."""
    rng = np.random.default_rng(seed)
    return rng.integers(2**52, 2**53, j.size).astype(np.float64) / 2.0**j


def _random_class(name: str) -> np.ndarray:
    rng = np.random.default_rng({"normal": 1, "uniform": 2, "log": 3}[name])
    if name == "normal":
        return rng.standard_normal(N)
    if name == "uniform":
        return rng.uniform(-1.0, 1.0, N)
    return np.exp(rng.uniform(-12.0, 40.0, N)) * rng.choice([-1.0, 1.0], N)


@pytest.mark.parametrize("name", ["normal", "uniform", "log"])
def test_random_values(name):
    values = _random_class(name)
    certified = _check(values)
    domain = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)
    assert not certified[~domain].any()
    assert certified.sum() >= 0.999 * domain.sum()  # the kernel, not the fallback, at work


def _tie_count(values: np.ndarray) -> int:
    """Values whose exact decimal expansion stops at a 5 one digit after
    the 17th significant one: the round-half-to-even cases."""
    count = 0
    for x in values.tolist():
        digits = f"{abs(x):.60e}".split("e")[0].replace(".", "").rstrip("0")
        count += len(digits) == 18 and digits[-1] == "5"
    return count


@pytest.mark.parametrize("divisor", ["quarter", "power_of_two"])
def test_exact_ties_round_half_to_even(divisor):
    j = np.full(N, 2) if divisor == "quarter" else np.arange(N) % 59 + 1
    values = _ties(j, seed=4 if divisor == "quarter" else 5)
    values[1::2] *= -1.0
    certified = _check(values)
    assert certified.mean() > 0.99
    assert _tie_count(values[:2000]) > 20  # ties to either neighbour are among them
    assert _render_floats([1234567890123456.75]) == "[1234567890123456.8]"
    assert _float_cells(np.array([1234567890123456.75]))[1].all()


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


def test_powers_of_ten_and_their_neighbours():
    values = np.array(
        [
            sign * _nudged(float(f"1e{n}"), ulps)
            for n in range(-5, 17)
            for ulps in (-2, -1, 0, 1, 2)
            for sign in (1.0, -1.0)
        ]
    )
    certified = _check(values)
    assert certified.sum() > values.size // 2


SPECIAL = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    -2.225073858507201e-308,
    1e-4,
    -1e-4,
    1e16,
    -1e16,
    1234567890123456.75,
    9999999999999998.0,
    0.1,
    -1.0,
    1e17,
    1.7976931348623157e308,
]


def test_special_values():
    certified = _check(np.array(SPECIAL))
    assert not certified[:4].any()  # zeros and subnormals fall back
    assert certified[SPECIAL.index(1e-4)] and not certified[SPECIAL.index(1e16)]


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_bits_to_float).filter(math.isfinite),
)


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(st.lists(finite_doubles, min_size=1, max_size=50))
def test_any_finite_doubles(values):
    _check(np.array(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# both routes of the renderers
# ---------------------------------------------------------------------------


def _symmetric(m: int, seed: int) -> np.ndarray:
    """A symmetric matrix with a cosine's unit diagonal, values from about
    1e-6 to 1e17 in magnitude, some -0.0 and some integral values."""
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-6, 18, (m, m))
    arr[rng.random((m, m)) < 0.05] = -0.0
    arr[rng.random((m, m)) < 0.05] = 3.0
    arr = np.triu(arr) + np.triu(arr, 1).T
    np.fill_diagonal(arr, 1.0)
    return arr


@pytest.mark.parametrize("m", [*range(1, 61), 200])
def test_symmetric_matrices_on_both_sides_of_the_crossover(m):
    arr = _symmetric(m, seed=900 + m)
    typed = _SymmetricRows(arr)
    assert type(typed) is _SymmetricRows
    _same_text(_render_symmetric(typed), render_json_reference(arr.tolist()))


@pytest.mark.parametrize("n", [1, 2, 17, 255, 256, 257, 999, 1000, 5801, 20_000])
def test_float_rows_on_both_sides_of_the_crossover(n):
    rng = np.random.default_rng(n)
    row = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n)).tolist()
    for i, x in zip(rng.integers(0, n, 8).tolist(), [0.0, -0.0, 2.0, -5e-324, 1e16, 0.5, 1.0]):
        row[i] = x
    _same_text(_render_floats(row), render_json_reference(row))


def test_the_crossover_splits_the_tested_sizes():
    assert 2 <= _VECTOR_CELLS <= 1830  # the upper triangle of 60 rows


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_cell_above_the_crossover_is_rejected(bad):
    arr = _symmetric(200, seed=7)
    arr[3, 150] = arr[150, 3] = bad
    with pytest.raises(ValidationError, match="must not contain NaN or infinite") as typed:
        render_json({"m": _SymmetricRows(arr)})
    with pytest.raises(ValidationError) as plain:
        render_json_reference({"m": arr.tolist()})
    assert str(typed.value) == str(plain.value)
    row = np.random.default_rng(8).standard_normal(20_000).tolist()
    row[12_345] = bad
    with pytest.raises(ValidationError) as typed_row:
        render_json({"r": row})
    assert str(typed_row.value) == str(plain.value)
