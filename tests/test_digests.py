"""Pinned CLI outputs on a small dyadic CSV: a byte change of any command's
stdout fails here, by name.

Every value and every residual is a multiple of 2**-10 below 10 in
magnitude, so every product and every sum of products that forms the
scores and correspondences is exact, and so are uniform weights of 1/4:
the bytes are the same in any BLAS summation order and thread count.
``optimize`` and ``--weights optimal`` are left out: their LAPACK solves
may differ in the last bits from one build to another.
"""

import hashlib
import io

import numpy as np
import pytest

from ensdiag import ModelEnsemble, ObservationSeries, format_ensemble_csv
from ensdiag.cli import run_command
from helpers import dyadic_array


def _dyadic_csv() -> str:
    """Four members: a shared error with loadings 2, 1, 0 and -1, plus
    their own errors, so that some pairs correspond and some do not."""
    rng = np.random.default_rng(2531)
    t = 48
    observed = dyadic_array(rng, t, span=4096)
    errors = np.array([[2.0], [1.0], [0.0], [-1.0]]) * dyadic_array(rng, t, span=2048)
    outputs = observed + errors + dyadic_array(rng, (4, t), span=2048)
    ens = ModelEnsemble(("a", "b", "c", "d"), outputs)
    return format_ensemble_csv(ObservationSeries(np.arange(100, 100 + t), observed), ens)


@pytest.fixture
def dyadic_csv(tmp_path):
    path = tmp_path / "dyadic.csv"
    path.write_text(_dyadic_csv(), encoding="utf-8")
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


#: sha256 of the stdout of each command on the dyadic CSV.
PINNED = {
    ("diagnose",): "6b711ed36f1f3d78abbdb8cf78edb384f77941fea9bfabfdb265c11d030c0c2d",
    ("select", "--mode", "anticorr", "--k", "2"): (
        "8552de6286712f08900f81e4df443ab6d65b6d360e9a42ea1b08685e0a2485c3"
    ),
    ("sweep", "--window", "16", "--stride", "4"): (
        "fa8218bcbe325f57eecb5539391af074feaf3ad3e1ff3df5e8a793616adcde49"
    ),
}


@pytest.mark.parametrize("argv", PINNED, ids=[" ".join(argv) for argv in PINNED])
def test_stdout_digest_is_pinned(dyadic_csv, argv):
    code, out, err = _run([*argv, "--input", str(dyadic_csv)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


def test_the_residuals_are_dyadic_and_small():
    _, *rows = _dyadic_csv().splitlines()
    values = np.array([[float(cell) for cell in row.split(",")[1:]] for row in rows])
    residuals = values[:, 1:] - values[:, :1]
    for arr in (values, residuals):
        assert np.array_equal(arr * 1024, np.trunc(arr * 1024)) and np.abs(arr).max() < 10


def test_a_malformed_diagnose_is_pinned(tmp_path):
    text = _dyadic_csv().splitlines()
    cells = text[5].split(",")
    cells[3] = "1.0e"
    text[5] = ",".join(cells)
    path = tmp_path / "malformed.csv"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert _run(["diagnose", "--input", str(path)]) == (
        1,
        "",
        "error: row 6, column 4: invalid number '1.0e'\n",
    )
