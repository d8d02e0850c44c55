"""The shared residual geometry against the loop references it replaced."""

import ast
import importlib
import math
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import ensdiag.core
from ensdiag import (
    ModelEnsemble,
    ObservationSeries,
    ResidualSet,
    anti_correlated_subset,
    build_report,
    check_result1,
    check_result2,
    check_result3,
    classify_regime,
    correspondence_matrix,
    cosine_matrix,
    optimal_weights,
    prescreen,
    residuals,
    schwartz_bounds,
    sweep_best_model,
    uniform_weights,
)
from ensdiag.core import _pairs
from ensdiag.selection import _greedy_subset
from helpers import (
    greedy_subset_reference,
    random_weights,
    regime_reference,
    sweep_reference,
    upper_tight_reference,
    witnesses_reference,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _with_duplicates(rng, base, zero_rows=False):
    """``base`` rows plus repeated and, optionally, all-zero rows, shuffled."""
    extra = [base[rng.integers(0, len(base), size=int(rng.integers(0, 3)))]]
    if zero_rows and rng.random() < 0.5:
        extra.append(np.zeros((1, base.shape[1])))
    rows = np.vstack([base, *extra])
    return rows[rng.permutation(len(rows))]


def _residual_sets(seed, n=300, zero_rows=False, models=(2, 6)):
    """Small-integer residuals, so that correspondences tie exactly, with
    duplicate members, so that scores and cosines tie too; ``models`` is
    the range of distinct members."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.integers(*models))
        t = int(rng.integers(1, 9))
        base = rng.integers(-3, 4, size=(m, t)).astype(np.float64)
        yield rng, ResidualSet(_with_duplicates(rng, base, zero_rows))


def _tie_sets():
    """One and two members, with correspondences that tie S_min^2 exactly,
    a perfect member among them."""
    rng = np.random.default_rng(397)
    for rows in (
        [[1.0, 2.0]],
        [[0.0, 0.0]],
        [[1.0, 0.0], [1.0, 1.0]],  # R01 = R00 = S_min^2
        [[2.0, 0.0], [1.0, 1.0]],  # R01 = R11 = S_min^2, best member 1
        [[1.0, 2.0], [1.0, 2.0]],  # identical members
        [[0.0, 0.0], [1.0, 1.0]],  # R01 = S_min^2 = 0
    ):
        yield rng, ResidualSet(rows)


def test_pairs_are_the_upper_triangle_and_read_only():
    for m in (1, 2, 3, 200):
        rows, cols = _pairs(m)
        expected = np.triu_indices(m, 1)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
        assert _pairs(m)[0] is rows  # shared through the cache
        for index in (rows, cols):
            if index.size:
                with pytest.raises(ValueError, match="read-only"):
                    index[0] = 1


def test_witnesses_match_pair_loops():
    checked = 0
    for rng, rs in chain(_tie_sets(), _residual_sets(401)):
        w = random_weights(rng, rs.n_models)
        expected = witnesses_reference(rs)
        assert rs.witness_pairs == (expected[0], expected[2])
        if rs.n_models < 2 or np.any(np.sum(rs.residuals**2, axis=1) == 0.0):
            continue  # angle-based checks are undefined
        verdicts = (check_result1(rs, w), check_result2(rs, w), check_result3(rs, w))
        assert tuple(v.witnesses for v in verdicts) == expected
        checked += 1
    assert checked > 100


def test_upper_tight_matches_pair_loop():
    for rng, rs in chain(_tie_sets(), _residual_sets(409, zero_rows=True)):
        w = random_weights(rng, rs.n_models)
        assert schwartz_bounds(rs, w).upper_tight == upper_tight_reference(rs)


def test_upper_tight_on_collinear_members_matches_pair_loop():
    rng = np.random.default_rng(419)
    for _ in range(100):
        direction = rng.integers(-3, 4, size=int(rng.integers(1, 9))).astype(float)
        scales = rng.choice([0.0, 0.5, 1.0, 2.0, -1.0], size=int(rng.integers(2, 6)))
        rs = ResidualSet(np.outer(scales, direction))
        w = random_weights(rng, rs.n_models)
        assert schwartz_bounds(rs, w).upper_tight == upper_tight_reference(rs)


def test_regime_matches_pair_loops():
    seen = set()
    for rng, rs in chain(_tie_sets(), _residual_sets(421)):
        if rs.n_models < 2 or np.any(np.sum(rs.residuals**2, axis=1) == 0.0):
            continue
        tol_equal, tol_cos = rng.uniform(0.01, 0.99, size=2)
        regime = classify_regime(rs, tol_equal, tol_cos)
        assert regime == regime_reference(rs, tol_equal, tol_cos)
        seen.add(regime)
    assert len(seen) == 3


def test_greedy_subset_matches_pair_loop():
    # 12 to 40 members: steps that sum 9 or more, where the order of the sum matters
    wide = _residual_sets(433, n=20, models=(12, 39))
    for _, rs in chain(_residual_sets(431), wide):
        entries = correspondence_matrix(rs).entries
        for k in range(2, rs.n_models + 1):
            assert _greedy_subset(entries, k) == greedy_subset_reference(entries, k)


def _ensemble(rng, t):
    base = rng.normal(0.0, 1.0, size=(int(rng.integers(2, 5)), t))
    outputs = _with_duplicates(rng, base)
    obs = ObservationSeries(np.arange(t) + 100, rng.normal(0.0, 1.0, t))
    names = tuple(f"m{i}" for i in range(len(outputs)))
    return obs, ModelEnsemble(names, outputs + obs.values)


@pytest.mark.parametrize(
    "case, seed", [("window-1", 443), ("window-T", 449), ("stride>1", 457), ("any", 461)]
)
def test_sweep_matches_per_window_loop(case, seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        t = int(rng.integers(1, 60))
        window = {"window-1": 1, "window-T": t}.get(case, int(rng.integers(1, t + 1)))
        stride = int(rng.integers(2, 9)) if case == "stride>1" else int(rng.integers(1, 4))
        obs, ens = _ensemble(rng, t)
        w = random_weights(rng, ens.n_models)
        rows = sweep_best_model(obs, ens, window, stride, w)
        expected = sweep_reference(obs, ens, window, stride, w)
        assert len(rows) == len(expected)
        for row, ref in zip(rows, expected):
            assert (row.window_start, row.window_end) == (ref.window_start, ref.window_end)
            assert row.best_model_index == ref.best_model_index
            assert row.average_wins == ref.average_wins
            assert math.isclose(row.s_min_sq, ref.s_min_sq, rel_tol=1e-12)
            assert math.isclose(row.s_sq, ref.s_sq, rel_tol=1e-12)


def _count_gram_formations(monkeypatch):
    calls = []
    original = ensdiag.core._correspondence_entries

    def counted(rs):
        calls.append(rs.n_models)
        return original(rs)

    monkeypatch.setattr(ensdiag.core, "_correspondence_entries", counted)
    return calls


def test_build_report_forms_the_gram_once(monkeypatch):
    rng = np.random.default_rng(433)
    obs, ens = _ensemble(rng, 40)
    calls = _count_gram_formations(monkeypatch)
    report = build_report(obs, ens, uniform_weights(ens.n_models))
    assert report.result3 is not None and report.regime is not None
    assert len(calls) == 1


def test_sweep_forms_one_residual_set_and_one_gram(monkeypatch):
    rng = np.random.default_rng(439)
    obs, ens = _ensemble(rng, 40)
    calls = _count_gram_formations(monkeypatch)
    built = []
    post_init = ResidualSet.__post_init__

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ResidualSet, "__post_init__", counted_post_init)
    rows = sweep_best_model(obs, ens, 5, 1, uniform_weights(ens.n_models))
    assert len(rows) == 36
    assert len(built) == 1 and len(calls) == 1


def test_one_residual_set_forms_one_gram(monkeypatch):
    rng = np.random.default_rng(463)
    obs, ens = _ensemble(rng, 40)
    calls = _count_gram_formations(monkeypatch)
    rs = residuals(ens, obs)
    assert len(calls) == 1  # at construction
    w = uniform_weights(rs.n_models)
    optimal_weights(rs)
    anti_correlated_subset(rs, 2)
    check_result1(rs, w)
    check_result2(rs, w)
    check_result3(rs, w)
    schwartz_bounds(rs, w)
    classify_regime(rs)
    correspondence_matrix(rs)
    cosine_matrix(rs)
    prescreen(rs, obs, 1.0)
    assert len(calls) == 1


def test_perfbench_trace_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import TRACE_POINTS

    for module_name, attr, _, _ in TRACE_POINTS:
        module = importlib.import_module(f"ensdiag.{module_name}")
        assert callable(getattr(module, attr, None)), f"ensdiag.{module_name}.{attr}"


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names a module's imports bind that no expression reads and that its
    ``__all__`` does not list."""
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return bound - used


def test_every_unused_import_is_a_trace_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import TRACE_POINTS

    traced = {(module_name, attr) for module_name, attr, _, _ in TRACE_POINTS}
    for path in sorted(Path(ensdiag.core.__file__).parent.glob("*.py")):
        unused = {(path.stem, name) for name in _unused_imports(ast.parse(path.read_text()))}
        assert unused <= traced, f"{path.name}: unused imports {sorted(unused - traced)}"


def test_csv_ingest_stays_in_its_module():
    """Only ``ingest.py`` imports ``csv``, and of the package it imports
    ``core`` and ``errors`` alone."""
    for path in sorted(Path(ensdiag.core.__file__).parent.glob("*.py")):
        imported, package = set(), set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):  # relative: one of the package
                (package if node.level else imported).add((node.module or "").partition(".")[0])
        assert ("csv" in imported) == (path.name == "ingest.py"), path.name
        if path.name == "ingest.py":
            assert package == {"core", "errors"}


def _private_definitions(tree: ast.Module) -> set[str]:
    """The ``_name``s (not dunders) that a module's top level defines: its
    functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_module_name_is_read_in_the_package():
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(ensdiag.core.__file__).parent.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    for name, tree in trees.items():
        unread = _private_definitions(tree) - read
        assert not unread, f"{name}: private names never read {sorted(unread)}"
