"""Acceptance gate: each criterion runs at its stated tolerance.

Every test prints one ``criterion N PASS`` line on success (visible with
``pytest -s`` or in captured output); a failed assertion fails the test
and suppresses the line.  Criteria 1-4 share one frozen randomized
population of 10,000 ensembles.
"""

import io
import json
import time

import numpy as np
import pytest

from ensdiag import (
    ResidualSet,
    check_result1,
    check_result2,
    check_result3,
    correspondence_matrix,
    emit_report,
    ensemble_score,
    format_ensemble_csv,
    model_score,
    model_scores,
    optimal_weights,
    parse_ensemble_csv,
    parse_report,
    schwartz_bounds,
    uniform_weights,
)
from ensdiag.cli import run_command
from helpers import (
    expansion_oracle,
    grid_minimum,
    random_residual_set,
    random_weights,
)

POPULATION_SEED = 20260811
POPULATION_SIZE = 10_000


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(POPULATION_SEED)
    instances = []
    for _ in range(POPULATION_SIZE):
        rs = random_residual_set(rng, m_range=(2, 8), t_range=(2, 64))
        instances.append((rs, random_weights(rng, rs.n_models)))
    return instances


def test_criterion_1_result1_theorem(population):
    held = 0
    for rs, w in population:
        verdict = check_result1(rs, w)
        if verdict.hypothesis_holds:
            held += 1
            assert verdict.conclusion_holds, "hypothesis held but average won"
    print(
        f"criterion 1 PASS: best-member sufficiency held with zero violations "
        f"(hypothesis met on {held}/{POPULATION_SIZE} instances)"
    )


def test_criterion_2_result3_theorem(population):
    wins = 0
    for rs, w in population:
        verdict = check_result3(rs, w)
        if verdict.hypothesis_holds:
            wins += 1
            assert verdict.witnesses, "average won without an anti-collinear pair"
    print(
        f"criterion 2 PASS: every average win had an anti-collinear witness "
        f"({wins}/{POPULATION_SIZE} wins)"
    )


def test_criterion_3_bounds_and_sharpness(population):
    for rs, w in population:
        bounds = schwartz_bounds(rs, w)
        assert bounds.actual >= 0.0
        assert bounds.actual <= bounds.upper * (1.0 + 1e-10)
    rng = np.random.default_rng(POPULATION_SEED + 1)
    worst = 0.0
    for _ in range(500):
        t = int(rng.integers(2, 65))
        m = int(rng.integers(2, 9))
        base = rng.uniform(-10.0, 10.0, size=t)
        factors = rng.uniform(0.1, 10.0, size=m)
        rs = ResidualSet(np.outer(factors, base))
        w = random_weights(rng, m)
        bounds = schwartz_bounds(rs, w)
        assert bounds.actual == pytest.approx(bounds.upper, rel=1e-10)
        assert bounds.upper_tight
        worst = max(worst, abs(bounds.actual - bounds.upper) / bounds.upper)
    print(
        f"criterion 3 PASS: bounds held on {POPULATION_SIZE} instances; "
        f"sharpness within {worst:.2e} relative on 500 collinear ensembles"
    )


def test_criterion_4_expansion_identity(population):
    min_score = np.inf
    for rs, w in population:
        direct = ensemble_score(rs, w)
        expanded = expansion_oracle(rs, w.weights)
        assert abs(direct - expanded) <= 1e-10 * max(abs(direct), abs(expanded))
        entries = correspondence_matrix(rs).entries
        quadratic = float(w.weights @ entries @ w.weights)
        assert abs(direct - quadratic) <= 1e-10 * max(abs(direct), abs(quadratic))
        min_score = min(min_score, direct)
    print(
        f"criterion 4 PASS: direct, expanded, and quadratic-form scores agree "
        f"to 1e-10 relative (smallest score seen {min_score:.3e})"
    )


def test_criterion_5_figure_scenario_fixtures():
    collinear = ResidualSet([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
    s_sq = ensemble_score(collinear, uniform_weights(3))
    s_min_sq = float(model_scores(collinear).min())
    assert s_sq >= s_min_sq - 1e-12
    assert s_sq == 4.0 and s_min_sq == 1.0

    opposing = ResidualSet([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
    s_sq2 = ensemble_score(opposing, uniform_weights(2))
    s_min_sq2 = float(model_scores(opposing).min())
    assert s_sq2 <= s_min_sq2 + 1e-12
    assert s_sq2 == 0.0 and s_min_sq2 == 1.0
    print(
        "criterion 5 PASS: collinear fixture has the average losing "
        f"({s_sq} >= {s_min_sq}); opposing fixture has it winning "
        f"({s_sq2} <= {s_min_sq2})"
    )


def test_criterion_6_optimizer_matches_grid_oracle():
    rng = np.random.default_rng(POPULATION_SEED + 2)
    started = time.monotonic()
    worst_gap = -np.inf
    for _ in range(200):
        rs = random_residual_set(rng, m_range=(1, 3), t_range=(2, 64))
        outcome = optimal_weights(rs)
        gram = correspondence_matrix(rs).entries
        grid = grid_minimum(gram, 0.01)
        assert outcome.score <= grid + 1e-4
        s_min_sq = float(model_scores(rs).min())
        uniform_score = ensemble_score(rs, uniform_weights(rs.n_models))
        assert outcome.score <= min(s_min_sq, uniform_score) + 1e-9
        worst_gap = max(worst_gap, outcome.score - grid)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"optimizer suite took {elapsed:.2f}s"
    print(
        f"criterion 6 PASS: optimizer at most {max(worst_gap, 0.0):.2e} above the "
        f"grid oracle over 200 ensembles in {elapsed:.2f}s"
    )


def test_criterion_7_result1_result2_equivalence():
    rng = np.random.default_rng(POPULATION_SEED + 3)
    for _ in range(1000):
        rs = random_residual_set(rng, m_range=(2, 8), t_range=(2, 64))
        assert np.all(model_scores(rs) > 0.0)  # no perfect members
        w = random_weights(rng, rs.n_models)
        v1 = check_result1(rs, w)
        v2 = check_result2(rs, w)
        assert v1.hypothesis_holds == v2.hypothesis_holds
        assert v1.conclusion_holds == v2.conclusion_holds
    print(
        "criterion 7 PASS: correspondence and cosine forms agreed on all "
        "1000 instances"
    )


def test_criterion_8_disjoint_window_consistency():
    rng = np.random.default_rng(POPULATION_SEED + 4)
    for _ in range(100):
        window = int(rng.integers(1, 9))
        n_windows = int(rng.integers(1, 9))
        t = window * n_windows
        m = int(rng.integers(1, 6))
        rs = ResidualSet(rng.uniform(-10.0, 10.0, size=(m, t)))
        for row in range(m):
            whole = model_score(rs.residuals[row])
            windowed = [
                model_score(rs.residuals[row, s : s + window])
                for s in range(0, t, window)
            ]
            weighted_mean = sum(window / t * value for value in windowed)
            assert weighted_mean == pytest.approx(whole, rel=1e-10)
    print(
        "criterion 8 PASS: disjoint-window weighted means matched whole-interval "
        "scores to 1e-10 relative on 100 instances"
    )


def test_criterion_9_cli_round_trip(tmp_path):
    rng = np.random.default_rng(POPULATION_SEED + 5)
    lines = ["t,Y,m1,m2,m3"]
    for t in range(8):
        y, a, b, c = (float(v) for v in rng.uniform(-5.0, 5.0, size=4))
        lines.append(f"{t},{y!r},{a!r},{b!r},{c!r}")
    path = tmp_path / "fixture.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    outputs = []
    for _ in range(2):
        out = io.StringIO()
        code = run_command(["diagnose", "--input", str(path)], stdout=out)
        assert code == 0
        outputs.append(out.getvalue())
    assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8")

    report = parse_report(outputs[0])
    assert parse_report(emit_report(report)) == report

    obs, ens = parse_ensemble_csv(path.read_text(encoding="utf-8"))
    text = format_ensemble_csv(obs, ens)
    obs2, ens2 = parse_ensemble_csv(text)
    assert np.array_equal(obs2.values, obs.values)
    assert np.array_equal(obs2.times, obs.times)
    assert np.array_equal(ens2.outputs, ens.outputs)
    assert ens2.model_names == ens.model_names
    json.loads(outputs[0])  # emitted text is valid JSON
    print(
        "criterion 9 PASS: diagnose output byte-identical across runs; "
        "parse/emit round trips are identities"
    )
