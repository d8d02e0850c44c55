"""Numpy oracle and output checker for the benchmark.

This module never imports ensdiag.  It recomputes every reported
quantity from the generated arrays and compares:

* floats agree within ``REL`` relative to their value, plus the rounding
  allowance of the sums they come from (``rounding(n)`` times the
  magnitude of the summed terms, e.g. ``sqrt(S_i S_j)`` for a
  correspondence entry), so last-bit changes such as a different BLAS
  thread count never count as failures, while a value that cancels to far
  below its terms is still checked to 1e-9 of itself;
* discrete fields (best index, perfect models, verdict booleans and
  witnesses, regime, kept subset, sweep rows) match exactly, except
  where a comparison lies within ``REL`` of a tie, where either outcome
  is accepted.

Each ``check_*`` function returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REL = 1e-9
EPS = float(np.finfo(np.float64).eps)

# Documented constants of the program under test, restated as the contract.
EXHAUSTIVE_LIMIT = 10_000
ACTIVE_SUPPORT_TOL = 1e-10
TIGHT_COSINE_TOL = 1e-9
SCHEMA_VERSION = "1"

def rounding(n: int) -> float:
    """Relative rounding allowance of an n-term float64 sum (4 sqrt(n) eps)."""
    return 4.0 * math.sqrt(max(n, 1)) * EPS


TRUE, FALSE, EITHER = frozenset({True}), frozenset({False}), frozenset({True, False})


def tri(margin, tol):
    """Possible truth values of ``margin > 0`` when ``margin`` is known to ``tol``."""
    if margin > tol:
        return TRUE
    if margin < -tol:
        return FALSE
    return EITHER


def tri_all(margins, tol):
    """Possible truth values of ``all(margins > 0)``, element-wise ``tol``."""
    margins = np.asarray(margins, dtype=np.float64)
    tol = np.broadcast_to(tol, margins.shape)
    if margins.size == 0 or bool(np.all(margins > tol)):
        return TRUE
    if bool(np.any(margins < -tol)):
        return FALSE
    return EITHER


class Failures(list):
    def close(self, what, actual, expected, atol=0.0):
        """``|actual - expected| <= REL |expected| + atol``."""
        try:
            actual = float(actual)
        except (TypeError, ValueError):
            self.append(f"{what}: {actual!r} is not a number")
            return
        if not abs(actual - expected) <= REL * abs(expected) + atol:
            self.append(f"{what}: {actual!r} != oracle {expected!r}")

    def allclose(self, what, actual, expected, atol=0.0):
        """Element-wise ``close``; ``atol`` may be an array."""
        try:
            actual = np.asarray(actual, dtype=np.float64)
        except (TypeError, ValueError):
            self.append(f"{what}: not a numeric array")
            return
        if actual.shape != expected.shape:
            self.append(f"{what}: shape {actual.shape} != {expected.shape}")
            return
        bad = ~(np.abs(actual - expected) <= REL * np.abs(expected) + atol)
        if bad.any():
            at = tuple(int(i) for i in np.argwhere(bad)[0])
            self.append(f"{what}{list(at)}: {actual[at]!r} != oracle {expected[at]!r}")

    def member(self, what, actual, allowed):
        if actual not in allowed:
            self.append(f"{what}: {actual!r} not in {sorted(allowed, key=repr)!r}")

    def equal(self, what, actual, expected):
        if actual != expected:
            self.append(f"{what}: {actual!r} != {expected!r}")


class Geometry:
    """Scores, correspondences and cosines of one residual matrix."""

    def __init__(self, z: np.ndarray):
        self.z = z
        self.m, self.t = z.shape
        self.gram = (z @ z.T) / self.t
        self.scores = np.einsum("mt,mt->m", z, z) / self.t
        self.norms = np.sqrt(self.scores)
        self.pair_scale = np.outer(self.norms, self.norms)
        self.perfect = [int(i) for i in np.flatnonzero(self.scores == 0.0)]
        self.s_min = float(self.scores.min())
        self.best = near_minima(self.scores)
        self.cos = None if self.perfect else self.gram / self.pair_scale
        self.iu = np.triu_indices(self.m, k=1)

    def quad(self, w):
        """``w.G.w`` and ``w.|G|.w``, the magnitude of its terms."""
        return float(w @ self.gram @ w), float(w @ np.abs(self.gram) @ w)


def near_minima(values) -> set[int]:
    """Indices whose value ties the minimum within REL."""
    values = np.asarray(values, dtype=np.float64)
    low = float(values.min())
    return {int(i) for i in np.flatnonzero(values - low <= REL * max(abs(low), 1e-300))}


def _check_witnesses(fails, what, listed, margins, tol, m):
    """Witnesses are the pairs with ``margin < 0``; near-zero margins may go either way.

    ``margins`` and ``tol`` run over the pairs ``i < j`` in ``np.triu_indices`` order.
    """
    try:
        pairs = np.array(listed, dtype=np.int64).reshape(-1, 2)
    except (TypeError, ValueError):
        fails.append(f"{what}: not a list of index pairs")
        return
    i, j = pairs.T
    if np.any(i < 0) or np.any(i >= j) or np.any(j >= m):
        fails.append(f"{what}: pairs must satisfy 0 <= i < j < {m}")
        return
    flat = i * m + j
    if np.any(np.diff(flat) <= 0):
        fails.append(f"{what}: pairs not sorted and unique")
    rows, cols = np.triu_indices(m, k=1)
    got = np.isin(rows * m + cols, flat)
    must = margins < -tol
    may = must | (np.abs(margins) <= tol)
    if np.any(must & ~got):
        at = int(np.argmax(must & ~got))
        fails.append(f"{what}: {int(np.sum(must & ~got))} witness pair(s) missing, e.g. {(int(rows[at]), int(cols[at]))}")
    if np.any(got & ~may):
        at = int(np.argmax(got & ~may))
        fails.append(f"{what}: {int(np.sum(got & ~may))} pair(s) are not witnesses, e.g. {(int(rows[at]), int(cols[at]))}")


def _check_verdict(fails, name, verdict, geo, s_sq, s_sq_scale, margins, tol, necessary):
    if not isinstance(verdict, dict):
        fails.append(f"{name}: missing")
        return
    _check_witnesses(fails, f"{name}.witnesses", verdict.get("witnesses"), margins, tol, geo.m)
    has_witness = bool(verdict.get("witnesses"))
    band = REL * max(s_sq, geo.s_min) + rounding(geo.t) * s_sq_scale
    avg_wins = tri(geo.s_min - s_sq, band)
    if necessary:  # result3: hypothesis "average wins", conclusion "a witness exists"
        fails.member(f"{name}.hypothesis_holds", verdict.get("hypothesis_holds"), avg_wins)
        fails.equal(f"{name}.conclusion_holds", verdict.get("conclusion_holds"), has_witness)
    else:  # result1/2: hypothesis "no witness", conclusion "best member wins"
        best_wins = tri(s_sq - geo.s_min, band)
        fails.equal(f"{name}.hypothesis_holds", verdict.get("hypothesis_holds"), not has_witness)
        fails.member(f"{name}.conclusion_holds", verdict.get("conclusion_holds"), best_wins)
    fails.close(f"{name}.s_min_sq", verdict.get("s_min_sq"), geo.s_min)
    fails.close(f"{name}.s_sq", verdict.get("s_sq"), s_sq, rounding(geo.t) * s_sq_scale)
    fails.member(f"{name}.best_model_index", verdict.get("best_model_index"), geo.best)


def _possible_regimes(geo, tol_equal, tol_cos) -> set[str]:
    s_min = geo.s_min
    upper_cos = geo.cos[geo.iu]
    equally_good = tri(tol_equal - (float(geo.scores.max()) / s_min - 1.0), REL)
    low_corr = tri_all(tol_cos - upper_cos, REL)
    first = {a and b for a in equally_good for b in low_corr}
    out = {"EquallyGoodLowCorrespondence"} if True in first else set()
    if False not in first:
        return out
    rows, cols = geo.iu
    for best in geo.best:
        others = np.delete(geo.scores, best)
        dominant = tri(tol_equal * float(others.min()) - s_min, REL * s_min)
        keep = (rows != best) & (cols != best)
        positive = tri_all(upper_cos[keep], REL)
        for a in dominant:
            for b in positive:
                out.add("DominantBestPositiveCorrespondence" if a and b else "Neither")
    return out


def check_report(rep, geo: Geometry, weights, names, times, settings) -> Failures:
    """A ``diagnose`` report (CLI stdout or ``emit_report`` text, parsed)."""
    fails = Failures()
    if not isinstance(rep, dict):
        fails.append("report is not a JSON object")
        return fails
    m = geo.m
    fails.equal("schema_version", rep.get("schema_version"), SCHEMA_VERSION)
    fails.equal(
        "interval",
        rep.get("interval"),
        {"start": int(times[0]), "end": int(times[-1]), "n_points": geo.t},
    )
    fails.equal("model_names", rep.get("model_names"), list(names))
    weights = np.asarray(weights, dtype=np.float64)
    fails.allclose("weights_used", rep.get("weights_used"), weights, rounding(m))
    fails.allclose("per_model_scores", rep.get("per_model_scores"), geo.scores)
    fails.allclose("correspondence", rep.get("correspondence"), geo.gram, rounding(geo.t) * geo.pair_scale)
    fails.equal("perfect_models", rep.get("perfect_models"), geo.perfect)
    if geo.perfect:
        fails.equal("cosines", rep.get("cosines"), None)
    else:
        fails.allclose("cosines", rep.get("cosines"), np.clip(geo.cos, -1.0, 1.0), REL)
        if rep.get("cosines") is not None and np.asarray(rep["cosines"]).shape == (m, m):
            if not np.all(np.diagonal(np.asarray(rep["cosines"], dtype=np.float64)) == 1.0):
                fails.append("cosines: diagonal is not exactly 1")

    zbar = weights @ geo.z
    s_sq = float(zbar @ zbar) / geo.t
    upper = float(weights @ geo.norms) ** 2
    fails.close("ensemble_score", rep.get("ensemble_score"), s_sq, rounding(geo.t) * upper)
    best = rep.get("best") or {}
    fails.member("best.index", best.get("index"), geo.best)
    if best.get("index") in geo.best:
        fails.equal("best.name", best.get("name"), names[best["index"]])
    fails.close("best.s_min_sq", best.get("s_min_sq"), geo.s_min)

    angles = m >= 2 and not geo.perfect
    if m >= 2:
        margins = geo.gram[geo.iu] - geo.s_min
        tol = REL * geo.pair_scale[geo.iu]
        _check_verdict(fails, "result1", rep.get("result1"), geo, s_sq, upper, margins, tol, False)
    else:
        fails.equal("result1", rep.get("result1"), None)
    if angles:
        margins = geo.cos[geo.iu] - geo.s_min / geo.pair_scale[geo.iu]
        _check_verdict(fails, "result2", rep.get("result2"), geo, s_sq, upper, margins, REL, False)
        _check_verdict(fails, "result3", rep.get("result3"), geo, s_sq, upper, margins, REL, True)
        fails.member(
            "regime",
            rep.get("regime"),
            _possible_regimes(geo, settings["tol_equal"], settings["tol_cos"]),
        )
    else:
        for key in ("result2", "result3", "regime"):
            fails.equal(key, rep.get(key), None)

    bounds = rep.get("bounds") or {}
    fails.equal("bounds.lower", bounds.get("lower"), 0.0)
    fails.close("bounds.upper", bounds.get("upper"), upper)
    fails.close("bounds.actual", bounds.get("actual"), s_sq, rounding(geo.t) * upper)
    live = np.flatnonzero(geo.scores > 0.0)
    if live.size > 1:
        sub = geo.gram[np.ix_(live, live)] / geo.pair_scale[np.ix_(live, live)]
        tight = tri_all(sub[np.triu_indices(live.size, k=1)] - (1.0 - TIGHT_COSINE_TOL), REL)
    else:
        tight = TRUE
    fails.member("bounds.upper_tight", bounds.get("upper_tight"), tight)
    fails.equal("settings", rep.get("settings"), settings)
    return fails


def check_optimize(out, geo: Geometry, settings=None):
    """An ``optimize`` payload: the simplex contract the optimizer documents.

    Returns ``(failures, converged, fw_gap_rel)``.  ``converged=false`` is
    not a failure.  ``fw_gap_rel`` is the Frank-Wolfe gap
    ``g.w - min g`` with ``g = 2Gw``, relative to the score.
    """
    fails = Failures()
    try:
        w = np.asarray(out["weights"], dtype=np.float64)
        score = float(out["score"])
    except (KeyError, TypeError, ValueError):
        fails.append("optimize: missing or non-numeric weights/score")
        return fails, True, 0.0
    if w.shape != (geo.m,):
        fails.append(f"weights: shape {w.shape} != ({geo.m},)")
        return fails, True, 0.0
    if np.any(w < 0.0) or not abs(float(w.sum()) - 1.0) <= REL:
        fails.append(f"weights: off the simplex (min {w.min()!r}, sum {w.sum()!r})")
    allowance = rounding(geo.t + geo.m)
    value, scale = geo.quad(w)
    fails.close("score", score, value, allowance * scale)
    uniform = np.full(geo.m, 1.0 / geo.m)
    u_value, u_scale = geo.quad(uniform)
    if score > geo.s_min + REL * geo.s_min:
        fails.append(f"score {score!r} exceeds the best vertex {geo.s_min!r}")
    if score > u_value + REL * u_value + allowance * u_scale:
        fails.append(f"score {score!r} exceeds the uniform start {u_value!r}")
    support = [int(i) for i in np.flatnonzero(w > ACTIVE_SUPPORT_TOL)]
    fails.equal("active_support", out.get("active_support"), support)
    iterations = out.get("iterations")
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 0:
        fails.append(f"iterations: {iterations!r}")
    converged = out.get("converged")
    if not isinstance(converged, bool):
        fails.append(f"converged: {converged!r}")
    if settings is not None:
        fails.equal("schema_version", out.get("schema_version"), SCHEMA_VERSION)
        fails.equal("settings", out.get("settings"), settings)
    g = 2.0 * (geo.gram @ w)
    gap = float(g @ w - g.min())
    return fails, converged is not False, (gap / value if value > 0.0 else 0.0)


def _cross_sums(gram, subsets: np.ndarray) -> np.ndarray:
    total = np.zeros(subsets.shape[0])
    for a, b in combinations(range(subsets.shape[1]), 2):
        total += 2.0 * gram[subsets[:, a], subsets[:, b]]
    return total


def acceptable_subsets(gram: np.ndarray, k: int) -> tuple[str, set[tuple[int, ...]]]:
    """The method the selector must use and every subset it may return.

    Exhaustive search must return a subset whose objective ties the
    minimum; greedy forward selection may branch only where candidates
    tie within REL.
    """
    m = gram.shape[0]
    scale = float(np.abs(gram).max())
    if math.comb(m, k) <= EXHAUSTIVE_LIMIT:
        subsets = np.array(list(combinations(range(m), k)))
        values = _cross_sums(gram, subsets)
        ok = values - values.min() <= REL * k * k * scale
        return "exhaustive", {tuple(int(i) for i in s) for s in subsets[ok]}
    rows, cols = np.triu_indices(m, k=1)
    pair_values = gram[rows, cols]
    near = pair_values - pair_values.min() <= REL * scale
    frontier = [[int(i), int(j)] for i, j in zip(rows[near], cols[near])]
    while len(frontier[0]) < k:
        grown = []
        for chosen in frontier:
            gains = gram[chosen].sum(axis=0)
            gains[chosen] = np.inf
            near = np.flatnonzero(gains - gains.min() <= REL * len(chosen) * scale)
            grown.extend(chosen + [int(c)] for c in near)
        frontier = grown
    return "greedy", {tuple(sorted(s)) for s in frontier}


def check_anticorr(kept, dropped, criterion, objective, gram, k, n_points, expected=None) -> Failures:
    """An ``anti_correlated_subset`` result; ``expected`` may carry a
    precomputed ``acceptable_subsets`` answer."""
    fails = Failures()
    m = gram.shape[0]
    method, allowed = expected or acceptable_subsets(gram, k)
    fails.equal("criterion", criterion, f"anticorr-{method}")
    try:
        kept = tuple(int(i) for i in kept)
        dropped = tuple(int(i) for i in dropped)
    except (TypeError, ValueError):
        fails.append("kept/dropped: not index lists")
        return fails
    fails.member("kept", kept, allowed)
    fails.equal("dropped", dropped, tuple(i for i in range(m) if i not in kept))
    if len(kept) == k and all(0 <= i < m for i in kept):
        block = gram[np.ix_(kept, kept)]
        value = float(block.sum() - np.trace(block)) / (k * k)
        norms = np.sqrt(np.diagonal(block))
        magnitude = float(norms.sum() ** 2 - np.trace(block)) / (k * k)
        fails.close("objective_value", objective, value, rounding(n_points) * magnitude)
    return fails


def check_select_cli(out, gram, k, n_points, expected=None) -> Failures:
    """``select --mode anticorr`` stdout, parsed."""
    if not isinstance(out, dict):
        return Failures(["select output is not a JSON object"])
    dropped = out.get("dropped") or []
    fails = check_anticorr(
        out.get("kept", ()),
        [d.get("index") if isinstance(d, dict) else None for d in dropped],
        out.get("criterion"),
        out.get("objective_value"),
        gram,
        k,
        n_points,
        expected,
    )
    fails.equal("schema_version", out.get("schema_version"), SCHEMA_VERSION)
    if any(not isinstance(d, dict) or d.get("ratio") is not None for d in dropped):
        fails.append("dropped: ratios must be null in anticorr mode")
    fails.equal("ratios", out.get("ratios"), None)
    fails.equal("settings", out.get("settings"), {"mode": "anticorr", "threshold": None, "k": k})
    return fails


def check_sweep(out, z, times, window, stride, weights) -> Failures:
    """``sweep`` stdout, parsed: one row per window position."""
    fails = Failures()
    if not isinstance(out, dict) or not isinstance(out.get("rows"), list):
        fails.append("sweep output has no rows")
        return fails
    fails.equal("schema_version", out.get("schema_version"), SCHEMA_VERSION)
    fails.equal("window", out.get("window"), window)
    fails.equal("stride", out.get("stride"), stride)
    fails.equal("weights_mode", out.get("weights_mode"), "uniform")
    fails.allclose("weights_used", out.get("weights_used"), weights, rounding(z.shape[0]))
    starts = np.arange(0, z.shape[1] - window + 1, stride)
    scores = sliding_window_view(z * z, window, axis=1)[:, starts].sum(axis=-1) / window
    zbar = weights @ z
    s_sq = sliding_window_view(zbar * zbar, window)[starts].sum(axis=-1) / window
    upper = (weights @ np.sqrt(scores)) ** 2
    s_min = scores.min(axis=0)
    rows = out["rows"]
    if len(rows) != starts.size:
        fails.append(f"rows: {len(rows)} != {starts.size} windows")
        return fails
    try:
        got = {
            key: np.array([row[key] for row in rows])
            for key in ("window_start", "window_end", "best_model_index", "s_min_sq", "s_sq", "average_wins")
        }
    except (KeyError, TypeError):
        fails.append("rows: missing fields")
        return fails
    if not np.array_equal(got["window_start"], times[starts]) or not np.array_equal(
        got["window_end"], times[starts + window - 1]
    ):
        fails.append("rows: window bounds differ from the window positions")
    fails.allclose("rows.s_min_sq", got["s_min_sq"], s_min)
    fails.allclose("rows.s_sq", got["s_sq"], s_sq, rounding(window) * upper)
    best = got["best_model_index"].astype(np.int64)
    in_range = (best >= 0) & (best < z.shape[0])
    best_score = scores[np.where(in_range, best, 0), np.arange(starts.size)]
    bad_best = ~in_range | (best_score - s_min > REL * s_min)
    if bad_best.any():
        fails.append(f"rows.best_model_index: wrong at row {int(np.argmax(bad_best))}")
    margin = s_min - s_sq
    tol = REL * np.maximum(upper, s_min)
    wins = got["average_wins"]
    if wins.dtype != bool:
        fails.append("rows.average_wins: not all booleans")
        return fails
    bad_wins = ((margin > tol) & ~wins) | ((margin < -tol) & wins)
    if np.any(bad_wins):
        fails.append(f"rows.average_wins: wrong at row {int(np.argmax(bad_wins))}")
    return fails


def check_reject(code, stdout, stderr, row, column) -> Failures:
    """The malformed copy must exit 1 with one stderr line naming the cell."""
    fails = Failures()
    fails.equal("exit code", code, 1)
    fails.equal("stdout", stdout, "")
    if stderr.count("\n") != 1 or not stderr.endswith("\n"):
        fails.append(f"stderr: expected exactly one line, got {stderr!r:.200}")
    elif not stderr.startswith("error: ") or f"row {row}, column {column}" not in stderr:
        fails.append(f"stderr: does not name row {row}, column {column}: {stderr!r:.200}")
    return fails


#: Report settings as the CLI's ``diagnose`` records them by default.
CLI_REPORT_SETTINGS = {
    "tol_equal": 0.05,
    "tol_cos": 0.1,
    "weights_mode": "uniform",
    "opt_max_iter": None,
    "opt_tol": None,
}
OPT_SETTINGS = {"opt_max_iter": 10_000, "opt_tol": 1e-12}


class Checker:
    """Checks every output of one workload against the oracle.

    ``inputs`` is a list of (times, values, outputs) arrays.  Output keys
    are ``<kind>`` for CLI commands (text ``[exit code, stdout, stderr]``)
    and ``<kind>:<input index>`` for library calls (JSON text).
    ``report_settings`` is what a report must record; when its
    ``weights_mode`` is ``"optimal"`` the report's weights must be those of
    an ``optimize`` output for the same input.
    """

    def __init__(self, inputs, names, *, k=None, window=None, stride=None,
                 reject_at=None, report_settings=CLI_REPORT_SETTINGS):
        self.inputs = inputs
        self.names = names
        self.k, self.window, self.stride = k, window, stride
        self.reject_at = reject_at
        self.report_settings = report_settings
        self.geo = [Geometry(outputs - values) for _, values, outputs in inputs]
        self.fitted: dict[int, list] = {}
        self.optimize_info: list[tuple[bool, float]] = []
        self._subsets = {}

    def check_text(self, key: str, text: str) -> list[str]:
        kind, _, index = key.partition(":")
        try:
            obj = json.loads(text)
        except ValueError:
            return [f"{key}: output is not JSON"]
        if index:
            return self.check_payload(kind, int(index), obj)
        code, out, err = obj
        if kind == "reject":
            return check_reject(code, out, err, *self.reject_at)
        fails = [] if code == 0 and err == "" else [f"{kind}: exit {code}, stderr {err!r:.200}"]
        try:
            payload = json.loads(out)
        except ValueError:
            return fails + [f"{kind}: stdout is not JSON"]
        return fails + self.check_payload(kind, 0, payload, cli=True)

    def check_payload(self, kind, index, payload, cli=False) -> list[str]:
        geo = self.geo[index]
        times = self.inputs[index][0]
        if kind in ("diagnose", "report"):
            settings = self.report_settings
            if settings["weights_mode"] == "optimal":
                fitted = self.fitted.get(index, [])
                used = payload.get("weights_used") if isinstance(payload, dict) else None
                if used not in fitted:
                    return [f"report:{index}: weights_used are not the optimizer's weights"]
                weights = used
            else:
                weights = np.full(geo.m, 1.0 / geo.m)
            return check_report(payload, geo, weights, self.names[index], times, settings)
        if kind == "optimize":
            fails, converged, gap = check_optimize(payload, geo, OPT_SETTINGS if cli else None)
            if not fails:
                self.fitted.setdefault(index, []).append(payload["weights"])
                self.optimize_info.append((converged, gap))
            return fails
        if kind == "select":
            if index not in self._subsets:
                self._subsets[index] = acceptable_subsets(geo.gram, self.k)
            expected = self._subsets[index]
            if cli:
                return check_select_cli(payload, geo.gram, self.k, geo.t, expected)
            return check_anticorr(
                payload.get("kept", ()), payload.get("dropped", ()), payload.get("criterion"),
                payload.get("objective_value"), geo.gram, self.k, geo.t, expected,
            )
        if kind == "sweep":
            return check_sweep(payload, geo.z, times, self.window, self.stride,
                               np.full(geo.m, 1.0 / geo.m))
        return [f"unknown output kind {kind!r}"]
