"""Self-test of the output checker.

``corruptions`` damages one correct output in small ways (swap the best
index, drop a witness, perturb a score by 1e-6, ...); the checker must
count every damaged copy as a failure.  ``run.py`` applies it to the
first outputs of each run.

Run on its own, ``python3 perfbench/selftest.py`` (from the repository
root) builds a tiny input of 4 models x 64 points, runs every CLI command
on it, checks that the real outputs pass and that every corruption of
them fails, and exits 0 only if both hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import gen
import oracle


def _scaled(value, factor=1.0 + 1e-6):
    return value * factor


def corruptions(kind, text):
    """(label, corrupted payload) pairs for one correct JSON payload of ``kind``."""
    payload = json.loads(text)
    out = []

    def variant(label, change):
        damaged = json.loads(text)
        if change(damaged) is not False:
            out.append((label, damaged))

    if kind in ("diagnose", "report"):
        m = len(payload["model_names"])

        def swap_best(p):
            p["best"]["index"] = (p["best"]["index"] + 1) % m

        def drop_witness(p):
            for name in ("result3", "result1", "result2"):
                if p[name] and p[name]["witnesses"]:
                    p[name]["witnesses"].pop(0)
                    return True
            return False

        def perturb_score(p):
            p["ensemble_score"] = _scaled(p["ensemble_score"])

        def perturb_member(p):
            p["per_model_scores"][-1] = _scaled(p["per_model_scores"][-1])

        def perturb_corr(p):
            p["correspondence"][0][-1] = _scaled(p["correspondence"][0][-1])

        if m >= 2:
            variant("swap best index", swap_best)
        variant("drop a witness", drop_witness)
        variant("perturb ensemble score by 1e-6", perturb_score)
        variant("perturb a model score by 1e-6", perturb_member)
        variant("perturb a correspondence by 1e-6", perturb_corr)
    elif kind == "optimize":
        def perturb_score(p):
            p["score"] = _scaled(p["score"])

        def off_simplex(p):
            p["weights"][0] += 1e-6

        variant("perturb score by 1e-6", perturb_score)
        variant("move weights off the simplex", off_simplex)
    elif kind == "select":
        def swap_kept(p):
            dropped = p["dropped"][0]
            index = dropped["index"] if isinstance(dropped, dict) else dropped
            p["kept"] = sorted(p["kept"][1:] + [index])

        def perturb_objective(p):
            p["objective_value"] = _scaled(p["objective_value"])

        if payload["dropped"]:
            variant("swap a kept model", swap_kept)
        variant("perturb objective by 1e-6", perturb_objective)
    elif kind == "sweep":
        m = len(payload["weights_used"])

        def swap_best(p):
            p["rows"][0]["best_model_index"] = (p["rows"][0]["best_model_index"] + 1) % m

        def perturb_score(p):
            p["rows"][-1]["s_sq"] = _scaled(p["rows"][-1]["s_sq"])

        def flip_wins(p):
            p["rows"][-1]["average_wins"] = not p["rows"][-1]["average_wins"]

        variant("swap a row's best index", swap_best)
        variant("perturb a row's score by 1e-6", perturb_score)
        variant("flip a row's average_wins", flip_wins)
    return out


def corrupted_texts(key, text):
    """Corrupted copies of one output text, in the form ``Checker.check_text`` reads."""
    kind, _, index = key.partition(":")
    obj = json.loads(text)
    if kind == "reject":
        code, out, err = obj
        return [
            ("exit 0 on a malformed cell", json.dumps([0, out, err])),
            ("two stderr lines", json.dumps([code, out, err + "error: again\n"])),
        ]
    if index:
        return [(label, json.dumps(p)) for label, p in corruptions(kind, text)]
    code, out, err = obj
    return [
        (label, json.dumps([code, json.dumps(p), err]))
        for label, p in corruptions(kind, out)
    ]


def undetected(checker, key, text):
    """Labels of the corruptions of a correct output that the checker missed."""
    missed = []
    for label, damaged in corrupted_texts(key, text):
        try:
            caught = bool(checker.check_text(key, damaged))
        except (KeyError, TypeError, ValueError, IndexError, AttributeError):
            caught = True
        if not caught:
            missed.append(f"{key}: {label}")
    return missed


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "ensdiag" / "__init__.py").is_file():
        print("selftest.py: run from the repository root (src/ensdiag not found)", file=sys.stderr)
        return 2
    rng = gen.rng_for("selftest", 0)
    times, values = gen.truth(64, rng)
    outputs = values + gen.mixed_ensemble(4, 64, rng)
    text = gen.csv_text(times, values, outputs)
    bad, row, column = gen.malformed_copy(text)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    names = [gen.model_names(4)]
    checker = oracle.Checker([(times, values, outputs)], names, k=2, window=8, stride=4,
                             reject_at=(row, column))
    failures = []
    scratch = root / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        good_csv, bad_csv = Path(tmp, "tiny.csv"), Path(tmp, "bad.csv")
        good_csv.write_text(text)
        bad_csv.write_text(bad)
        commands = {
            "diagnose": ["diagnose", "--input", str(good_csv)],
            "optimize": ["optimize", "--input", str(good_csv)],
            "select": ["select", "--input", str(good_csv), "--mode", "anticorr", "--k", "2"],
            "sweep": ["sweep", "--input", str(good_csv), "--window", "8", "--stride", "4"],
            "reject": ["diagnose", "--input", str(bad_csv)],
        }
        for kind, argv in commands.items():
            proc = subprocess.run(
                [sys.executable, "-m", "ensdiag.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60, check=False,
            )
            result = json.dumps([proc.returncode, proc.stdout, proc.stderr])
            fails = checker.check_text(kind, result)
            failures += [f"{kind}: {f}" for f in fails]
            missed = undetected(checker, kind, result)
            failures += [f"corruption not detected: {m}" for m in missed]
            print(f"{kind:9s} output {'ok' if not fails else 'FAILED'}; "
                  f"{len(corrupted_texts(kind, result)) - len(missed)} of "
                  f"{len(corrupted_texts(kind, result))} corruptions detected")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "passed" if not failures else "FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
