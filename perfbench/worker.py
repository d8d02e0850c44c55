"""In-process runner: calls ensdiag's library, or ``ensdiag.cli.run_command``.

Run as ``python3 perfbench/worker.py JOB.json`` by ``run.py``, with
``src`` on ``PYTHONPATH``.  The job names the workload, seed, seconds and
whether to trace.  The worker rebuilds its inputs from the seed (or reads
the CSVs the parent wrote), runs whole rounds of the workload (a round of
each of its parts, see ``gen.WORKLOADS``) until the time is up, takes
set-up samples between operations when the job asks for them, and writes
timings, output digests, the first copy of each distinct output and, when
traced, every span to ``<job>.out.json``.

Tracing wraps the public functions that ``ensdiag.cli``, ``ensdiag.report``,
``ensdiag.diagnostics`` and ``ensdiag.evaluation`` bind (plus the Gram
formation that ``core``, ``weights`` and ``selection`` call), by replacing
those module attributes with timing wrappers.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen


def _size(args, out):
    return len(args[0])


def _out_len(args, out):
    return len(out)


def _gram_flops(args, out):
    """Computed flop count of one Gram formation, M^2 T."""
    return args[0].residuals.size * args[0].n_models


def _pairs(args, out):
    return args[0].n_models * (args[0].n_models - 1) // 2


def _iterations(args, out):
    return out.iterations


# (module, attribute, span name, value recorded with the span)
TRACE_POINTS = [
    ("cli", "parse_ensemble_csv", "report.parse", _size),
    ("cli", "build_report", "report.build", None),
    ("evaluation", "build_report", "report.build", None),
    ("cli", "emit_report", "report.emit", None),
    ("cli", "render_json", "report.render", _out_len),
    ("report", "render_json", "report.render", _out_len),
    ("cli", "residuals", "core.residuals", None),
    ("report", "residuals", "core.residuals", None),
    ("evaluation", "residuals", "core.residuals", None),
    ("core", "_correspondence_entries", "core.gram", _gram_flops),
    ("diagnostics", "_correspondence_entries", "core.gram", _gram_flops),
    ("weights", "_correspondence_entries", "core.gram", _gram_flops),
    ("selection", "_correspondence_entries", "core.gram", _gram_flops),
    ("report", "correspondence_matrix", "core.correspondence", None),
    ("report", "cosine_matrix", "core.cosine", None),
    ("diagnostics", "cosine_matrix", "core.cosine", None),
    ("report", "ensemble_score", "core.ensemble_score", None),
    ("diagnostics", "ensemble_score", "core.ensemble_score", None),
    ("evaluation", "ensemble_score", "core.ensemble_score", None),
    ("core", "model_scores", "core.model_scores", None),
    ("report", "model_scores", "core.model_scores", None),
    ("diagnostics", "model_scores", "core.model_scores", None),
    ("evaluation", "model_scores", "core.model_scores", None),
    ("selection", "model_scores", "core.model_scores", None),
    ("report", "check_result1", "diagnostics.result1", _pairs),
    ("report", "check_result2", "diagnostics.result2", _pairs),
    ("report", "check_result3", "diagnostics.result3", _pairs),
    ("report", "schwartz_bounds", "diagnostics.bounds", None),
    ("report", "classify_regime", "diagnostics.regime", None),
    ("cli", "optimal_weights", "weights.optimize", _iterations),
    ("evaluation", "optimal_weights", "weights.optimize", _iterations),
    ("cli", "anti_correlated_subset", "selection.anticorr", None),
    ("cli", "sweep_best_model", "evaluation.sweep", _out_len),
]


class Tracer:
    """Records spans as ``[name, start, end, parent, op, value, error]``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn, value=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[index] = [name, start, time.perf_counter(), parent, self.op, None, True]
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans[index] = [name, start, end, parent, self.op, value and value(args, out), False]
            return out

        return traced

    def install(self) -> dict:
        """Patch every trace point; returns {original function: wrapper}."""
        wrappers = {}
        for module_name, attr, name, value in TRACE_POINTS:
            module = importlib.import_module(f"ensdiag.{module_name}")
            original = getattr(module, attr)
            if original not in wrappers:
                wrappers[original] = self.wrap(name, original, value)
            setattr(module, attr, wrappers[original])
        return wrappers


def more_rounds(rounds: list, start: float, seconds: float, min_rounds: int = 1) -> bool:
    """Start another round only if one more, at the median round time so
    far, still ends within ``seconds`` (or too few rounds have run)."""
    if len(rounds) < min_rounds:
        return True
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


def reference_kernel() -> float:
    """Fixed in-process work that does not touch ensdiag, of the kinds its
    library calls do: float formatting and parsing in Python and a small
    matrix product in numpy."""
    values = [float(f"{i * 0.37:.6f}") for i in range(3000)]
    a = np.asarray(values).reshape(30, 100)
    return float((a @ a.T).sum())


class Sampler:
    """Samples taken between operations, so that they see the same machine
    as the operations around them.

    At most every ``every`` seconds: ``imports``, the wall time of a fresh
    interpreter importing ``ensdiag.cli`` (set-up); ``interpreter``, that
    of a fresh interpreter importing numpy alone (reference); and, given
    ``typed``, ``builds``, the time to build the typed inputs (set-up).
    With ``kernel``, after every operation: ``kernel``, the time of
    ``reference_kernel``, fastest of three (reference).  The first
    interpreters warm the byte-code cache and are not counted.
    """

    def __init__(self, every: float, typed=None, env=None, kernel=False):
        self.every, self.typed, self.env = every, typed, env
        self.imports: list[float] = []
        self.interpreter: list[float] = []
        self.builds: list[float] = []
        self.kernel: list[float] | None = [] if kernel else None
        self._interpreters()
        self.imports.clear()
        self.interpreter.clear()
        self.last = -math.inf
        self.maybe()

    def _wall(self, code, into):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        into.append(time.perf_counter() - start)

    def _interpreters(self):
        self._wall("import ensdiag.cli", self.imports)
        self._wall("import numpy", self.interpreter)

    def maybe(self):
        if self.kernel is not None:
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                reference_kernel()
                best = min(best, time.perf_counter() - start)
            self.kernel.append(best)
        if time.perf_counter() - self.last < self.every:
            return
        self._interpreters()
        if self.typed is not None:
            start = time.perf_counter()
            self.typed()
            self.builds.append(time.perf_counter() - start)
        self.last = time.perf_counter()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Recorder:
    """Per-op timings plus the first copy of every distinct output."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list = []  # [round, kind, key, seconds, digest]
        self.outputs: dict = {}
        self.round = 0
        self.between = None  # called after each op, outside its timing

    def run(self, kind, key, fn, to_text=str):
        """Time ``fn()``; ``to_text`` turns its result into the checked output,
        outside the timed region."""
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
            fn = self.tracer.wrap(f"op.{kind}", fn)
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        text = to_text(result)
        sha = digest(text)
        self.outputs.setdefault(f"{key}:{sha}", text)
        self.ops.append([self.round, kind, key, seconds, sha])
        if self.between is not None:
            self.between()
        return result


def cli_rounds(job, rec):
    from ensdiag.cli import run_command

    def command(argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            return run_command(argv, stdout=out, stderr=err), out, err

        return call

    def to_text(result):
        code, out, err = result
        return json.dumps([code, out.getvalue(), err.getvalue()])

    calls = [(kind, key, command(argv)) for kind, key, argv in job["commands"]]

    def one_round():
        for kind, key, call in calls:
            rec.run(kind, key, call, to_text)

    return one_round


def lib_rounds(part, seed, rec, wrappers):
    """(one round of a library part, the function building its typed inputs, their digest)."""
    import ensdiag

    api = {
        name: wrappers.get(getattr(ensdiag, name), getattr(ensdiag, name))
        for name in ("build_report", "emit_report", "optimal_weights", "anti_correlated_subset")
    }
    inputs = gen.lib_data(part, seed)

    def typed():
        built = []
        for times, values, outputs in inputs:
            obs = ensdiag.ObservationSeries(times, values)
            ens = ensdiag.ModelEnsemble(gen.model_names(outputs.shape[0]), outputs)
            built.append((obs, ens, ensdiag.residuals(ens, obs)))
        return built

    built = typed()

    def optimize_text(out):
        return json.dumps(
            {
                "weights": out.weights.weights.tolist(),
                "score": out.score,
                "iterations": out.iterations,
                "converged": out.converged,
                "active_support": list(out.active_support),
            }
        )

    if part == "lib-wide":
        (obs, ens, rs), = built
        k = gen.PARTS["lib-wide"]["params"]["k"]

        def select_text(out):
            return json.dumps(
                {
                    "kept": list(out.kept),
                    "dropped": list(out.dropped),
                    "criterion": out.criterion,
                    "objective_value": out.objective_value,
                }
            )

        def one_round():
            weights = ensdiag.uniform_weights(ens.n_models)
            rec.run("report", f"{part}/report:0", lambda: api["emit_report"](api["build_report"](obs, ens, weights)))
            rec.run("optimize", f"{part}/optimize:0", lambda: api["optimal_weights"](rs), optimize_text)
            rec.run("select", f"{part}/select:0", lambda: api["anti_correlated_subset"](rs, k), select_text)
    else:
        def one_round():
            for i, (obs, ens, rs) in enumerate(built):
                fit = rec.run("optimize", f"{part}/optimize:{i}", lambda: api["optimal_weights"](rs), optimize_text)
                rec.run(
                    "report",
                    f"{part}/report:{i}",
                    lambda: api["emit_report"](
                        api["build_report"](
                            obs,
                            ens,
                            fit.weights,
                            weights_mode="optimal",
                            opt_max_iter=ensdiag.DEFAULT_MAX_ITER,
                            opt_tol=ensdiag.DEFAULT_TOL,
                        )
                    ),
                )

    return one_round, typed, gen.arrays_sha256(inputs)


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    tracer = Tracer() if job["traced"] else None
    wrappers = tracer.install() if tracer else {}
    rec = Recorder(tracer)
    workload = gen.WORKLOADS[job["workload"]]
    extra, typed = {}, None
    if workload["kind"] == "cli":
        one_round = cli_rounds(job, rec)
    else:
        parts = {part: lib_rounds(part, job["seed"], rec, wrappers) for part in workload["parts"]}
        extra["inputs_sha256"] = {part: sha for part, (_, _, sha) in parts.items()}

        def one_round():
            for part_round, _, _ in parts.values():
                part_round()

        def typed():
            for _, part_typed, _ in parts.values():
                part_typed()
    if job["setup_every"]:
        sampler = Sampler(job["setup_every"], typed, kernel=True)
        rec.between = sampler.maybe
        extra.update(setup_import_s=sampler.imports, setup_build_s=sampler.builds,
                     interpreter_s=sampler.interpreter, kernel_s=sampler.kernel)
    rounds = []
    start = time.perf_counter()
    while more_rounds(rounds, start, job["seconds"], job["min_rounds"]):
        first = len(rec.ops)
        one_round()
        rounds.append(sum(op[3] for op in rec.ops[first:]))
        rec.round += 1
    result = {
        "rounds": rounds,
        "ops": rec.ops,
        "outputs": rec.outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
        **extra,
    }
    Path(job_path).with_suffix(".out.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
