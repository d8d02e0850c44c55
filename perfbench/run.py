"""ensdiag benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Workloads (see ``gen.WORKLOADS``) are closed loop with one client.  A
*round* runs each operation of each of the workload's parts once:

* ``cli`` = ``cli-ingest`` + ``cli-sweep``, each command an ``ensdiag`` CLI
  subprocess.  ``cli-ingest``: ``diagnose``, ``optimize``, ``select --mode
  anticorr --k 4`` and ``diagnose`` on a copy with one malformed cell (must
  exit 1); ``cli-sweep``: ``sweep --window 200 --stride 1``;
* ``lib`` = ``lib-wide`` + ``lib-illcond``, in process.  ``lib-wide``:
  ``build_report`` + ``emit_report``, ``optimal_weights`` and
  ``anti_correlated_subset``; ``lib-illcond``: for each of 40 ensembles,
  ``optimal_weights`` then ``build_report`` + ``emit_report`` with the
  fitted weights.

Rounds repeat while one more, at the median round time so far, still
ends within ``--seconds``.  Set-up and reference samples are taken
between operations throughout the run (``worker.Sampler``).  Every
output is checked against the numpy oracle in ``oracle.py``; ``failed``
counts operations whose output was wrong or whose exit code was
unexpected.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: the median wall time of a fresh interpreter running
  ``import ensdiag.cli``; on ``lib`` plus the median time to build the
  typed inputs from the generated arrays; scaled (below);
* ``round_ms``: time of one round, the sum over its operations of each
  operation's median wall time over the run; scaled (below);
* ``peak_rss_mb``: peak RSS of the process running ensdiag (per CLI
  invocation, the median per command, largest command).

Scaling.  On a shared host the speed of the CPU changes with the load of
other tenants, by a third and more, and stays changed for minutes, so the
same code can run half again as slow in one run as in the next.  Each run
therefore also times reference work that does not touch ensdiag, of the
same kind as the work it scales, interleaved with the operations: a fresh
interpreter importing numpy alone (scales ``setup_s``, and ``round_ms``
on ``cli``, whose operations are fresh interpreters) and, on ``lib``,
``worker.reference_kernel`` in process (scales ``round_ms``).  A timing
is multiplied by ``INTERPRETER_S`` or ``KERNEL_S`` over its reference's
median in the run, that is, it is given in seconds of a host on which the
reference takes that long.  A slow stretch of the host moves a timing and
its reference alike; a change to ensdiag moves only the timing.  The
unscaled medians (``setup_raw_s``, ``round_raw_ms``) and the references'
(``interpreter_s``, ``kernel_ms``) are printed above the result line.

It also prints, above the result line, the per-operation medians
(``diagnose_s``, ``report_ms``, ...) and ``optimize_p90_ms`` with units
and sample counts.

``--trace 1`` alternates three phases, each in its own processes: a round
of CLI subprocesses (``cli`` only), the same round in process untraced,
and in process traced.  It reports the per-layer metrics: times and
counts are per round, from the traced spans; ``cli.*`` and
``trace.overhead_pct`` compare the phases.  End-to-end metrics always come
from the untraced runs.

The run writes inputs, spans and a ``result.json`` (metrics plus the
environment record) under ``.bench_build/perfbench/<workload>-trace<t>/``
and removes the generated inputs at the end.
"""

from __future__ import annotations

import os

#: BLAS threads for this process and every process it starts (<= nproc).
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import selftest  # noqa: E402
from worker import Sampler, more_rounds  # noqa: E402

HERE = Path(__file__).resolve().parent
#: At most one set-up sample, with its interpreter reference, per this
#: many seconds of the run.
SETUP_EVERY_S = 2.0
CLI_TIMEOUT_S = 60
#: Reference times the gated timings are scaled to (see the module
#: docstring): the median wall time of ``python3 -c "import numpy"`` and
#: of ``worker.reference_kernel``, near their medians on the host the
#: bounds were set on (2 vCPUs of a shared Xeon host, Python 3.11, numpy 2.4).
INTERPRETER_S = 0.2
KERNEL_S = 2.5e-3
#: The p90 of per-ensemble optimizer time needs at least this many calls.
MIN_ILLCOND_CALLS = 100

END_TO_END = {"setup_s": "s", "round_ms": "ms", "peak_rss_mb": "MB"}

#: The per-operation metrics, printed for every workload (n/a where the
#: workload does not issue that operation).
DETAIL = [
    ("setup_raw_s", "s"),
    ("round_raw_ms", "ms"),
    ("interpreter_s", "s"),
    ("kernel_ms", "ms"),
    ("diagnose_s", "s"),
    ("optimize_s", "s"),
    ("select_s", "s"),
    ("reject_s", "s"),
    ("sweep_s", "s"),
    ("report_ms", "ms"),
    ("optimize_ms", "ms"),
    ("select_ms", "ms"),
    ("optimize_p90_ms", "ms"),
    ("ensembles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("fail_ratio", "ratio"),
]

PER_LAYER = {
    "cli.overhead_ms": "ms",
    "cli.run_ms": "ms",
    "cli.self_ms": "ms",
    "cli.accounted_pct": "%",
    "report.parse_ms": "ms",
    "report.parse_mb_per_s": "MB/s",
    "report.in_mb": "MB",
    "report.reject_ms": "ms",
    "report.build_ms": "ms",
    "report.build_self_ms": "ms",
    "report.emit_ms": "ms",
    "report.render_ms": "ms",
    "report.out_mb": "MB",
    "core.residuals_ms": "ms",
    "core.gram_ms": "ms",
    "core.cosine_ms": "ms",
    "core.ensemble_score_ms": "ms",
    "core.cosine_calls": "count",
    "core.ensemble_score_calls": "count",
    "core.model_scores_calls": "count",
    "core.gram_calls": "count",
    "core.gram_gflop": "GFLOP",
    "diagnostics.result1_ms": "ms",
    "diagnostics.result2_ms": "ms",
    "diagnostics.result3_ms": "ms",
    "diagnostics.bounds_ms": "ms",
    "diagnostics.regime_ms": "ms",
    "diagnostics.pairs": "count",
    "weights.optimize_ms": "ms",
    "weights.iterations": "count",
    "weights.us_per_iter": "us",
    "weights.unconverged": "count",
    "weights.fw_gap_rel_max": "ratio",
    "selection.anticorr_ms": "ms",
    "selection.subsets": "count",
    "evaluation.sweep_ms": "ms",
    "evaluation.windows": "count",
    "evaluation.us_per_window": "us",
    "evaluation.ensemble_score_calls": "count",
    "trace.overhead_pct": "%",
}


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def run_process(argv, env, stdout_path, stderr_path, timeout):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    ``os.wait4`` gives the child's own resource usage; an alarm bounds the
    wait, and a child still running then is killed and reaped.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def median(values):
    return float(statistics.median(values)) if values else 0.0


def round_time(ops):
    """Seconds of one round: the sum over the operations of a round (one
    per key) of each one's median."""
    return sum(median([op["seconds"] for op in key_ops]) for key_ops in group(ops, "key").values())


def blas_version() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "loadavg_before": list(os.getloadavg()),
    }


class Bench:
    """One run of one workload."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.spec = gen.WORKLOADS[workload]
        self.parts = self.spec["parts"]
        self.root = Path.cwd()
        self.work = self.root / ".bench_build" / "perfbench" / f"{workload}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.record = {
            "workload": workload,
            "why": self.spec["why"],
            "parts": {part: gen.PARTS[part] for part in self.parts},
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "env": environment(),
        }
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.selftested: set[str] = set()
        self.missed: list[str] = []

    # ---------------------------------------------------------------- inputs

    def make_inputs(self):
        """Inputs, commands (``cli`` only) and an oracle checker per part.
        Op keys are ``<part>/<checker key>``."""
        self.commands, self.checkers, self.record["inputs"] = [], {}, {}
        for part in self.parts:
            p = gen.PARTS[part]["params"]
            inputs = self.record["inputs"][part] = {}
            if self.spec["kind"] == "cli":
                self.make_cli_part(part, p, inputs)
                continue
            arrays = gen.lib_data(part, self.seed)
            inputs["arrays_sha256"] = gen.arrays_sha256(arrays)
            settings = dict(oracle.CLI_REPORT_SETTINGS, weights_mode="custom")
            if part == "lib-illcond":
                settings.update(weights_mode="optimal", **oracle.OPT_SETTINGS)
            self.checkers[part] = oracle.Checker(
                arrays, [gen.model_names(o.shape[0]) for _, _, o in arrays],
                k=p.get("k"), report_settings=settings,
            )

    def make_cli_part(self, part, p, inputs):
        times, values, outputs = gen.cli_data(part, self.seed)
        text = gen.csv_text(times, values, outputs)
        good = self.work / f"{part}.csv"
        good.write_text(text)
        inputs.update({good.name: sha256_file(good), "input_mb": good.stat().st_size / 1e6})
        if part == "cli-ingest":
            bad_text, row, column = gen.malformed_copy(text)
            bad = self.work / f"{part}-malformed.csv"
            bad.write_text(bad_text)
            inputs[bad.name] = sha256_file(bad)
            commands = [
                ("diagnose", ["diagnose", "--input", str(good)]),
                ("optimize", ["optimize", "--input", str(good)]),
                ("select", ["select", "--input", str(good), "--mode", "anticorr", "--k", str(p["k"])]),
                ("reject", ["diagnose", "--input", str(bad)]),
            ]
            reject_at = (row, column)
        else:
            commands = [
                ("sweep", ["sweep", "--input", str(good), "--window", str(p["window"]),
                           "--stride", str(p["stride"])]),
            ]
            reject_at = None
        self.commands += [(kind, f"{part}/{kind}", argv) for kind, argv in commands]
        self.checkers[part] = oracle.Checker(
            [(times, values, outputs)], [gen.model_names(outputs.shape[0])], k=p.get("k"),
            window=p.get("window"), stride=p.get("stride"), reject_at=reject_at,
        )

    # ------------------------------------------------------------ measuring

    def cli_phase(self, seconds, sampler=None):
        """Rounds of CLI subprocesses; returns (round times, ops).  A round's
        time is the sum of its commands' wall times.  ``sampler`` takes its
        samples between commands."""
        rounds, ops = [], []
        start = time.perf_counter()
        while more_rounds(rounds, start, seconds):
            first = len(ops)
            for kind, key, argv in self.commands:
                out, err = self.work / "cli.out", self.work / "cli.err"
                code, wall, rss = run_process(
                    [sys.executable, "-m", "ensdiag.cli", *argv], self.env, out, err, CLI_TIMEOUT_S
                )
                text = json.dumps([code, out.read_text(), err.read_text()])
                ops.append({"round": len(rounds), "part": key.partition("/")[0], "kind": kind,
                            "seconds": wall, "rss_mb": rss, "key": key, "text": text})
                if sampler is not None:
                    sampler.maybe()
            rounds.append(sum(op["seconds"] for op in ops[first:]))
        return rounds, ops

    def worker(self, name, seconds, traced, min_rounds=1):
        """Run ``worker.py`` for ``seconds``; returns its result dict."""
        job = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": seconds,
            "traced": traced,
            "commands": self.commands,
            "min_rounds": min_rounds,
            "setup_every": SETUP_EVERY_S if name == "timed" else None,
        }
        job_path = self.work / f"{name}.json"
        job_path.write_text(json.dumps(job))
        code, _, _ = run_process(
            [sys.executable, str(HERE / "worker.py"), str(job_path)], self.env,
            self.work / f"{name}.stdout", self.work / f"{name}.stderr", int(seconds) + 90,
        )
        if code != 0:
            raise RuntimeError(f"worker failed: {(self.work / f'{name}.stderr').read_text()[-2000:]}")
        result = json.loads(job_path.with_suffix(".out.json").read_text())
        for part, sha in result.get("inputs_sha256", {}).items():
            if sha != self.record["inputs"][part]["arrays_sha256"]:
                raise RuntimeError(f"worker generated different {part} inputs from the same seed")
        ops = []
        for round_index, kind, key, secs, sha in result["ops"]:
            ops.append({"round": round_index, "part": key.partition("/")[0], "kind": kind,
                        "seconds": secs, "key": key, "text": result["outputs"][f"{key}:{sha}"]})
        result["ops"] = ops
        return result

    # -------------------------------------------------------------- checking

    def check(self, ops):
        """Checks every distinct output once; returns the number of failed ops."""
        distinct = {}
        for op in ops:
            op["digest"] = hashlib.sha256(op["text"].encode()).hexdigest()
            distinct.setdefault((op["key"], op["digest"]), op["text"])
        # The optimizer's outputs first: lib-illcond reports must carry its weights.
        def optimize_first(item):
            return not item[0][0].partition("/")[2].startswith("optimize")

        for (key, sha), text in sorted(distinct.items(), key=optimize_first):
            if (key, sha) in self.verdicts:
                continue
            part, _, part_key = key.partition("/")
            checker = self.checkers[part]
            try:
                fails = checker.check_text(part_key, text)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                fails = [f"malformed output: {exc!r}"]
            self.verdicts[(key, sha)] = fails
            if not fails and key not in self.selftested:
                self.selftested.add(key)
                self.missed += [f"{part}/{m}" for m in selftest.undetected(checker, part_key, text)]
        failed = 0
        for op in ops:
            fails = self.verdicts[(op["key"], op["digest"])]
            op["ok"] = not fails
            failed += bool(fails)
        return failed

    def failures(self):
        out = [f"{key}: {f}" for (key, _), fails in self.verdicts.items() for f in fails[:3]]
        out += [f"checker missed a corruption: {m}" for m in self.missed]
        return out

    # --------------------------------------------------------------- metrics

    def run(self):
        self.make_inputs()
        if self.trace:
            metrics, ops = self.run_traced()
        else:
            metrics, ops = self.run_timed()
        failed = self.check(ops)
        if self.trace:
            self.layer_checks(metrics)
        self.record["env"]["loadavg_after"] = list(os.getloadavg())
        self.record["attempted"], self.record["failed"] = len(ops), failed
        return metrics, ops, failed

    def run_timed(self):
        cli = self.spec["kind"] == "cli"
        if cli:
            sampler = Sampler(SETUP_EVERY_S, env=self.env)
            rounds, ops = self.cli_phase(self.seconds, sampler)
            samples = {"import": sampler.imports}
            interpreter, kernel = sampler.interpreter, None
            peak = max(median([o["rss_mb"] for o in v]) for v in group(ops, "key").values())
        else:
            min_rounds = 1
            if "lib-illcond" in self.parts:
                min_rounds = math.ceil(MIN_ILLCOND_CALLS / gen.PARTS["lib-illcond"]["params"]["n_ensembles"])
            result = self.worker("timed", self.seconds, traced=False, min_rounds=min_rounds)
            rounds, ops = result["rounds"], result["ops"]
            samples = {"import": result["setup_import_s"], "build": result["setup_build_s"]}
            interpreter, kernel = result["interpreter_s"], result["kernel_s"]
            peak = result["peak_rss_mb"]
        setup_s = sum(median(v) for v in samples.values())
        round_ms = round_time(ops) * 1e3
        # Fresh-interpreter work scales with the numpy-only interpreter,
        # in-process work with the in-process kernel.
        setup_scale = INTERPRETER_S / median(interpreter)
        round_scale = setup_scale if cli else KERNEL_S / median(kernel)
        self.detail = {part: per_operation(part, part_ops, cli) for part, part_ops in group(ops, "part").items()}
        self.detail[self.workload] = {
            "setup_raw_s": (setup_s, len(samples["import"])),
            "round_raw_ms": (round_ms, len(rounds)),
            "interpreter_s": (median(interpreter), len(interpreter)),
            "peak_rss_mb": (peak, len(ops) if cli else 1),
        }
        if kernel:
            self.detail[self.workload]["kernel_ms"] = (median(kernel) * 1e3, len(kernel))
        self.record["reference_s"] = {"interpreter": interpreter, "kernel": kernel}
        self.record["rounds"] = len(rounds)
        self.record["round_times_ms"] = [r * 1e3 for r in rounds]
        self.record["setup_samples_s"] = samples
        self.record["op_seconds"] = {k: [o["seconds"] for o in v] for k, v in group(ops, "key").items()}
        return {
            "setup_s": setup_s * setup_scale,
            "round_ms": round_ms * round_scale,
            "peak_rss_mb": peak,
        }, ops

    def run_traced(self):
        """Cycles of one CLI round (``cli`` only), one untraced and one
        traced in-process round, while another cycle fits in ``--seconds``,
        so that the phases compared see the same machine state."""
        cli = self.spec["kind"] == "cli"
        cli_ops, plain_runs, traced_runs, cycles = [], [], [], []
        start = time.perf_counter()
        while more_rounds(cycles, start, self.seconds):
            begin = time.perf_counter()
            if cli:
                cli_ops += self.cli_phase(0)[1]
            plain_runs.append(self.worker("plain", 0, traced=False))
            traced_runs.append(self.worker("traced", 0, traced=True))
            cycles.append(time.perf_counter() - begin)
        plain, traced = merge_runs(plain_runs), merge_runs(traced_runs)
        ops = cli_ops + plain["ops"] + traced["ops"]
        self.traced_ops = traced["ops"]
        self.record["rounds"] = {"plain": len(plain["rounds"]), "traced": len(traced["rounds"])}
        spans = traced["spans"]
        (self.work / "spans.json").write_text(json.dumps(spans))
        # One part of each workload selects subsets: cli-ingest or lib-wide.
        selecting = next(gen.PARTS[part]["params"] for part in self.parts if "k" in gen.PARTS[part]["params"])
        layer = layer_metrics(spans, len(traced["rounds"]), selecting)
        plain_round = round_time(plain["ops"])
        layer["trace.overhead_pct"] = 100.0 * (round_time(traced["ops"]) - plain_round) / plain_round
        layer.update({"cli.run_ms": 0.0, "cli.overhead_ms": 0.0, "cli.self_ms": 0.0,
                      "cli.accounted_pct": 0.0})
        if cli:
            layer.update(self.cli_accounting(cli_ops, plain, traced))
        return layer, ops

    def cli_accounting(self, cli_ops, plain, traced):
        """Per command: subprocess wall = overhead + in-process ``run_command``;
        the traced layer spans directly under ``run_command`` plus its self
        time make up the latter."""
        n_rounds = len(traced["rounds"])
        spans = traced["spans"]
        command_ms, layers_ms = defaultdict(float), defaultdict(float)
        for name, start, end, parent, *_ in spans:
            if name.startswith("op."):
                command_ms[name[3:]] += 1e3 * (end - start) / n_rounds
            elif parent >= 0 and spans[parent][0].startswith("op."):
                layers_ms[spans[parent][0][3:]] += 1e3 * (end - start) / n_rounds
        wall = {k: median([o["seconds"] for o in v]) * 1e3 for k, v in group(cli_ops, "kind").items()}
        run = {k: median([o["seconds"] for o in v]) * 1e3 for k, v in group(plain["ops"], "kind").items()}
        self.cli_breakdown = {
            k: {"wall_ms": wall[k], "overhead_ms": wall[k] - run[k], "run_ms": run[k],
                "layers_ms": layers_ms[k], "self_ms": command_ms[k] - layers_ms[k]}
            for k in wall
        }
        overhead = sum(wall.values()) - sum(run.values())
        return {
            "cli.run_ms": sum(run.values()),
            "cli.overhead_ms": overhead,
            "cli.self_ms": sum(command_ms.values()) - sum(layers_ms.values()),
            "cli.accounted_pct": 100.0 * (overhead + sum(layers_ms.values())) / sum(wall.values()),
        }

    def layer_checks(self, layer):
        """Counts that need the checked outputs of the traced run."""
        rounds = max(1, self.record["rounds"]["traced"])
        unconverged = 0
        for op in self.traced_ops:
            if op["kind"] == "optimize" and op["ok"]:
                payload = json.loads(op["text"])
                if self.spec["kind"] == "cli":
                    payload = json.loads(payload[1])
                unconverged += payload["converged"] is False
        layer["weights.unconverged"] = unconverged / rounds
        gaps = [gap for checker in self.checkers.values() for _, gap in checker.optimize_info]
        layer["weights.fw_gap_rel_max"] = max(gaps) if gaps else 0.0


def merge_runs(results) -> dict:
    """One result from several worker runs, with span parents and op ids offset."""
    merged = {"rounds": [], "ops": [], "spans": []}
    for result in results:
        n_spans, n_ops = len(merged["spans"]), len(merged["ops"])
        for name, start, end, parent, op, value, error in result["spans"] or []:
            parent = parent + n_spans if parent >= 0 else -1
            merged["spans"].append([name, start, end, parent, op + n_ops, value, error])
        merged["rounds"] += result["rounds"]
        merged["ops"] += result["ops"]
    return merged


def per_operation(part, ops, cli) -> dict:
    """One part's per-operation metrics: {name: (value, samples)}."""
    out = {}
    for kind, kind_ops in group(ops, "kind").items():
        seconds = [o["seconds"] for o in kind_ops]
        if cli:
            out[f"{kind}_s"] = (median(seconds), len(seconds))
            continue
        times = [s * 1e3 for s in seconds]
        out[f"{kind}_ms"] = (median(times), len(times))
        if part == "lib-illcond" and kind == "optimize":
            out["optimize_p90_ms"] = (float(np.percentile(times, 90)), len(times))
            out["ensembles_per_s"] = (len(times) / sum(o["seconds"] for o in ops), len(times))
    return out


def group(ops, field):
    out = defaultdict(list)
    for op in ops:
        out[op[field]].append(op)
    return dict(out)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def subsets_per_call(m, k) -> int:
    """Candidate subsets ``anti_correlated_subset`` scores (computed)."""
    if math.comb(m, k) <= oracle.EXHAUSTIVE_LIMIT:
        return math.comb(m, k)
    return m * (m - 1) // 2 + sum(m - size for size in range(2, k))


def layer_metrics(spans, n_rounds, params) -> dict:
    """Per-round layer totals from the traced spans; ``params`` are those of
    the part that calls ``anti_correlated_subset``."""
    n_rounds = max(1, n_rounds)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            child_time[s[3]] += d
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    value = defaultdict(float)
    under_sweep = 0
    for i, s in enumerate(spans):
        name = s[0]
        if name == "report.parse" and s[6]:
            name = "report.reject"
        total[name] += duration[i]
        self_time[name] += duration[i] - child_time[i]
        calls[name] += 1
        value[name] += s[5] or 0
        if name == "core.ensemble_score" and s[3] >= 0 and spans[s[3]][0] == "evaluation.sweep":
            under_sweep += 1
    ms = {name: 1e3 * t / n_rounds for name, t in total.items()}
    per_round = {name: c / n_rounds for name, c in calls.items()}

    def rate(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = params.get("n_models", 0)
    k = params.get("k") or 0
    out = {
        "report.parse_ms": ms.get("report.parse", 0.0),
        "report.in_mb": value["report.parse"] / 1e6 / n_rounds,
        "report.reject_ms": ms.get("report.reject", 0.0),
        "report.build_ms": ms.get("report.build", 0.0),
        "report.build_self_ms": 1e3 * self_time["report.build"] / n_rounds,
        "report.emit_ms": ms.get("report.emit", 0.0),
        "report.render_ms": ms.get("report.render", 0.0),
        "report.out_mb": value["report.render"] / 1e6 / n_rounds,
        "core.residuals_ms": ms.get("core.residuals", 0.0),
        "core.gram_ms": ms.get("core.gram", 0.0),
        "core.cosine_ms": ms.get("core.cosine", 0.0),
        "core.ensemble_score_ms": ms.get("core.ensemble_score", 0.0),
        "core.cosine_calls": per_round.get("core.cosine", 0.0),
        "core.ensemble_score_calls": per_round.get("core.ensemble_score", 0.0),
        "core.model_scores_calls": per_round.get("core.model_scores", 0.0),
        "core.gram_calls": per_round.get("core.gram", 0.0),
        "core.gram_gflop": value["core.gram"] / 1e9 / n_rounds,
        "diagnostics.result1_ms": ms.get("diagnostics.result1", 0.0),
        "diagnostics.result2_ms": ms.get("diagnostics.result2", 0.0),
        "diagnostics.result3_ms": ms.get("diagnostics.result3", 0.0),
        "diagnostics.bounds_ms": ms.get("diagnostics.bounds", 0.0),
        "diagnostics.regime_ms": ms.get("diagnostics.regime", 0.0),
        "diagnostics.pairs": sum(value[f"diagnostics.result{i}"] for i in (1, 2, 3)) / n_rounds,
        "weights.optimize_ms": ms.get("weights.optimize", 0.0),
        "weights.iterations": value["weights.optimize"] / n_rounds,
        "weights.us_per_iter": 1e6 * rate(total["weights.optimize"], value["weights.optimize"]),
        "selection.anticorr_ms": ms.get("selection.anticorr", 0.0),
        "selection.subsets": per_round.get("selection.anticorr", 0.0) * (subsets_per_call(m, k) if k else 0),
        "evaluation.sweep_ms": ms.get("evaluation.sweep", 0.0),
        "evaluation.windows": value["evaluation.sweep"] / n_rounds,
        "evaluation.us_per_window": 1e6 * rate(total["evaluation.sweep"], value["evaluation.sweep"]),
        "evaluation.ensemble_score_calls": under_sweep / n_rounds,
    }
    out["report.parse_mb_per_s"] = rate(value["report.parse"] / 1e6, total["report.parse"])
    return out


def print_detail(bench, metrics):
    rec = bench.record
    print(f"# workload {rec['workload']}: {rec['why']}")
    for part, spec in rec["parts"].items():
        print(f"# part {part}: {spec['why']}; params {json.dumps(spec['params'])}")
    print(f"# seed {rec['seed']} seconds {rec['seconds']} trace {rec['trace']} rounds {json.dumps(rec['rounds'])}")
    print(f"# env {json.dumps(rec['env'])}")
    print(f"# inputs {json.dumps(rec['inputs'])}")
    if bench.trace:
        for name, unit in PER_LAYER.items():
            print(f"{name:34s} {metrics[name]:14.6g} {unit}")
        for kind, row in getattr(bench, "cli_breakdown", {}).items():
            print(f"# cli {kind}: wall {row['wall_ms']:.1f} ms = overhead {row['overhead_ms']:.1f} "
                  f"+ run_command {row['run_ms']:.1f}; traced run_command = layer spans "
                  f"{row['layers_ms']:.1f} + self {row['self_ms']:.1f}")
    else:
        detail = {scope: dict(rows) for scope, rows in bench.detail.items()}
        attempted = rec["attempted"]
        detail[bench.workload]["fail_ratio"] = (rec["failed"] / attempted, attempted)
        for name, unit in DETAIL:
            rows = [(scope, rows[name]) for scope, rows in detail.items() if name in rows]
            for scope, (value, n) in rows:
                print(f"{name:18s} {value:14.6g} {unit:6s} n={n:<5d} {scope}")
            if not rows:
                print(f"{name:18s} {'n/a':>14s} {unit:6s} n=0")
        for name in ("setup_s", "round_ms"):
            print(f"{name:18s} {metrics[name]:14.6g} {END_TO_END[name]:6s} scaled to the reference times")
    for failure in bench.failures()[:20]:
        print(f"# FAIL {failure}")


def run_one(workload, seed, seconds, trace):
    bench = Bench(workload, seed, seconds, trace)
    try:
        metrics, ops, failed = bench.run()
    finally:
        for csv in bench.work.glob("*.csv"):
            csv.unlink()
    units = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and not bench.failures()
    bench.record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    if not trace:
        bench.record["detail"] = bench.detail
    (bench.work / "result.json").write_text(json.dumps(bench.record, indent=1))
    print_detail(bench, metrics)
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": bench.record["metrics"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "ensdiag" / "__init__.py").is_file():
        print("run.py: src/ensdiag not found; run from the root of an ensdiag checkout",
              file=sys.stderr)
        return 2
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(w, args.seed, args.seconds, args.trace) for w in workloads]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
