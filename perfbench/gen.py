"""Seeded input generators and the workload tables.

Everything here is numpy only: the benchmark's parent process and its
oracle use it without importing ensdiag, and the in-process worker uses
it to rebuild exactly the same arrays from the same seed.  Nothing is
downloaded; one workload seed always yields byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

#: Each part of a workload: why it exists and its generator parameters
#: (``run.py`` says what one round of it runs).
PARTS = {
    "cli-ingest": {
        "why": (
            "CSV ingest dominates each CLI command and the geometry is cheap; "
            "the malformed copy runs ingest down its error path"
        ),
        "params": {"n_models": 20, "n_points": 25_000, "k": 4},
    },
    "cli-sweep": {
        "why": "the per-window sweep and the rendering of many small rows dominate",
        "params": {"n_models": 12, "n_points": 6_000, "window": 200, "stride": 1},
    },
    "lib-wide": {
        "why": (
            "200 models make the O(M^2 T) geometry, the pair loops and the "
            "report render dominate; no CSV ingest"
        ),
        "params": {"n_models": 200, "n_points": 5_000, "k": 3},
    },
    "lib-illcond": {
        "why": (
            "ill-conditioned small ensembles where the weight optimizer hits "
            "its iteration cap, the hard regime of the weights module"
        ),
        "params": {"n_ensembles": 40, "min_models": 3, "max_models": 8, "n_points": 500},
    },
}

#: The benchmark's workloads.  A round of a workload runs one round of
#: each of its parts in turn, so that the parts see the same machine.  All
#: are closed loop with one client: the next operation starts when the
#: previous one has finished.
WORKLOADS = {
    "cli": {
        "why": (
            "ensdiag CLI subprocesses: CSV ingest dominates "
            "diagnose/optimize/select and a malformed-input reject, the "
            "per-window sweep and its many small rows a fifth command"
        ),
        "kind": "cli",
        "parts": ["cli-ingest", "cli-sweep"],
    },
    "lib": {
        "why": (
            "in-process library calls, no ingest: 200 models make the O(M^2 T) "
            "geometry, pair loops and report render dominate; ill-conditioned "
            "ensembles drive the optimizer to its cap"
        ),
        "kind": "lib",
        "parts": ["lib-wide", "lib-illcond"],
    },
}

#: Cell that makes the malformed copy of the cli-ingest CSV unparsable.
MALFORMED_CELL = "1.0e"

#: Time of the first row of every generated series.
FIRST_TIME = 1000


def rng_for(part: str, seed: int) -> np.random.Generator:
    """Independent generator per (part, seed)."""
    return np.random.default_rng([int(seed), zlib.crc32(part.encode())])


def truth(n_points: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Times and a smooth observed series with a random phase."""
    times = FIRST_TIME + np.arange(n_points, dtype=np.int64)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n_points, dtype=np.float64)
    values = 10.0 * np.sin(t / 50.0 + phase) + 2.0 * np.sin(t / 7.0)
    return times, values


def mixed_ensemble(n_models: int, n_points: int, rng: np.random.Generator) -> np.ndarray:
    """Model outputs minus observations: a bias, a shared error with loadings
    of both signs (so some pairs are anti-correlated) and an independent part."""
    bias = rng.normal(0.0, 0.3, (n_models, 1))
    loading = rng.uniform(-0.6, 1.2, (n_models, 1))
    shared = rng.normal(0.0, 1.0, n_points)
    spread = rng.uniform(0.7, 1.3, (n_models, 1))
    return bias + loading * shared + spread * rng.normal(0.0, 1.0, (n_models, n_points))


def cli_data(part: str, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, observed values, model outputs) for a CLI part."""
    p = PARTS[part]["params"]
    rng = rng_for(part, seed)
    times, values = truth(p["n_points"], rng)
    outputs = values + mixed_ensemble(p["n_models"], p["n_points"], rng)
    return times, values, outputs


def model_names(n_models: int) -> tuple[str, ...]:
    return tuple(f"m{i:03d}" for i in range(n_models))


def csv_text(times: np.ndarray, values: np.ndarray, outputs: np.ndarray) -> str:
    """CSV in the ensdiag input format; ``repr`` keeps every float exact."""
    header = ",".join(["t", "Y", *model_names(outputs.shape[0])])
    columns = np.vstack([values, outputs]).T.tolist()
    lines = [header]
    lines.extend(
        f"{t}," + ",".join(map(repr, row)) for t, row in zip(times.tolist(), columns)
    )
    return "\n".join(lines) + "\n"


def malformed_copy(text: str) -> tuple[str, int, int]:
    """The same CSV with the first model cell of the last data row broken.

    Returns the text and the 1-based (row, column) the parser must report.
    """
    body, last = text.rstrip("\n").rsplit("\n", 1)
    cells = last.split(",")
    cells[2] = MALFORMED_CELL
    n_rows = body.count("\n") + 2  # header plus every data row
    return body + "\n" + ",".join(cells) + "\n", n_rows, 3


def wide_data(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lib-wide: many models with independent errors around one truth."""
    p = PARTS["lib-wide"]["params"]
    rng = rng_for("lib-wide", seed)
    times, values = truth(p["n_points"], rng)
    m, t = p["n_models"], p["n_points"]
    errors = rng.normal(0.0, 0.3, (m, 1)) + rng.uniform(0.8, 1.2, (m, 1)) * rng.normal(
        0.0, 1.0, (m, t)
    )
    return times, values, values + errors


def illcond_data(seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """lib-illcond: small ensembles whose errors share one component.

    The loadings are a fixed grid (permuted) and the independent noise
    level follows a fixed log grid over the ensembles, so every seed gives
    the same mix of conditioning; only the noise draws change.  That keeps
    the share of optimizer calls that hit the iteration cap the same from
    seed to seed.
    """
    p = PARTS["lib-illcond"]["params"]
    rng = rng_for("lib-illcond", seed)
    n, t = p["n_ensembles"], p["n_points"]
    sizes = p["max_models"] - p["min_models"] + 1
    out = []
    for i in range(n):
        m = p["min_models"] + i % sizes
        times, values = truth(t, rng)
        sigma = 10.0 ** (-3.0 + 3.0 * ((7 * i) % n) / n)
        loading = rng.permutation(np.linspace(-0.5, 1.5, m))[:, None]
        errors = loading * rng.normal(0.0, 1.0, t) + sigma * rng.normal(0.0, 1.0, (m, t))
        out.append((times, values, values + errors))
    return out


def lib_data(part: str, seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every (times, values, outputs) input of a library part."""
    if part == "lib-wide":
        return [wide_data(seed)]
    return illcond_data(seed)


def arrays_sha256(inputs) -> str:
    """Digest of generated arrays, to show both processes built the same inputs."""
    digest = hashlib.sha256()
    for times, values, outputs in inputs:
        for arr in (times, values, outputs):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()
