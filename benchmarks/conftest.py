"""Shared fixtures for the benchmark harness.

Every figure benchmark needs the same expensive ingredients — the AMG
hierarchy of the reduced-scale rotated anisotropic diffusion problem and its
per-level communication profiles — so they are built once per session here.
Set ``REPRO_PAPER_SCALE=1`` to run the benchmarks at the paper's full problem
size (524 288 rows on 2048 simulated ranks); expect several minutes of setup.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.config import ExperimentConfig, ExperimentContext  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Directory ``emit_bench`` writes its ``BENCH_<name>.json`` documents to.
#: They are outputs of a run, not tracked files: unset, a session writes them
#: to a pytest temp dir; CI points it at the directory it uploads.
BENCH_OUT_ENV = "REPRO_BENCH_OUT"


@pytest.fixture(scope="session", autouse=True)
def bench_out_dir(tmp_path_factory):
    """Resolve ``$REPRO_BENCH_OUT`` once per session (default: a temp dir).

    The variable stays set until the session ends, so tests collected later
    (``tests/docs/test_bench_schema.py``) find the documents the gates wrote.
    """
    if os.environ.get(BENCH_OUT_ENV):
        yield os.environ[BENCH_OUT_ENV]
        return
    os.environ[BENCH_OUT_ENV] = str(tmp_path_factory.mktemp("bench"))
    try:
        yield os.environ[BENCH_OUT_ENV]
    finally:
        del os.environ[BENCH_OUT_ENV]


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    """The configuration every benchmark runs with."""
    return ExperimentConfig.from_environment()


@pytest.fixture(scope="session")
def experiment_context(experiment_config) -> ExperimentContext:
    """Shared hierarchy + mapping + model context (built once per session)."""
    return ExperimentContext.build(experiment_config)


def emit(name: str, text: str) -> None:
    """Print a figure table and persist it under ``benchmarks/results/``.

    pytest captures stdout by default, so the tables are also written to disk
    where EXPERIMENTS.md points at them; run ``pytest benchmarks -s`` to see
    them inline.  The file is only rewritten when its content changes, so a
    run that reproduces the committed tables leaves the checkout untouched.
    """
    print(f"\n{text}\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    try:
        with open(path, encoding="utf-8") as handle:
            if handle.read() == text + "\n":
                return
    except OSError:
        pass
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _git_revision() -> str | None:
    """The repo's HEAD commit, or None outside a usable git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = result.stdout.strip()
    return rev if result.returncode == 0 and rev else None


def emit_bench(name: str, *, speedup: float, baseline_s: float,
               optimized_s: float, n_ranks: int, **extra) -> str:
    """Persist one perf gate's measurement as ``$REPRO_BENCH_OUT/BENCH_<name>.json``.

    The machine-readable twin of the human-readable speedup prints: every
    wall-clock gate records what it compared (best-of-N seconds for the
    baseline and the optimized path), the measured speedup, the simulated
    rank count, and the git revision — so CI can archive per-commit perf
    trajectories instead of scraping test output.  Every payload also
    records the execution environment that produced the numbers — the
    default engine ``runtime``, its worker count, and the active kernel
    backend — so trajectories across commits compare like with like.
    ``extra`` lands verbatim in the payload for gate-specific fields
    (message counts, per-size timings) and may override the environment
    fields when a bench pins its own runtime.
    """
    from repro.collectives.kernels import active_backend
    from repro.simmpi.engine import default_runtime
    from repro.simmpi.procs import default_worker_count

    runtime = extra.pop("runtime", default_runtime())
    n_workers = extra.pop(
        "n_workers",
        default_worker_count(int(n_ranks)) if runtime == "procs" else 1)
    payload = {
        "bench": name,
        "speedup": round(float(speedup), 3),
        "baseline_s": float(baseline_s),
        "optimized_s": float(optimized_s),
        "n_ranks": int(n_ranks),
        "git_rev": _git_revision(),
        "runtime": str(runtime),
        "n_workers": int(n_workers),
        "kernels": active_backend().name,
        **extra,
    }
    directory = os.environ[BENCH_OUT_ENV]
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
