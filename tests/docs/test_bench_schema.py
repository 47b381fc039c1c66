"""Schema check for the ``BENCH_*.json`` perf-trajectory documents.

Every perf gate persists its measurement through
``benchmarks.conftest.emit_bench``; CI archives the resulting JSON files so
regressions can be traced per commit.  The trajectory is only comparable if
every payload records the same core fields — what was measured, at what
simulated scale, and in which execution environment (runtime, worker count,
kernel backend).  The documents are outputs of a run, written under
``$REPRO_BENCH_OUT`` and never tracked: this test validates the document a
gate wrote earlier in the same session (the tier-1 command runs
``benchmarks/`` first) and otherwise one it emits on the spot, so a bench that
bypasses ``emit_bench`` or an ``emit_bench`` edit that drops a field fails
fast.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

_spec = importlib.util.spec_from_file_location(
    "benchmarks_conftest", os.path.join(REPO_ROOT, "benchmarks", "conftest.py"))
bench_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_conftest)

#: Field name -> accepted types, present in every emitted payload.
REQUIRED_FIELDS = {
    "bench": str,
    "speedup": (int, float),
    "baseline_s": (int, float),
    "optimized_s": (int, float),
    "n_ranks": int,
    "git_rev": (str, type(None)),
    "runtime": str,
    "n_workers": int,
    "kernels": str,
}

RUNTIMES = {"engine", "procs"}

#: One document per always-on perf gate.
BENCH_FILES = [f"BENCH_{name}.json" for name in (
    "autotune", "fused_kernels", "plan_cache_warm", "procs_recovery",
    "setup_scale")]


def test_bench_results_are_committed(tmp_path, monkeypatch):
    """No ``BENCH_*.json`` is tracked: they land under ``$REPRO_BENCH_OUT`` only."""
    monkeypatch.setenv(bench_conftest.BENCH_OUT_ENV, str(tmp_path))
    before = sorted(os.listdir(RESULTS_DIR))
    path = bench_conftest.emit_bench("setup_scale", speedup=2.0, baseline_s=2.0,
                                     optimized_s=1.0, n_ranks=4)
    assert path == str(tmp_path / "BENCH_setup_scale.json")
    assert sorted(os.listdir(RESULTS_DIR)) == before
    try:
        tracked = subprocess.run(
            ["git", "ls-files", "benchmarks/results/BENCH_*.json"],
            capture_output=True, text=True, timeout=30, cwd=REPO_ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return
    if tracked.returncode == 0:
        assert tracked.stdout.split() == []


@pytest.mark.parametrize("name", BENCH_FILES)
def test_bench_payload_schema(name, tmp_path, monkeypatch):
    out = os.environ.get(bench_conftest.BENCH_OUT_ENV)
    path = os.path.join(out, name) if out else None
    if path is None or not os.path.exists(path):
        monkeypatch.setenv(bench_conftest.BENCH_OUT_ENV, str(tmp_path))
        path = bench_conftest.emit_bench(
            name[len("BENCH_"):-len(".json")], speedup=1.5, baseline_s=3.0,
            optimized_s=2.0, n_ranks=64)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    for field, types in REQUIRED_FIELDS.items():
        assert field in payload, f"{name} lacks {field!r}"
        assert isinstance(payload[field], types), \
            f"{name}: {field!r} is {type(payload[field]).__name__}"
    assert payload["bench"], "bench name must be non-empty"
    assert f"BENCH_{payload['bench']}.json" == name, \
        "payload bench name must match its file name"
    assert payload["runtime"] in RUNTIMES
    assert payload["n_workers"] >= 1
    assert payload["n_ranks"] >= 1
    assert payload["baseline_s"] >= 0.0
    assert payload["optimized_s"] >= 0.0
    assert payload["speedup"] > 0.0
