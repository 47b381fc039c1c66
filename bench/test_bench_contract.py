"""The benchmark's contract, checked with ``--smoke`` runs (no wall-clock assertion).

``BENCHMARK.json`` must name exactly what ``bench/run.py`` emits; every
workload must run, verify its outputs and report the declared metrics with
the declared units; the traffic counts must come out identical from two
independent runs (the end-to-end run and the traced run count them on
separate processes); and running the benchmark must leave the work tree as
it found it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def git_status():
    """Porcelain status of the checkout, ``None`` outside a git repository."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def start(workload, trace, json_path):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace), "--smoke",
               "--json", str(json_path)]
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload once end to end and once traced, two at a time."""
    directory = tmp_path_factory.mktemp("bench")
    before = git_status()
    results = {}
    pending = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    running = []
    while pending or running:
        while pending and len(running) < 2:
            workload, trace = pending.pop(0)
            path = directory / f"{workload}.{trace}.json"
            running.append((workload, trace, path, start(workload, trace, path)))
        workload, trace, path, process = running.pop(0)
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, f"{workload} --trace {trace}: {stderr}"
        with open(path, encoding="utf-8") as handle:
            results[workload, trace] = (json.loads(stdout.splitlines()[-1]),
                                        json.load(handle))
    return results, before, git_status()


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["command"][-1] == "bench/run.py"
    assert isinstance(BENCHMARK["run_seconds"], int) \
        and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = WORKLOADS + [entry["name"] for section in ("end_to_end", "per_layer")
                         for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for section in ("end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            assert UNIT.match(entry["unit"])
            assert entry["better"] in ("lower", "higher")
    setup = [e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


def test_benchmark_json_matches_the_code():
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import metrics
    import run
    assert [(e["name"], e["unit"], e["better"], e["bound"])
            for e in BENCHMARK["end_to_end"]] == metrics.END_TO_END
    assert [(e["name"], e["unit"], e["better"])
            for e in BENCHMARK["per_layer"]] == metrics.PER_LAYER
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert WORKLOADS == list(metrics.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_the_declared_metrics(smoke_runs, workload):
    results, _, _ = smoke_runs
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        last_line, document = results[workload, trace]
        assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
        assert last_line["correct"] is True and last_line["failed"] == 0
        assert last_line["attempted"] >= 1
        declared = {e["name"]: e["unit"] for e in BENCHMARK[section]}
        assert {name: entry["unit"]
                for name, entry in last_line["metrics"].items()} == declared
        for entry in last_line["metrics"].values():
            assert set(entry) == {"value", "unit"}
            assert isinstance(entry["value"], (int, float))
        assert document["schema"] == "repro-bench/1"
        assert document["status"] == "ok"
        assert document["checks"]["failed_frac"] == 0
        assert document["workload"] == workload and document["seed"] == SEED
        for key in ("cpu_model", "nproc", "python", "numpy", "scipy",
                    "kernel_backend", "git_rev", "loadavg_start", "loadavg_end"):
            assert key in document["machine"]
        for key in ("first_pass_sys_s", "first_pass_minflt",
                    "rss_after_first_pass_mb", "rss_at_exit_mb"):
            assert key in document["proc"]
    end_to_end = results[workload, 0][0]["metrics"]
    assert all(entry["value"] > 0 for entry in end_to_end.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traffic_counts_repeat_exactly(smoke_runs, workload):
    results, _, _ = smoke_runs
    end_to_end = results[workload, 0][0]["metrics"]
    layers = results[workload, 1][0]["metrics"]
    assert end_to_end["inter_node_msgs"]["value"] == \
        layers["simmpi.profiler.msgs_inter_node"]["value"]
    assert end_to_end["inter_node_bytes"]["value"] == \
        layers["simmpi.profiler.bytes_inter_node"]["value"]


def test_runs_leave_the_work_tree_alone(smoke_runs):
    _, before, after = smoke_runs
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def processes_in_session(session: int):
    """``(pid, state)`` of every process, zombies included, in a session."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue                    # ended while we were listing
        if int(fields[3]) == session:   # state, ppid, pgrp, session, ...
            found.append((int(entry), fields[0]))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_traced_run_leaves_no_process_behind():
    """The procs layer forks workers and starts multiprocessing's resource
    tracker; every one of them must have ended, and been waited for, by the
    time ``run.py`` exits — a survivor could serve the next run."""
    process = subprocess.Popen(
        [sys.executable, RUN, "--workload", "halo_exchange_4096", "--seed",
         str(SEED), "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    layers = json.loads(stdout.splitlines()[-1])["metrics"]
    assert layers["simmpi.procs.round_ms"]["value"] > 0    # procs really ran
    assert processes_in_session(process.pid) == []


@pytest.mark.parametrize("arguments", [
    ["--workload", "no_such_workload", "--seed", "1"],
    ["--workload", WORKLOADS[0], "--seed", "one"],
    ["--workload", WORKLOADS[0], "--seed", "-3"],
])
def test_invalid_requests_exit_2_without_a_result(arguments):
    done = subprocess.run([sys.executable, RUN, *arguments], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "invalid request" in done.stderr
