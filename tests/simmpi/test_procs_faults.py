"""Chaos suite: deterministic fault injection against the procs runtime.

Every test drives the supervision/recovery machinery of
:mod:`repro.simmpi.procs` through a :class:`~repro.simmpi.faults.FaultPlan`
— worker crashes (SIGKILL), hangs, dropped pipes, and corrupted wire bytes,
each injected at a chosen (round, phase, worker, attempt) — and asserts the
contract of ISSUE 7:

* **detection** — a dead worker is diagnosed via its process sentinel in
  well under the ack timeout (and far under the legacy 120 s poll);
* **recovery** — the pool respawns, re-registers every retained shared
  program, retries the failed command, and the results stay byte-identical
  to the single-process engine;
* **degradation** — with retries exhausted, ``on_failure="fallback"``
  finishes the round on the serial fused-kernel path, records a structured
  event, and keeps the engine serviceable;
* **hygiene** — no deadlocked ``close``, no zombie processes, no leaked
  shared-memory segments, pinned in a ``python -W error`` subprocess.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.collectives import Variant, WorldNeighborCollective, make_plan
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.pattern import random_pattern
from repro.simmpi import (
    FAULTS_ENV,
    ON_FAILURE_ENV,
    TIMEOUT_ENV,
    ExchangeEngine,
    FaultPlan,
    FaultSpec,
    default_on_failure,
    default_worker_timeout,
)
from repro.topology import paper_mapping
from repro.utils.errors import (
    CommunicationError,
    ValidationError,
    WorkerCrash,
    WorkerError,
)

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

N_RANKS = 6
N_WORKERS = 2

#: The acceptance bound: detection and diagnosis of a mid-round fault must
#: land well under the (legacy, hard-coded) 120 s timeout.
DETECTION_BOUND_S = 5.0


@pytest.fixture(scope="module")
def plan():
    pattern = random_pattern(N_RANKS, avg_neighbors=3,
                             duplicate_fraction=0.3, seed=13)
    mapping = paper_mapping(N_RANKS, ranks_per_node=3)
    return make_plan(pattern, mapping, Variant.FULL)


@pytest.fixture(scope="module")
def expected(plan):
    """Reference results from the single-process engine (explicitly, so the
    chaos CI job's ``REPRO_RUNTIME=procs`` cannot redirect the baseline)."""
    with WorldNeighborCollective(plan, runtime="engine") as collective:
        return collective.exchange(_values(collective))


def _values(collective, scale: float = 1.0):
    return [scale * (100.0 * rank
                     + collective.owned_item_ids(rank).astype(np.float64))
            for rank in range(N_RANKS)]


def _world_values(world, scale: float = 1.0):
    return np.concatenate([
        scale * (100.0 * rank + world.owned_item_ids(rank).astype(np.float64))
        for rank in range(N_RANKS)
    ])


def _run_per_rank(engine, handle, world, scale: float = 1.0):
    """One round; the engine's flat result cut into one array per rank."""
    return np.split(engine.run(handle, _world_values(world, scale)),
                    world.result_offsets[1:-1])


def _faulty_engine(faults, *, timeout=30.0, **kwargs) -> ExchangeEngine:
    return ExchangeEngine(N_RANKS, runtime="procs", n_workers=N_WORKERS,
                          fault_plan=FaultPlan(faults), timeout=timeout,
                          retry_backoff=0.01, **kwargs)


def _registered(engine, plan):
    world = compile_world_exchange(
        plan, ExchangeSpec(dtype=np.dtype(np.float64), item_size=1))
    return world, engine.register(world)


class TestFaultPlanParsing:
    def test_round_trip(self):
        text = "crash:1:send:0;hang:2:recv:1:*;corrupt:0:register:3:4"
        plan = FaultPlan.parse(text)
        assert len(plan) == 3
        assert plan.specs[0] == FaultSpec("crash", 1, "send", 0, 0)
        assert plan.specs[1] == FaultSpec("hang", 2, "recv", 1, None)
        assert plan.specs[2] == FaultSpec("corrupt", 0, "register", 3, 4)
        assert FaultPlan.parse(plan.describe()).specs == plan.specs

    def test_empty_entries_are_skipped(self):
        assert len(FaultPlan.parse("; crash:0:send:0 ; ;")) == 1
        assert not FaultPlan.parse("")

    @pytest.mark.parametrize("text", [
        "explode:0:send:0",          # unknown kind
        "crash:0:sideways:0",        # unknown phase
        "crash:0:send",              # too few fields
        "crash:0:send:0:1:2",        # too many fields
        "crash:x:send:0",            # non-integer round
        "crash:-1:send:0",           # negative round
    ])
    def test_rejects_malformed_entries(self, text):
        with pytest.raises(ValidationError):
            FaultPlan.parse(text)

    def test_from_environment(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_environment() is None
        monkeypatch.setenv(FAULTS_ENV, "pipe_drop:3:recv:1")
        plan = FaultPlan.from_environment()
        assert plan.specs == (FaultSpec("pipe_drop", 3, "recv", 1, 0),)

    def test_match_semantics(self):
        plan = FaultPlan([FaultSpec("crash", 1, "send", 0, None),
                          FaultSpec("hang", 2, "recv", 1, 3)])
        hit = plan.match(phases=("send", "recv"), round=1, worker=0, attempt=7)
        assert hit is plan.specs[0]          # wildcard attempt matches any
        assert plan.match(phases=("send",), round=2, worker=1,
                          attempt=3) is None  # phase filter applies
        assert plan.match(phases=("recv",), round=2, worker=1,
                          attempt=2) is None  # pinned attempt must match
        assert plan.match(phases=("recv",), round=2, worker=1,
                          attempt=3) is plan.specs[1]


class TestStructuredCrashes:
    def test_signal_and_describe(self):
        killed = WorkerCrash(worker_id=2, exitcode=-9, command="run",
                             detail="worker process died")
        assert killed.signal == 9
        assert "killed by signal 9" in killed.describe()
        exited = WorkerCrash(worker_id=0, exitcode=1, command="register",
                             detail="pipe closed")
        assert exited.signal is None
        assert "exited with code 1" in exited.describe()
        wedged = WorkerCrash(worker_id=1, exitcode=None, command="run",
                             detail="no acknowledgement")
        assert "stopped answering" in wedged.describe()

    def test_worker_error_is_a_communication_error(self):
        error = WorkerError("boom", crashes=(
            WorkerCrash(worker_id=0, exitcode=-9, command="run",
                        detail="died"),))
        assert isinstance(error, CommunicationError)
        assert error.crashes[0].signal == 9


class TestDetection:
    """A dead worker is diagnosed immediately, not after the timeout."""

    @pytest.mark.parametrize("kind", ["crash", "pipe_drop", "corrupt"])
    def test_dead_or_corrupt_worker_detected_fast(self, plan, kind):
        # The generous timeout proves detection is sentinel/EOF-driven, not
        # timeout-driven: with the legacy sequential poll this would block
        # the full 60 s before diagnosing anything.
        engine = _faulty_engine(
            [FaultSpec(kind, round=0, phase="send", worker=1)],
            timeout=60.0, on_failure="raise")
        try:
            world, handle = _registered(engine, plan)
            start = time.monotonic()
            with pytest.raises(WorkerError) as info:
                engine.run(handle, _world_values(world))
            elapsed = time.monotonic() - start
            assert elapsed < DETECTION_BOUND_S
            crashes = info.value.crashes
            assert [crash.worker_id for crash in crashes] == [1]
            assert crashes[0].command == "run"
            if kind == "crash":
                assert crashes[0].signal == 9
        finally:
            engine.close()

    def test_hung_worker_detected_at_the_configured_timeout(self, plan):
        engine = _faulty_engine(
            [FaultSpec("hang", round=0, phase="recv", worker=0)],
            timeout=1.0, on_failure="raise")
        try:
            world, handle = _registered(engine, plan)
            start = time.monotonic()
            with pytest.raises(WorkerError) as info:
                engine.run(handle, _world_values(world))
            elapsed = time.monotonic() - start
            # 1 s primary timeout + <= 1 s drain grace, nowhere near 120 s.
            assert elapsed < DETECTION_BOUND_S
            wedged = [crash for crash in info.value.crashes
                      if crash.worker_id == 0]
            assert wedged and wedged[0].exitcode is None
            assert "stopped answering" in wedged[0].describe()
        finally:
            engine.close()


class TestRecovery:
    """Respawn + retry reproduces the serial results byte for byte."""

    @pytest.mark.parametrize("kind", ["crash", "hang", "pipe_drop", "corrupt"])
    @pytest.mark.parametrize("phase", ["send", "recv"])
    def test_mid_round_fault_recovers_byte_identical(self, plan, expected,
                                                     kind, phase):
        timeout = 1.0 if kind == "hang" else 30.0
        engine = _faulty_engine(
            [FaultSpec(kind, round=1, phase=phase, worker=0)],
            timeout=timeout)
        try:
            world, handle = _registered(engine, plan)
            for round_index, scale in enumerate([1.0, 2.0, 3.0]):
                results = _run_per_rank(engine, handle, world, scale)
                for rank in range(N_RANKS):
                    assert np.array_equal(results[rank],
                                          scale * expected[rank]), \
                        (kind, phase, round_index, rank)
            actions = [event.action for event in engine.events]
            assert actions == ["retry"]
            assert engine.events[0].command == "run"
            assert not engine.degraded
        finally:
            engine.close()

    @pytest.mark.parametrize("kind", ["crash", "hang", "pipe_drop", "corrupt"])
    def test_register_fault_recovers(self, plan, expected, kind):
        timeout = 1.0 if kind == "hang" else 30.0
        engine = _faulty_engine(
            [FaultSpec(kind, round=0, phase="register", worker=1)],
            timeout=timeout)
        try:
            world, handle = _registered(engine, plan)
            results = _run_per_rank(engine, handle, world)
            for rank in range(N_RANKS):
                assert np.array_equal(results[rank], expected[rank])
            assert [event.action for event in engine.events] == ["retry"]
            assert engine.events[0].command == "register"
        finally:
            engine.close()

    def test_recovered_pool_serves_many_more_rounds(self, plan, expected):
        """No stale acks: a recovered pool keeps answering round after round."""
        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="recv", worker=1)])
        try:
            world, handle = _registered(engine, plan)
            pool = engine._pool
            for scale in [1.0, 0.5, -2.0, 7.0, 11.0]:
                results = _run_per_rank(engine, handle, world, scale)
                for rank in range(N_RANKS):
                    assert np.array_equal(results[rank],
                                          scale * expected[rank])
            assert engine._pool is pool  # same pool object, respawned workers
            assert pool.started and not engine.degraded
        finally:
            engine.close()

    def test_second_program_registered_after_recovery(self, plan, expected):
        """Respawn re-registers retained programs; new ones still register."""
        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="send", worker=0)])
        try:
            world, handle = _registered(engine, plan)
            first = _run_per_rank(engine, handle, world)
            world2, handle2 = _registered(engine, plan)
            second = _run_per_rank(engine, handle2, world2, 3.0)
            for rank in range(N_RANKS):
                assert np.array_equal(first[rank], expected[rank])
                assert np.array_equal(second[rank], 3.0 * expected[rank])
        finally:
            engine.close()


class TestFallback:
    """Retries exhausted -> the round completes on the serial path."""

    def test_persistent_crash_falls_back_byte_identical(self, plan, expected):
        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="send", worker=0,
                       attempt=None)],  # fires on every attempt
            max_retries=1, on_failure="fallback")
        try:
            world, handle = _registered(engine, plan)
            results = _run_per_rank(engine, handle, world)
            for rank in range(N_RANKS):
                assert np.array_equal(results[rank], expected[rank])
            actions = [event.action for event in engine.events]
            assert actions == ["retry", "give-up", "fallback"]
            fallback = engine.events[-1]
            assert fallback.command == "run"
            assert fallback.crashes  # the structured diagnosis rides along
            assert "single-process" in fallback.chosen
            assert engine.degraded
            # The quarantined pool's workers are gone; later rounds run
            # serially on the retained shared segments and stay correct.
            assert not engine._pool.started
            again = _run_per_rank(engine, handle, world, 2.0)
            for rank in range(N_RANKS):
                assert np.array_equal(again[rank], 2.0 * expected[rank])
        finally:
            engine.close()

    def test_persistent_register_fault_falls_back(self, plan, expected):
        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="register", worker=1,
                       attempt=None)],
            max_retries=1, on_failure="fallback")
        try:
            world, handle = _registered(engine, plan)
            assert engine.degraded
            assert [event.action for event in engine.events][-1] == "fallback"
            results = _run_per_rank(engine, handle, world)
            for rank in range(N_RANKS):
                assert np.array_equal(results[rank], expected[rank])
        finally:
            engine.close()

    def test_event_trace_is_readable(self, plan):
        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="send", worker=0,
                       attempt=None)],
            max_retries=0, on_failure="fallback")
        try:
            world, handle = _registered(engine, plan)
            engine.run(handle, _world_values(world))
            lines = [event.describe() for event in engine.events]
            assert any("give-up" in line for line in lines)
            assert any("killed by signal 9" in line for line in lines)
            assert any("->" in line for line in lines)
        finally:
            engine.close()


class TestPolicyAndConfiguration:
    def test_raise_policy_fails_fast_without_retry(self, plan):
        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="send", worker=0)],
            on_failure="raise")
        try:
            world, handle = _registered(engine, plan)
            with pytest.raises(WorkerError):
                engine.run(handle, _world_values(world))
            actions = [event.action for event in engine.events]
            assert actions == ["give-up"]  # no retry was attempted
        finally:
            engine.close()

    def test_retry_policy_raises_after_exhaustion(self, plan):
        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="send", worker=0,
                       attempt=None)],
            max_retries=1, on_failure="retry")
        try:
            world, handle = _registered(engine, plan)
            with pytest.raises(WorkerError):
                engine.run(handle, _world_values(world))
            actions = [event.action for event in engine.events]
            assert actions == ["retry", "give-up"]
            assert not engine.degraded  # "retry" never falls back
        finally:
            engine.close()

    def test_on_failure_validation_and_env_default(self, monkeypatch):
        with pytest.raises(ValidationError, match="on_failure"):
            ExchangeEngine(4, on_failure="shrug")
        monkeypatch.delenv(ON_FAILURE_ENV, raising=False)
        assert default_on_failure() == "retry"
        monkeypatch.setenv(ON_FAILURE_ENV, "fallback")
        assert default_on_failure() == "fallback"
        engine = ExchangeEngine(4, runtime="procs", n_workers=2)
        assert engine.on_failure == "fallback"
        engine.close()
        monkeypatch.setenv(ON_FAILURE_ENV, "quantum")
        with pytest.raises(ValidationError, match=ON_FAILURE_ENV):
            default_on_failure()

    def test_timeout_env_and_validation(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        assert default_worker_timeout() == 120.0
        monkeypatch.setenv(TIMEOUT_ENV, "7.5")
        assert default_worker_timeout() == 7.5
        engine = ExchangeEngine(4, runtime="procs", n_workers=2)
        assert engine._pool.timeout == 7.5
        engine.close()
        monkeypatch.setenv(TIMEOUT_ENV, "soon")
        with pytest.raises(ValidationError, match=TIMEOUT_ENV):
            default_worker_timeout()
        monkeypatch.setenv(TIMEOUT_ENV, "-3")
        with pytest.raises(ValidationError, match="positive"):
            default_worker_timeout()
        with pytest.raises(ValidationError, match="positive"):
            ExchangeEngine(4, runtime="procs", n_workers=2, timeout=0.0)

    def test_faults_env_drives_injection_end_to_end(self, plan, expected,
                                                    monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:0:send:1")
        with WorldNeighborCollective(plan, runtime="procs",
                                     n_workers=N_WORKERS) as collective:
            results = collective.exchange(_values(collective))
            for rank in range(N_RANKS):
                assert np.array_equal(results[rank], expected[rank])
            assert [event.action
                    for event in collective.engine.events] == ["retry"]


class TestCloseHygiene:
    def test_close_does_not_deadlock_on_barrier_blocked_worker(self, plan):
        """A worker whose peer died mid-round is parked in ``Barrier.wait``;
        ``close`` must abort the barrier so it reads the close command
        instead of forcing the 10 s join-then-terminate path."""
        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="send", worker=0)],
            on_failure="raise")
        try:
            world, handle = _registered(engine, plan)
            pool = engine._pool
            # Dispatch without collecting: worker 0 dies at its first send
            # step, worker 1 completes the step and parks in Barrier.wait.
            pool._dispatch(("run", handle, 0, 0), "run")
            deadline = time.monotonic() + DETECTION_BOUND_S
            while pool._processes[0].is_alive() \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.2)  # give worker 1 time to commit to the barrier
            start = time.monotonic()
        finally:
            engine.close()
        assert time.monotonic() - start < 5.0

    def test_quarantined_and_closed_pools_leave_no_processes(self, plan):
        import multiprocessing as mp

        engine = _faulty_engine(
            [FaultSpec("crash", round=0, phase="send", worker=0,
                       attempt=None)],
            max_retries=0, on_failure="fallback")
        world, handle = _registered(engine, plan)
        engine.run(handle, _world_values(world))
        assert engine.degraded
        workers = [process for process in mp.active_children()
                   if process.name.startswith("repro-exchange-worker")]
        assert workers == []  # quarantine already reaped the pool
        engine.close()


#: Run in a subprocess so interpreter shutdown is part of the test: one
#: engine recovers from an injected crash, one falls back permanently, with
#: every warning (ResourceWarning included) promoted to an error and a
#: zombie/segment sweep at exit.
_CHAOS_HYGIENE_SCRIPT = textwrap.dedent("""
    import gc
    import multiprocessing as mp
    import numpy as np
    from repro.collectives import Variant, make_plan
    from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
    from repro.pattern import random_pattern
    from repro.simmpi import ExchangeEngine, FaultPlan, FaultSpec
    from repro.topology import paper_mapping

    pattern = random_pattern(6, avg_neighbors=3, seed=13)
    mapping = paper_mapping(6, ranks_per_node=3)
    plan = make_plan(pattern, mapping, Variant.FULL)
    spec = ExchangeSpec(dtype=np.dtype(np.float64), item_size=1)

    def world_values(world):
        return np.concatenate([
            100.0 * rank + world.owned_item_ids(rank).astype(np.float64)
            for rank in range(6)])

    # Crash -> respawn -> recover, then explicit close.
    recovered = ExchangeEngine(
        6, runtime="procs", n_workers=2, timeout=30.0, retry_backoff=0.01,
        fault_plan=FaultPlan([FaultSpec("crash", 0, "send", 0)]))
    world = compile_world_exchange(plan, spec)
    handle = recovered.register(world)
    recovered.run(handle, world_values(world))
    assert [event.action for event in recovered.events] == ["retry"]
    recovered.close()

    # Persistent crash -> serial fallback, engine dropped for the finalizer.
    degraded = ExchangeEngine(
        6, runtime="procs", n_workers=2, timeout=30.0, retry_backoff=0.01,
        max_retries=0, on_failure="fallback",
        fault_plan=FaultPlan([FaultSpec("crash", 0, "recv", 1, None)]))
    world = compile_world_exchange(plan, spec)
    handle = degraded.register(world)
    degraded.run(handle, world_values(world))
    assert degraded.degraded
    del degraded
    gc.collect()

    leftovers = [process for process in mp.active_children()
                 if process.name.startswith("repro-exchange-worker")]
    assert leftovers == [], f"zombie workers: {leftovers}"
    print("OK")
""")


def test_no_leaks_or_zombies_after_chaos_under_w_error():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.pop(FAULTS_ENV, None)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", _CHAOS_HYGIENE_SCRIPT],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "OK" in result.stdout
    assert "ResourceWarning" not in result.stderr
    assert "leaked" not in result.stderr


class TestAutotuneUnderFaults:
    """ISSUE 9's chaos contract: a worker crash mid-probe must not corrupt
    the online selector.  The engine's supervision retries the failed round;
    the V-cycle sees the recovery (the engine's event count moved) and ends
    the tainted measurement cycle with ``recovered=True``, so the selector
    discards it wholesale, records the overlap on the trace, and still
    commits cleanly once clean probe windows complete."""

    def _problem(self):
        from repro.amg.hierarchy import build_hierarchy
        from repro.sparse.parcsr import ParCSRMatrix
        from repro.sparse.partition import RowPartition
        from repro.sparse.stencils import poisson_2d

        matrix = ParCSRMatrix(poisson_2d((12, 12)),
                              RowPartition.even(144, N_RANKS))
        hierarchy = build_hierarchy(matrix, seed=1)
        mapping = paper_mapping(N_RANKS, ranks_per_node=3)
        return matrix, hierarchy, mapping

    def _auto_cycles(self, engine, hierarchy, mapping, n_rows):
        from repro.amg.vcycle import WorldVCycle
        from repro.collectives.autotune import OnlineSelector

        selector = OnlineSelector(window=1)
        b = np.ones(n_rows, dtype=np.float64)
        x = np.zeros(n_rows, dtype=np.float64)
        with WorldVCycle(hierarchy, mapping, variant="auto",
                         selector=selector, engine=engine) as vcycle:
            # One discarded cycle costs one extra cycle of probing.
            for _ in range(selector.probe_budget + 3):
                x = vcycle.cycle(b, x)
        return x, selector

    def test_crash_mid_probe_recovers_and_commits_cleanly(self):
        from repro.collectives.autotune import FixedStepClock

        matrix, hierarchy, mapping = self._problem()

        # Clean reference: the same auto schedule on the serial engine.
        clean = ExchangeEngine(N_RANKS, runtime="engine",
                               clock=FixedStepClock())
        try:
            x_clean, selector_clean = self._auto_cycles(
                clean, hierarchy, mapping, matrix.n_rows)
        finally:
            clean.close()

        # Faulty run: SIGKILL a worker a few engine rounds in — inside the
        # selector's very first probe window.
        engine = ExchangeEngine(
            N_RANKS, runtime="procs", n_workers=N_WORKERS,
            fault_plan=FaultPlan([FaultSpec("crash", round=3, phase="send",
                                            worker=0)]),
            retry_backoff=0.01, clock=FixedStepClock())
        try:
            x_faulty, selector = self._auto_cycles(
                engine, hierarchy, mapping, matrix.n_rows)
            assert [event.action for event in engine.events] == ["retry"]
            assert not engine.degraded
        finally:
            engine.close()

        # Numerics survived the crash bit-for-bit.
        assert np.array_equal(x_faulty, x_clean)

        # The selector state machine came out healthy: every level is
        # committed, estimates are finite and positive, nothing half-probed.
        trace = selector.trace
        trace.validate()
        for level in selector.seeded_levels():
            assert not selector.is_probing(level)
            assert all(value > 0.0
                       for value in selector.estimates(level).values())
            assert trace.committed(level) == selector.committed(level)

        # The overlap is on the record: exactly one recovery event, on the
        # cycle the crash hit, and that cycle advanced no probe window.
        recoveries = trace.events(kind="recovery")
        assert len(recoveries) == 1
        assert recoveries[0].source == "runtime"
        tainted_cycle = recoveries[0].cycle
        assert all(event.cycle != tainted_cycle
                   for event in trace.events(kind="probe"))

        # Same decisions as the clean run — one cycle later (the discard).
        assert selector.choices() == selector_clean.choices()
        assert selector.cycles == selector_clean.cycles

    def test_fallback_mid_probe_keeps_the_selector_consistent(self):
        """Retries exhausted -> serial fallback mid-cycle: the cycle is
        still discarded (the engine recovered), later serial cycles are
        clean, and the selector converges."""
        from repro.collectives.autotune import FixedStepClock

        matrix, hierarchy, mapping = self._problem()
        engine = ExchangeEngine(
            N_RANKS, runtime="procs", n_workers=N_WORKERS,
            fault_plan=FaultPlan([FaultSpec("crash", round=3, phase="send",
                                            worker=0, attempt=None)]),
            max_retries=1, on_failure="fallback",
            retry_backoff=0.01, clock=FixedStepClock())
        try:
            x, selector = self._auto_cycles(
                engine, hierarchy, mapping, matrix.n_rows)
            assert engine.degraded
            assert [event.action for event in engine.events] == \
                ["retry", "give-up", "fallback"]
        finally:
            engine.close()
        trace = selector.trace
        trace.validate()
        assert len(trace.events(kind="recovery")) == 1
        for level in selector.seeded_levels():
            assert not selector.is_probing(level)
        assert np.isfinite(x).all()
