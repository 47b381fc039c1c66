"""Worker failures on the procs runtime: detection, recovery, give-up, hygiene.

The pool has one failure policy: on a dead or wedged worker it respawns its
workers, re-registers every retained shared program and retries the failed
command, at most ``procs.MAX_RETRIES`` times, then raises
:class:`~repro.utils.errors.WorkerError`.  The failures here come from the
tests themselves (``worker_fates``): a worker SIGKILLed from here between
rounds, or a patched ``_run_round`` / ``_attach_program`` that kills, exits,
hangs or raises in a chosen round or registration.  The suite pins:

* **detection** — a dead worker is diagnosed through its process sentinel,
  well under the ack timeout, and a hanging one at the (patched, short) ack
  timeout;
* **recovery** — rounds, vector-bound handles and registrations recover
  byte-identically to the single-process engine, with one ``"retry"`` event;
* **policy** — at most ``MAX_RETRIES`` retries, a doubling
  ``RETRY_BACKOFF`` between them, a ``WORKER_TIMEOUT`` ack timeout;
* **give-up** — a command that fails on every attempt raises
  ``WorkerError`` after ``"retry", "retry", "give-up"``, and a program
  error inside a worker is a plain ``CommunicationError``, never retried;
* **hygiene** — no deadlocked ``close``, no zombie processes, no leaked
  shared-memory segments, pinned in a ``python -W error`` subprocess.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import textwrap
import time

import numpy as np
import pytest

from test_procs_resources import run_in_own_session
from worker_fates import kill_worker, set_fates

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.pattern import random_pattern
from repro.simmpi import ExchangeEngine, procs
from repro.topology import paper_mapping
from repro.utils.errors import CommunicationError, WorkerCrash, WorkerError

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

N_RANKS = 6
N_WORKERS = 2

#: The budget for diagnosing and replacing a dead or wedged worker, far under
#: the 120 s ack timeout.
DETECTION_BOUND_S = 5.0


def _world(variant: Variant = Variant.FULL, seed: int = 13):
    pattern = random_pattern(N_RANKS, avg_neighbors=3,
                             duplicate_fraction=0.3, seed=seed)
    plan = make_plan(pattern, paper_mapping(N_RANKS, ranks_per_node=3),
                     variant)
    return compile_world_exchange(
        plan, ExchangeSpec(dtype=np.dtype(np.float64), item_size=1))


def _values(world, scale: float = 1.0) -> np.ndarray:
    return scale * (7.0 + world.owned_items_all.astype(np.float64))


def _vector(world, scale: float = 1.0) -> np.ndarray:
    return scale * (7.0 + np.arange(int(world.owned_items_all.max()) + 3,
                                    dtype=np.float64))


def _expected(world, scale: float = 1.0) -> bytes:
    """One round's bytes on the single-process engine (named explicitly, so
    ``REPRO_RUNTIME=procs`` cannot redirect the reference)."""
    with ExchangeEngine(N_RANKS, runtime="engine") as engine:
        return engine.run(engine.register(world),
                          _values(world, scale)).tobytes()


def _pool() -> ExchangeEngine:
    return ExchangeEngine(N_RANKS, runtime="procs", n_workers=N_WORKERS)


def _actions(engine) -> list:
    return [event.action for event in engine.events]


@pytest.fixture
def short_timeout(monkeypatch):
    """A 1 s ack timeout, so a hanging worker is declared wedged quickly."""
    monkeypatch.setattr(procs, "WORKER_TIMEOUT", 1.0)


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
    """A dead worker is diagnosed at once, a wedged one at the timeout."""

    @pytest.mark.parametrize("how", ["killed_between_rounds",
                                     "killed_mid_round", "exited_mid_round"])
    def test_a_dead_worker_is_detected_within_the_budget(self, monkeypatch,
                                                         tmp_path, how):
        # The 120 s ack timeout stands: a round that recovers in well under
        # 5 s was diagnosed by the dead worker's sentinel or pipe.
        world = _world()
        fates = {"killed_mid_round": ["ok", "kill"],
                 "exited_mid_round": ["ok", "exit"]}.get(how, [])
        set_fates(monkeypatch, tmp_path, fates, worker=1)
        with _pool() as engine:
            handle = engine.register(world)
            engine.run(handle, _values(world))
            if how == "killed_between_rounds":
                kill_worker(engine, 1)
            start = time.monotonic()
            result = engine.run(handle, _values(world, 2.0))
            elapsed = time.monotonic() - start
            assert elapsed < DETECTION_BOUND_S
            assert result.tobytes() == _expected(world, 2.0)
            assert _actions(engine) == ["retry"]
            crashes = engine.events[0].crashes
            assert [crash.worker_id for crash in crashes] == [1]
            assert crashes[0].command == "run"
            assert crashes[0].exitcode == (0 if how == "exited_mid_round"
                                           else -9)

    def test_a_hung_worker_is_detected_at_the_timeout(self, monkeypatch,
                                                      tmp_path,
                                                      short_timeout):
        world = _world()
        set_fates(monkeypatch, tmp_path, ["hang"])
        with _pool() as engine:
            handle = engine.register(world)
            start = time.monotonic()
            result = engine.run(handle, _values(world))
            elapsed = time.monotonic() - start
            # 1 s timeout + <= 1 s drain grace + the respawn: nowhere near
            # the 120 s default.
            assert elapsed < DETECTION_BOUND_S
            assert result.tobytes() == _expected(world)
            assert _actions(engine) == ["retry"]
            wedged = [crash for crash in engine.events[0].crashes
                      if crash.worker_id == 0]
            assert wedged and wedged[0].exitcode is None
            assert "stopped answering" in wedged[0].describe()


class TestRecovery:
    """Respawn + retry reproduces the serial results byte for byte."""

    @pytest.mark.parametrize("fate", ["kill", "exit", "hang"])
    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
    def test_a_round_recovers_byte_identical(self, monkeypatch, tmp_path,
                                             short_timeout, variant, fate):
        world = _world(variant)
        set_fates(monkeypatch, tmp_path, ["ok", fate])
        with _pool() as engine:
            handle = engine.register(world)
            for scale in (1.0, 2.0, 3.0):
                assert engine.run(handle, _values(world, scale)).tobytes() \
                    == _expected(world, scale), (fate, scale)
            assert _actions(engine) == ["retry"]
            assert engine.events[0].command == "run"

    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
    def test_a_bound_handle_recovers_byte_identical(self, monkeypatch,
                                                    tmp_path, variant):
        world = _world(variant)
        n = _vector(world).size
        with ExchangeEngine(N_RANKS, runtime="engine") as serial:
            reference = serial.register(world, vector_length=n)
            expected = [serial.run(reference, _vector(world, scale)).tobytes()
                        for scale in (1.0, -2.5, 4.0)]
        set_fates(monkeypatch, tmp_path, ["ok", "kill"])
        with _pool() as engine:
            handle = engine.register(world, vector_length=n)
            for scale, reference in zip((1.0, -2.5, 4.0), expected):
                assert engine.run(handle, _vector(world, scale)).tobytes() \
                    == reference
            assert _actions(engine) == ["retry"]

    def test_a_registration_recovers_byte_identical(self):
        first, second = _world(), _world(Variant.PARTIAL, seed=21)
        with _pool() as engine:
            handles = [engine.register(first)]
            engine.run(handles[0], _values(first))
            kill_worker(engine, 1)
            handles.append(engine.register(second))
            assert _actions(engine) == ["retry"]
            assert engine.events[0].command == "register"
            assert engine.events[0].crashes[0].worker_id == 1
            for handle, world in zip(handles, (first, second)):
                assert engine.run(handle, _values(world, 3.0)).tobytes() \
                    == _expected(world, 3.0)

    @pytest.mark.parametrize("fate", ["kill", "exit", "hang"])
    def test_a_failed_registration_recovers_byte_identical(
            self, monkeypatch, tmp_path, short_timeout, fate):
        """A worker that fails while attaching a new program: the respawn
        re-registers both programs, and neither handle moves."""
        first, second = _world(), _world(Variant.STANDARD, seed=21)
        set_fates(monkeypatch, tmp_path, ["ok", fate], worker=1,
                  command="register")
        with _pool() as engine:
            handles = [engine.register(first)]
            handles.append(engine.register(second))
            assert handles == [0, 1]
            assert _actions(engine) == ["retry"]
            assert engine.events[0].command == "register"
            failed = [crash for crash in engine.events[0].crashes
                      if crash.worker_id == 1]
            assert failed and failed[0].exitcode == {
                "kill": -9, "exit": 0, "hang": None}[fate]
            for handle, world in zip(handles, (first, second)):
                assert engine.run(handle, _values(world, 3.0)).tobytes() \
                    == _expected(world, 3.0)
            assert len(engine.events) == 1

    def test_two_dead_workers_recover_in_one_retry(self):
        world = _world()
        with _pool() as engine:
            handle = engine.register(world)
            engine.run(handle, _values(world))
            for worker in range(N_WORKERS):
                kill_worker(engine, worker)
            assert engine.run(handle, _values(world, 2.0)).tobytes() \
                == _expected(world, 2.0)
            assert _actions(engine) == ["retry"]
            assert sorted(crash.worker_id
                          for crash in engine.events[0].crashes) \
                == list(range(N_WORKERS))
            assert all(crash.signal == 9
                       for crash in engine.events[0].crashes)

    def test_recovered_pool_serves_many_more_rounds(self, monkeypatch,
                                                    tmp_path):
        """No stale acks: a recovered pool keeps answering round after
        round, on the same pool object."""
        world = _world()
        set_fates(monkeypatch, tmp_path, ["kill"], worker=1)
        with _pool() as engine:
            handle = engine.register(world)
            pool = engine._pool
            for scale in (1.0, 0.5, -2.0, 7.0, 11.0):
                assert engine.run(handle, _values(world, scale)).tobytes() \
                    == _expected(world, scale)
            assert engine._pool is pool and pool.started
            assert _actions(engine) == ["retry"]

    def test_second_program_registered_after_recovery(self, monkeypatch,
                                                       tmp_path):
        first, second = _world(), _world(seed=34)
        set_fates(monkeypatch, tmp_path, ["kill"])
        with _pool() as engine:
            handle = engine.register(first)
            assert engine.run(handle, _values(first)).tobytes() \
                == _expected(first)
            later = engine.register(second)
            assert engine.run(later, _values(second, 3.0)).tobytes() \
                == _expected(second, 3.0)
            assert _actions(engine) == ["retry"]

    def test_an_unreadable_acknowledgement_is_a_crash(self, monkeypatch,
                                                      tmp_path):
        """Bytes that do not unpickle are the worker's fault, not a program
        error: the pool respawns and retries."""
        world = _world()
        garbled = tmp_path / "garbled"
        send = procs._safe_send

        def garble_once(conn, payload):  # pragma: no cover - forked child
            if payload == (0, None) and not garbled.exists():
                garbled.touch()
                conn.send_bytes(b"not a pickle")
                return True
            return send(conn, payload)

        monkeypatch.setattr(procs, "_safe_send", garble_once)
        with _pool() as engine:
            handle = engine.register(world)
            assert engine.run(handle, _values(world)).tobytes() \
                == _expected(world)
            assert _actions(engine) == ["retry"]
            assert engine.events[0].command == "register"
            assert "unreadable acknowledgement" in \
                engine.events[0].crashes[0].detail


class TestGiveUp:
    def test_spent_retries_raise_worker_error(self, monkeypatch, tmp_path):
        world = _world()
        set_fates(monkeypatch, tmp_path, ["kill"] * (procs.MAX_RETRIES + 1))
        with _pool() as engine:
            handle = engine.register(world)
            with pytest.raises(WorkerError) as info:
                engine.run(handle, _values(world))
            assert [crash.signal for crash in info.value.crashes] == [9]
            assert _actions(engine) == ["retry", "retry", "give-up"]
            assert [event.attempt for event in engine.events] == [0, 1, 2]
            lines = [event.describe() for event in engine.events]
            assert all("killed by signal 9" in line and "->" in line
                       for line in lines)
            # The fates are spent: the next round respawns and runs.
            assert engine.run(handle, _values(world, 2.0)).tobytes() \
                == _expected(world, 2.0)
            assert len(engine.events) == 3

    @pytest.mark.parametrize("fate", ["exit", "hang"])
    def test_spent_retries_name_each_crash(self, monkeypatch, tmp_path,
                                           short_timeout, fate):
        """Every attempt's crash record says how the worker failed: an exit
        code for a worker that left, none for one that stopped answering."""
        world = _world()
        set_fates(monkeypatch, tmp_path, [fate] * (procs.MAX_RETRIES + 1))
        with _pool() as engine:
            handle = engine.register(world)
            with pytest.raises(WorkerError) as info:
                engine.run(handle, _values(world))
            assert _actions(engine) == ["retry", "retry", "give-up"]
            expected = {"exit": "exited with code 0",
                        "hang": "stopped answering"}[fate]
            for crashes in [info.value.crashes] + [event.crashes
                                                   for event in engine.events]:
                mine = [crash for crash in crashes if crash.worker_id == 0]
                assert mine and expected in mine[0].describe()
                assert mine[0].signal is None
            # The next round replaces the failed generation and runs.
            assert engine.run(handle, _values(world, 2.0)).tobytes() \
                == _expected(world, 2.0)
            assert len(engine.events) == 3

    def test_a_registration_that_always_fails_gives_up_cleanly(
            self, monkeypatch, tmp_path):
        """A registration that fails on every attempt raises, takes no
        handle and keeps no segments; the program before it still runs."""
        first, second = _world(), _world(seed=34)
        set_fates(monkeypatch, tmp_path,
                  ["ok"] + ["kill"] * (procs.MAX_RETRIES + 1),
                  command="register")
        with _pool() as engine:
            handle = engine.register(first)
            with pytest.raises(WorkerError):
                engine.register(second)
            assert _actions(engine) == ["retry", "retry", "give-up"]
            assert {event.command for event in engine.events} == {"register"}
            assert len(engine._pool._programs) == 1
            assert engine.run(handle, _values(first, 2.0)).tobytes() \
                == _expected(first, 2.0)
            assert engine.register(second) == 1

    def test_the_backoff_doubles_between_attempts(self, monkeypatch,
                                                  tmp_path):
        world = _world()
        set_fates(monkeypatch, tmp_path, ["kill"] * (procs.MAX_RETRIES + 1))
        pauses = []
        sleep = time.sleep

        def recorded(seconds):
            pauses.append(seconds)
            sleep(seconds)

        with _pool() as engine:
            handle = engine.register(world)
            monkeypatch.setattr(procs.time, "sleep", recorded)
            with pytest.raises(WorkerError):
                engine.run(handle, _values(world))
            monkeypatch.setattr(procs.time, "sleep", sleep)
            assert pauses == [procs.RETRY_BACKOFF * 2 ** attempt
                              for attempt in range(procs.MAX_RETRIES)]
            retries = [event.chosen for event in engine.events[:-1]]
            assert [f"after {pause:.2f}s backoff" in chosen
                    for pause, chosen in zip(pauses, retries)] \
                == [True] * procs.MAX_RETRIES

    def test_the_one_policy_keeps_its_constants(self):
        """The retry policy is fixed, not configured: two retries, a 0.05 s
        doubling backoff, a 120 s ack timeout."""
        assert procs.MAX_RETRIES == 2
        assert procs.RETRY_BACKOFF == 0.05
        assert procs.WORKER_TIMEOUT == 120.0

    def test_a_program_error_in_a_worker_is_not_retried(self, monkeypatch,
                                                        tmp_path):
        world = _world()
        set_fates(monkeypatch, tmp_path, ["raise"])
        with _pool() as engine:
            handle = engine.register(world)
            with pytest.raises(CommunicationError,
                               match="a program error inside the worker") \
                    as info:
                engine.run(handle, _values(world))
            assert not isinstance(info.value, WorkerError)
            assert engine.events == []
            # The same workers serve the next round.
            pids = [process.pid for process in engine._pool._processes]
            assert engine.run(handle, _values(world, 2.0)).tobytes() \
                == _expected(world, 2.0)
            assert [process.pid for process in engine._pool._processes] \
                == pids


class TestCloseHygiene:
    def test_close_does_not_deadlock_on_barrier_blocked_worker(
            self, monkeypatch, tmp_path):
        """A worker whose peer died mid-round is parked in ``Barrier.wait``;
        ``close`` must abort the barrier so it reads the close command
        instead of forcing the 10 s join-then-terminate path."""
        world = _world()
        set_fates(monkeypatch, tmp_path, ["kill"])
        engine = _pool()
        try:
            handle = engine.register(world)
            pool = engine._pool
            # Dispatch without collecting: worker 0 dies in its round, worker
            # 1 completes its share and parks in Barrier.wait.
            pool._dispatch(("run", handle), "run")
            pool._processes[0].join(timeout=DETECTION_BOUND_S)
            time.sleep(0.2)  # give worker 1 time to commit to the barrier
            start = time.monotonic()
        finally:
            engine.close()
        assert time.monotonic() - start < 5.0

    def test_close_after_a_kill_between_rounds_leaves_no_processes(self):
        """A pool whose worker was killed and never noticed closes without
        a recovery and leaves no worker behind."""
        world = _world()
        engine = _pool()
        try:
            handle = engine.register(world)
            engine.run(handle, _values(world))
            kill_worker(engine, 0)
        finally:
            engine.close()
        assert engine.events == []
        assert [process for process in mp.active_children()
                if process.name.startswith("repro-exchange-worker")] == []

    def test_a_pool_that_gave_up_leaves_no_processes(self, monkeypatch,
                                                     tmp_path):
        world = _world()
        set_fates(monkeypatch, tmp_path, ["kill"] * (procs.MAX_RETRIES + 1))
        engine = _pool()
        handle = engine.register(world)
        with pytest.raises(WorkerError):
            engine.run(handle, _values(world))
        engine.close()
        assert [process for process in mp.active_children()
                if process.name.startswith("repro-exchange-worker")] == []


#: Run in a subprocess so interpreter shutdown is part of the test: one
#: engine recovers from a killed worker and is closed, one gives up and is
#: dropped for its finalizer, with every warning (ResourceWarning included)
#: promoted to an error and a zombie sweep at exit.
_CHAOS_HYGIENE_SCRIPT = textwrap.dedent("""
    import gc
    import multiprocessing as mp
    import os
    import signal
    import numpy as np
    from repro.collectives import Variant, make_plan
    from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
    from repro.pattern import random_pattern
    from repro.simmpi import ExchangeEngine, procs
    from repro.topology import paper_mapping
    from repro.utils.errors import WorkerError

    pattern = random_pattern(6, avg_neighbors=3, seed=13)
    plan = make_plan(pattern, paper_mapping(6, ranks_per_node=3), Variant.FULL)
    world = compile_world_exchange(
        plan, ExchangeSpec(dtype=np.dtype(np.float64), item_size=1))
    values = world.owned_items_all.astype(np.float64)

    # A worker killed between rounds -> respawn -> recover, then close.
    recovered = ExchangeEngine(6, runtime="procs", n_workers=2)
    handle = recovered.register(world)
    recovered.run(handle, values)
    os.kill(recovered._pool._processes[0].pid, signal.SIGKILL)
    recovered.run(handle, values)
    assert [event.action for event in recovered.events] == ["retry"]
    recovered.close()

    # A worker that dies in every round -> give up, engine dropped.
    run_round = procs._run_round

    def dying_round(program, worker_id, n_workers, barrier):
        if worker_id == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        run_round(program, worker_id, n_workers, barrier)

    procs._run_round = dying_round
    given_up = ExchangeEngine(6, runtime="procs", n_workers=2)
    handle = given_up.register(world)
    try:
        given_up.run(handle, values)
    except WorkerError:
        pass
    else:
        raise AssertionError("a worker that always dies did not surface")
    assert [event.action for event in given_up.events][-1] == "give-up"
    del given_up
    gc.collect()

    leftovers = [process for process in mp.active_children()
                 if process.name.startswith("repro-exchange-worker")]
    assert leftovers == [], f"zombie workers: {leftovers}"
    print("OK")
""")


def test_no_leaks_or_zombies_after_chaos_under_w_error():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    result, survivors = run_in_own_session(_CHAOS_HYGIENE_SCRIPT, env)
    assert result.returncode == 0, result.stderr
    assert "OK" in result.stdout
    assert "ResourceWarning" not in result.stderr
    assert "leaked" not in result.stderr
    assert survivors == []
