"""What a ``runtime="procs"`` engine holds per registered program, and what a
failed registration leaves behind: nothing.

A program is two arrays, so sharing it is two segments — not one per
phase array — and a segment the kernel refuses (``EMFILE`` under a low
``ulimit -n``, a full ``/dev/shm``) must take the one created before it down
with it instead of leaving it to the resource tracker.
"""

from __future__ import annotations

import errno
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.pattern import random_pattern
from repro.simmpi import ExchangeEngine
from repro.simmpi import procs
from repro.topology import paper_mapping

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
N_RANKS = 6

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX segments are not listed")


def _world(seed: int = 13, variant: Variant = Variant.FULL):
    pattern = random_pattern(N_RANKS, avg_neighbors=3,
                             duplicate_fraction=0.3, seed=seed)
    plan = make_plan(pattern, paper_mapping(N_RANKS, ranks_per_node=3), variant)
    return compile_world_exchange(
        plan, ExchangeSpec(dtype=np.dtype(np.float64), item_size=1))


def _values(world) -> np.ndarray:
    return 7.0 + world.owned_items_all.astype(np.float64)


@pytest.fixture
def created(monkeypatch):
    """Names of the segments this process creates, in order; ``created.fail_at``
    makes that creation (0-based) raise ``created.error`` instead."""
    real = procs.shared_memory.SharedMemory

    class Created(list):
        fail_at = None
        error = OSError(errno.EMFILE, "Too many open files")

    names = Created()

    def recording(*args, **kwargs):
        if not kwargs.get("create"):
            return real(*args, **kwargs)
        if len(names) == names.fail_at:
            names.append(None)
            raise names.error
        segment = real(*args, **kwargs)
        names.append(segment.name)
        return segment

    monkeypatch.setattr(procs.shared_memory, "SharedMemory", recording)
    return names


@needs_dev_shm
def test_a_failed_registration_leaks_no_segment(created):
    world, later = _world(), _world(21, Variant.PARTIAL)
    with ExchangeEngine(N_RANKS, runtime="engine") as serial:
        expected = serial.run(serial.register(later), _values(later)).tobytes()
    created.fail_at = 1                 # the program's second segment
    with ExchangeEngine(N_RANKS, runtime="procs", n_workers=2) as engine:
        with pytest.raises(OSError) as info:
            engine.register(world)
        assert info.value is created.error
        assert created[1] is None and len(created) == 2
        assert not os.path.exists(os.path.join("/dev/shm", created[0]))
        # Nothing half-registered stays behind: the engine is serviceable.
        assert not engine._pool._programs and not engine.events
        handle = engine.register(later)
        assert handle == 0 and len(created) == 4
        assert engine.run(handle, _values(later)).tobytes() == expected
    assert not any(os.path.exists(os.path.join("/dev/shm", name))
                   for name in created if name is not None)


@needs_dev_shm
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to count descriptors")
def test_a_program_costs_two_segments_and_at_most_four_descriptors(created):
    def descriptors() -> int:
        return len(os.listdir("/proc/self/fd"))

    with ExchangeEngine(N_RANKS, runtime="procs", n_workers=2) as engine:
        engine.register(_world())       # forks the pool: pipes, sentinels
        for world in (_world(21, Variant.PARTIAL), _world(34),
                      _world(5, Variant.STANDARD)):
            segments, before = len(created), descriptors()
            engine.register(world, vector_length=int(
                world.owned_items_all.max()) + 1)
            assert len(created) - segments == 2
            assert descriptors() - before <= 4
        assert all(os.path.exists(os.path.join("/dev/shm", name))
                   for name in created)
        open_at_close = descriptors()
    assert not any(os.path.exists(os.path.join("/dev/shm", name))
                   for name in created)
    assert descriptors() < open_at_close


def _processes_of_session(session: int) -> list:
    """``(pid, state, command)`` of every process of ``session``, zombies
    included: a zombie is a child its parent never reaped."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
            state, _, _, process_session = \
                stat[stat.rindex(")") + 2:].split()[:4]
            if int(process_session) != session:
                continue
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue                    # ended and reaped while we looked
        found.append((int(pid), state, command))
    return found


#: Appended to every child script: the child stops the resource tracker it
#: started and reaps it, so the tracker cannot outlive the child as an orphan
#: no parent reaps.
END_OWN_TRACKER = textwrap.dedent("""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()
""")


def run_in_own_session(script: str, env: dict):
    """Run ``script`` under ``-W error`` in a new session; return the finished
    process and every process of that session still there after it exited."""
    process = subprocess.Popen(
        [sys.executable, "-W", "error", "-c", script + END_OWN_TRACKER],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=300)
    finally:
        process.kill()                  # no-op unless the wait timed out
    result = subprocess.CompletedProcess(
        process.args, process.returncode, stdout, stderr)
    return result, _processes_of_session(process.pid)


#: Interpreter shutdown is part of the test, with every warning an error.  (The
#: resource tracker swallows its own "leaked" warning under ``-W error``, so
#: the script looks for the segments itself.)
_FAILED_REGISTRATION_SCRIPT = textwrap.dedent("""
    import errno
    import os
    import numpy as np
    from repro.collectives import Variant, make_plan
    from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
    from repro.pattern import random_pattern
    from repro.simmpi import ExchangeEngine, procs
    from repro.topology import paper_mapping

    plan = make_plan(random_pattern(6, avg_neighbors=3, seed=13),
                     paper_mapping(6, ranks_per_node=3), Variant.FULL)
    world = compile_world_exchange(
        plan, ExchangeSpec(dtype=np.dtype(np.float64), item_size=1))
    real, created = procs.shared_memory.SharedMemory, []

    def second_creation_fails(*args, **kwargs):
        if not kwargs.get("create"):
            return real(*args, **kwargs)
        if len(created) == 1:
            created.append(None)
            raise OSError(errno.EMFILE, "Too many open files")
        created.append(real(*args, **kwargs))
        return created[-1]

    procs.shared_memory.SharedMemory = second_creation_fails
    engine = ExchangeEngine(6, runtime="procs", n_workers=2)
    try:
        engine.register(world)
    except OSError as error:
        assert error.errno == errno.EMFILE
    else:
        raise AssertionError("the injected EMFILE did not surface")
    handle = engine.register(world)
    engine.run(handle, world.owned_items_all.astype(np.float64))
    engine.close()
    names = [segment.name for segment in created if segment is not None]
    del created[:]
    leaked = [name for name in names
              if os.path.exists(os.path.join("/dev/shm", name))]
    assert len(names) == 3 and not leaked, leaked
    print("OK")
""")


@needs_dev_shm
def test_failed_registration_then_close_is_clean_under_w_error():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    result, survivors = run_in_own_session(_FAILED_REGISTRATION_SCRIPT, env)
    assert result.returncode == 0, result.stderr
    assert "OK" in result.stdout
    assert "ResourceWarning" not in result.stderr
    assert "leaked" not in result.stderr
    assert survivors == []


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to list a session's processes")
def test_no_process_of_a_pytest_session_outlives_it(tmp_path):
    """A procs test forks its workers and starts multiprocessing's resource
    tracker, which would outlive pytest and hold its output open.  The root
    conftest's ``pytest_sessionfinish`` stops and reaps them all, so when a
    pytest run of one such test (pytest, two workers and the tracker: far
    below 16 processes) exits, nothing of its session is left, not even an
    unreaped zombie.  The output goes to a file, not a pipe, so a survivor
    cannot make the wait wait for it."""
    small_test = os.path.join(os.path.dirname(__file__), "test_procs_runtime.py")
    with open(tmp_path / "output.txt", "w+") as output:
        process = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{small_test}::TestProcsExecution::"
             "test_multi_iteration_reuses_pool"],
            cwd=os.path.join(REPO_SRC, os.pardir), stdout=output,
            stderr=subprocess.STDOUT, start_new_session=True,
            env=dict(os.environ, PYTHONPATH=REPO_SRC))
        try:
            returncode = process.wait(timeout=300)
        finally:
            process.kill()              # no-op unless the wait timed out
        survivors = _processes_of_session(process.pid)
        output.seek(0)
        assert returncode == 0, output.read()
    assert survivors == []
