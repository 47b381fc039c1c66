"""What a ``runtime="procs"`` engine holds per registered program, and what a
failed registration leaves behind: nothing.

A staged program is two arrays, so sharing it is two segments — not one per
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
        assert not engine._pool._programs and not engine.degraded
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
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FAILED_REGISTRATION_SCRIPT],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "OK" in result.stdout
    assert "ResourceWarning" not in result.stderr
    assert "leaked" not in result.stderr
