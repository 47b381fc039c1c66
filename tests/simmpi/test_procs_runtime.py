"""The shared-memory ``"procs"`` runtime: slab execution and lifecycle.

The golden suites (``tests/collectives/test_world_engine.py``,
``tests/amg/test_world_vcycle.py``) pin the procs runtime byte-identical to
the envelope-routed reference on their runtime axis; this module covers what
they do not:

* the dtype x item_size x empty-rank matrix executed *on the worker pool*
  (empty slabs, zero-row segments, multi-component items in shared memory),
* worker-count robustness (more workers than ranks, single worker),
* runtime selection (``REPRO_RUNTIME``, explicit ``runtime=`` validation),
* lifecycle hygiene: deterministic ``close`` / context-manager release,
  closed-engine errors, and a ``python -W error`` subprocess proving that
  neither explicit close nor the drop-the-engine finalizer backstop leaks a
  shared-memory ResourceWarning.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.collectives import Variant, WorldNeighborCollective, make_plan
from repro.pattern import CommPattern, random_pattern
from repro.simmpi import (
    ENGINE_RUNTIMES,
    RUNTIME_ENV,
    ExchangeEngine,
    default_runtime,
    default_worker_count,
)
from repro.topology import paper_mapping
from repro.utils.errors import CommunicationError, ValidationError

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _world_collective(plan, **kwargs):
    return WorldNeighborCollective(plan, **kwargs)


def _values(collective, dtype, item_size):
    out = []
    for rank in range(collective.n_ranks):
        base = (100 * rank + collective.owned_item_ids(rank)).astype(dtype)
        if item_size == 1:
            out.append(base)
        else:
            out.append(np.repeat(base[:, None], item_size, axis=1)
                       + np.arange(item_size, dtype=dtype))
    return out


class TestProcsExecution:
    """Worker-pool results == single-process engine results, byte for byte."""

    #: Rank 2 neither sends nor receives; rank 4 only sends; rank 1 sends to
    #: itself — the degenerate slab shapes the pool must survive.
    EMPTY_RANK_SENDS = {
        0: {1: [0, 1], 3: [2, 2]},
        1: {1: [5], 4: [6]},
        3: {0: [7, 8], 5: [9]},
        4: {5: [3], 0: [4]},
        5: {3: [1]},
    }

    @pytest.mark.parametrize("dtype,item_size", [
        (np.float32, 1), (np.float64, 3), (np.int64, 2), (np.complex128, 1),
    ])
    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
    def test_empty_rank_dtype_item_size_matrix(self, dtype, item_size, variant):
        n_ranks = 6
        pattern = CommPattern(n_ranks, self.EMPTY_RANK_SENDS,
                              dtype=dtype, item_size=item_size)
        mapping = paper_mapping(n_ranks, ranks_per_node=3)
        plan = make_plan(pattern, mapping, variant)

        with _world_collective(plan) as engine_side:
            expected = engine_side.exchange(
                _values(engine_side, dtype, item_size))
        with _world_collective(plan, runtime="procs",
                               n_workers=3) as procs_side:
            results = procs_side.exchange(_values(procs_side, dtype, item_size))

        assert procs_side.engine.runtime == "procs"
        for rank in range(n_ranks):
            assert results[rank].dtype == np.dtype(dtype)
            assert np.array_equal(expected[rank], results[rank])
        # Rank 2 is genuinely empty on this pattern.
        assert results[2].size == 0

    @pytest.mark.parametrize("n_workers", [1, 2, 5, 12])
    def test_worker_count_never_changes_results(self, n_workers):
        """1 worker, uneven slabs, and more workers than ranks all agree."""
        n_ranks = 8
        pattern = random_pattern(n_ranks, avg_neighbors=4,
                                 duplicate_fraction=0.4, seed=21)
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        plan = make_plan(pattern, mapping, Variant.PARTIAL)

        with _world_collective(plan) as engine_side:
            expected = engine_side.exchange(
                _values(engine_side, np.float64, 1))
        with _world_collective(plan, runtime="procs",
                               n_workers=n_workers) as procs_side:
            assert procs_side.engine.n_workers == n_workers
            results = procs_side.exchange(_values(procs_side, np.float64, 1))
        for rank in range(n_ranks):
            assert np.array_equal(expected[rank], results[rank])

    def test_multi_iteration_reuses_pool(self):
        """Iterations reuse the forked workers and stay byte-identical."""
        n_ranks = 6
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=9)
        mapping = paper_mapping(n_ranks, ranks_per_node=3)
        plan = make_plan(pattern, mapping, Variant.FULL)

        with _world_collective(plan) as engine_side, \
                _world_collective(plan, runtime="procs",
                                  n_workers=2) as procs_side:
            pool = procs_side.engine._pool
            assert pool.started
            for iteration in range(3):
                values = [(iteration + 1) * v for v in
                          _values(engine_side, np.float64, 1)]
                expected = engine_side.exchange(values)
                results = procs_side.exchange(values)
                for rank in range(n_ranks):
                    assert np.array_equal(expected[rank], results[rank])
            assert procs_side.engine._pool is pool


class TestRuntimeSelection:
    def test_env_flips_default_runtime(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV, "procs")
        assert default_runtime() == "procs"
        assert default_runtime(ENGINE_RUNTIMES) == "procs"
        engine = ExchangeEngine(4)
        assert engine.runtime == "procs"
        engine.close()

    def test_unknown_env_value_raises_naming_the_variable(self, monkeypatch):
        # A typo ("proc") must not run a whole CI leg on the default engine.
        for typo in ("proc", "quantum"):
            monkeypatch.setenv(RUNTIME_ENV, typo)
            for resolve in (default_runtime,
                            lambda: default_runtime(ENGINE_RUNTIMES),
                            lambda: ExchangeEngine(4)):
                with pytest.raises(ValidationError) as info:
                    resolve()
                message = str(info.value)
                assert RUNTIME_ENV in message and repr(typo) in message
                assert all(name in message
                           for name in ("engine", "threads", "procs"))
        # An explicit runtime never consults the variable; unset, empty and
        # padded / upper-case spellings of a known runtime still resolve.
        assert ExchangeEngine(4, runtime="engine").runtime == "engine"
        for value, expected in (("", "engine"), (" Procs ", "procs")):
            monkeypatch.setenv(RUNTIME_ENV, value)
            assert default_runtime(ENGINE_RUNTIMES) == expected

    def test_threads_is_not_an_engine_runtime(self, monkeypatch):
        # The user surface accepts "threads"; the engine itself must not.
        monkeypatch.setenv(RUNTIME_ENV, "threads")
        assert default_runtime() == "threads"
        assert default_runtime(ENGINE_RUNTIMES) == "engine"
        with pytest.raises(ValidationError, match="engine runtime"):
            ExchangeEngine(4, runtime="threads")

    def test_worker_count_validation(self):
        with pytest.raises(ValidationError, match="n_workers"):
            ExchangeEngine(4, runtime="procs", n_workers=0)

    @pytest.mark.parametrize("runtime", [None, "engine", "procs"])
    @pytest.mark.parametrize("n_workers", [0, -1, -64])
    def test_worker_count_is_validated_on_every_runtime(self, runtime,
                                                        n_workers):
        with pytest.raises(ValidationError,
                           match=rf"n_workers must be >= 1, got {n_workers}"):
            ExchangeEngine(4, runtime=runtime, n_workers=n_workers)
        assert ExchangeEngine(4, runtime="engine", n_workers=1).n_workers == 1

    def test_default_worker_count_bounds(self):
        assert default_worker_count(1) == 1
        assert 1 <= default_worker_count(10 ** 6)
        assert default_worker_count(3) <= 3


class TestLifecycle:
    def _registered_engine(self):
        n_ranks = 4
        pattern = random_pattern(n_ranks, avg_neighbors=2, seed=3)
        mapping = paper_mapping(n_ranks, ranks_per_node=2)
        plan = make_plan(pattern, mapping, Variant.STANDARD)
        return _world_collective(plan, runtime="procs", n_workers=2)

    def test_close_is_idempotent_and_flags(self):
        collective = self._registered_engine()
        engine = collective.engine
        assert not engine.closed
        collective.close()
        assert engine.closed
        collective.close()
        engine.close()

    def test_context_manager_closes(self):
        with self._registered_engine() as collective:
            engine = collective.engine
            assert not engine.closed
        assert engine.closed

    def test_closed_engine_rejects_use(self):
        collective = self._registered_engine()
        values = _values(collective, np.float64, 1)
        collective.exchange(values)
        collective.close()
        with pytest.raises(CommunicationError, match="closed"):
            collective.exchange(values)
        with pytest.raises(CommunicationError, match="closed"):
            collective.engine.register(None)

    def test_engine_never_forks_until_registration(self):
        engine = ExchangeEngine(4, runtime="procs", n_workers=2)
        assert not engine._pool.started
        engine.close()

    def test_engine_runtime_owns_no_pool(self):
        engine = ExchangeEngine(4, runtime="engine")
        assert engine._pool is None
        assert engine.n_workers == 1
        engine.close()
        assert engine.closed


#: Exercised in a subprocess so interpreter shutdown is part of the test:
#: one engine closed explicitly, one dropped for the finalize backstop,
#: with every warning (ResourceWarning included) promoted to an error.
_HYGIENE_SCRIPT = textwrap.dedent("""
    import gc
    import numpy as np
    from repro.collectives import Variant, WorldNeighborCollective, make_plan
    from repro.pattern import random_pattern
    from repro.topology import paper_mapping

    pattern = random_pattern(6, avg_neighbors=3, seed=4)
    mapping = paper_mapping(6, ranks_per_node=3)
    plan = make_plan(pattern, mapping, Variant.FULL)

    def values(c):
        return [100.0 * r + c.owned_item_ids(r).astype(np.float64)
                for r in range(c.n_ranks)]

    with WorldNeighborCollective(plan, runtime="procs", n_workers=2) as closed:
        closed.exchange(values(closed))

    dropped = WorldNeighborCollective(plan, runtime="procs", n_workers=2)
    dropped.exchange(values(dropped))
    del dropped
    gc.collect()
    print("OK")
""")


def test_no_resource_warnings_under_w_error():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.pop(RUNTIME_ENV, None)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", _HYGIENE_SCRIPT],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "OK" in result.stdout
    assert "ResourceWarning" not in result.stderr
    assert "leaked" not in result.stderr
