"""The shared-memory ``"procs"`` runtime: slab execution and lifecycle.

The golden suites (``tests/collectives/test_world_engine.py``,
``tests/amg/test_world_vcycle.py``) pin the procs runtime byte-identical to
their references on their runtime axis; this module covers what they do
not:

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
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from test_procs_resources import run_in_own_session

from repro.collectives import Variant, WorldNeighborCollective, make_plan
from repro.collectives.exchange import ExchangeSpec
from repro.pattern import CommPattern, random_pattern
from repro.simmpi import ExchangeEngine, default_worker_count
from repro.simmpi.engine import ENGINE_RUNTIMES, RUNTIME_ENV, default_runtime
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


    def test_pool_round_makes_one_execute_and_one_parent_take_in_even_shares(
            self, count_calls):
        """A pool round is the engine's round, run by the workers.

        A communication-heavy world exchange (64 ranks, 8-component items,
        the three-step aggregated path) executed through the same compiled
        program twice: by the parent, then by a pool of 4 workers.
        Clock-free — what the pool is kept for is supervision, not a speed
        no machine here has the cores to show: the results must be
        byte-identical per rank, a healthy round is one ``run`` in which
        the parent gathers exactly once (the output, from the owned rows),
        the program lives in two shared segments, and the pool's schedule is
        every send phase, then the round's one receive step — an empty slot
        on this unbound handle.  Bound to a vector, the same program's one
        receive step is the halo rows, and each worker's share of it is the
        even split.
        """
        from repro.simmpi.procs import SharedBlock, _share
        from repro.utils.arrays import partition_evenly

        n_workers = 4
        n_ranks = 64
        pattern = random_pattern(n_ranks, avg_neighbors=8,
                                 avg_items_per_message=64, items_per_rank=512,
                                 duplicate_fraction=0.2, seed=29, item_size=8)
        mapping = paper_mapping(n_ranks, ranks_per_node=16)
        plan = make_plan(pattern, mapping, Variant.FULL)

        # Every gather is one ``ndarray.take`` call, so gathers are
        # countable; the workers' run in other processes and stay out of
        # the count.
        with WorldNeighborCollective(plan, runtime="engine") as serial, \
                ExchangeEngine(n_ranks, runtime="procs",
                               n_workers=n_workers) as engine:
            pooled = WorldNeighborCollective(plan, engine=engine)
            values = [np.tile(100.0 * rank
                              + serial.owned_item_ids(rank).astype(np.float64),
                              (8, 1)).T.copy()
                      for rank in range(n_ranks)]
            reference = serial.exchange(values)
            results = []
            counts = [count_calls(
                lambda: results.append(pooled.exchange(values)), of=of)
                for of in ([ExchangeEngine.run], [np.ndarray.take])]
            assert counts == [1, 1]
            assert not engine.events
            for round_results in results:
                for rank in range(n_ranks):
                    assert reference[rank].tobytes() \
                        == round_results[rank].tobytes()

            shared = engine._programs[pooled.handle].shared
            blocks = [value for value in vars(shared).values()
                      if isinstance(value, SharedBlock)]
            assert len(blocks) == 2 and len({block.name for block in blocks}) == 2
            n_owned = pooled.world.owned_items_all.size
            assert shared.work.shape[0] == n_owned
            assert shared.steps == (("send", 0, 0),) * 4 \
                + (("recv", n_owned, n_owned),)

            # Bound to a vector: one receive step, the halo rows.
            n = int(pooled.world.owned_items_all.max()) + 1
            world = replace(pooled.world,
                            spec=ExchangeSpec(np.float64, item_size=1))
            bound = engine._programs[engine.register(world,
                                                     vector_length=n)].shared
            n_halo = world.result_rows.size
            assert n_halo >= n_workers
            assert bound.steps[-1] == ("recv", n, n + n_halo)
            shares = [_share(n_halo, worker, n_workers)
                      for worker in range(n_workers)]
            assert shares[0][0] == 0 and shares[-1][1] == n_halo
            assert all(hi == lo for (_, hi), (lo, _)
                       in zip(shares, shares[1:]))
            assert sorted(hi - lo for lo, hi in shares) == \
                sorted(np.diff(partition_evenly(n_halo, n_workers)).tolist())


class TestRuntimeSelection:
    def test_env_flips_default_runtime(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV, "procs")
        assert default_runtime() == "procs"
        engine = ExchangeEngine(4)
        assert engine.runtime == "procs"
        engine.close()

    def test_unknown_env_value_raises_naming_the_variable(self, monkeypatch):
        # A typo ("proc") must not run a whole CI leg on the default engine,
        # and the retired thread-per-rank runtime is just another unknown name.
        for typo in ("proc", "quantum", "threads"):
            monkeypatch.setenv(RUNTIME_ENV, typo)
            for resolve in (default_runtime, lambda: ExchangeEngine(4)):
                with pytest.raises(ValidationError) as info:
                    resolve()
                message = str(info.value)
                assert RUNTIME_ENV in message and repr(typo) in message
                assert all(name in message for name in ENGINE_RUNTIMES)
        # An explicit runtime never consults the variable; unset, empty and
        # padded / upper-case spellings of a known runtime still resolve.
        assert ExchangeEngine(4, runtime="engine").runtime == "engine"
        for value, expected in (("", "engine"), (" Procs ", "procs")):
            monkeypatch.setenv(RUNTIME_ENV, value)
            assert default_runtime() == expected

    def test_threads_is_not_an_engine_runtime(self, monkeypatch):
        # "threads" names no runtime anywhere: not in the environment, not
        # as an explicit keyword of the engine or of what builds one.
        assert "threads" not in ENGINE_RUNTIMES
        monkeypatch.setenv(RUNTIME_ENV, "threads")
        with pytest.raises(ValidationError, match=RUNTIME_ENV):
            default_runtime()
        monkeypatch.delenv(RUNTIME_ENV)
        with pytest.raises(ValidationError, match="engine runtime"):
            ExchangeEngine(4, runtime="threads")
        pattern = random_pattern(4, avg_neighbors=2, seed=3)
        plan = make_plan(pattern, paper_mapping(4, ranks_per_node=2),
                         Variant.STANDARD)
        with pytest.raises(ValidationError, match="engine runtime"):
            _world_collective(plan, runtime="threads")

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

    @pytest.mark.parametrize("runtime", ["engine", "procs"])
    @pytest.mark.parametrize("n_workers", [1.5, 2.0, True, "2"])
    def test_worker_count_that_is_no_int_is_rejected_not_truncated(
            self, runtime, n_workers):
        with pytest.raises(ValidationError) as info:
            ExchangeEngine(2, runtime=runtime, n_workers=n_workers)
        assert str(info.value) == \
            f"n_workers must be an int, got {type(n_workers).__name__}"

    def test_worker_count_may_exceed_the_rank_count(self):
        # Extra workers get empty shares of every step (see the property
        # suite's pool of 3 on 2-rank patterns); numpy ints count as ints.
        with ExchangeEngine(2, runtime="procs", n_workers=np.int64(3)) as engine:
            assert engine.n_workers == 3
            assert type(engine.n_workers) is int

    @pytest.mark.parametrize("n_ranks", [0, -3])
    def test_rank_count_is_a_validation_error(self, n_ranks):
        with pytest.raises(ValidationError, match="at least one rank"):
            ExchangeEngine(n_ranks)

    @pytest.mark.parametrize("n_ranks", [2.5, 2.0, True, "2"])
    def test_rank_count_that_is_no_int_is_rejected_not_truncated(self,
                                                                 n_ranks):
        with pytest.raises(ValidationError) as info:
            ExchangeEngine(n_ranks, runtime="engine")
        assert str(info.value) == \
            f"n_ranks must be an int, got {type(n_ranks).__name__}"
        with ExchangeEngine(np.int64(2), runtime="engine") as engine:
            assert type(engine.n_ranks) is int and engine.n_ranks == 2

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
    result, survivors = run_in_own_session(_HYGIENE_SCRIPT, env)
    assert result.returncode == 0, result.stderr
    assert "OK" in result.stdout
    assert "ResourceWarning" not in result.stderr
    assert "leaked" not in result.stderr
    assert survivors == []
