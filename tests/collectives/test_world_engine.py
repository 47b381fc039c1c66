"""Golden equivalence: the world-stepped engine vs the envelope-routed runtime.

The batched :class:`~repro.simmpi.engine.ExchangeEngine` must be
indistinguishable from the pinned reference — every rank's
:class:`PersistentNeighborCollective` running on the threaded mailbox
runtime — in two observable ways:

* **results**: byte-identical per-rank output arrays, and
* **profiler accounting**: identical data-path byte/message totals, per
  locality class and per source rank.

Both are checked across variants x patterns x mappings, plus the dtype /
item_size matrix, multi-iteration persistence, and the input validation the
engine shares with the per-rank executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import (
    Variant,
    WorldNeighborCollective,
    compile_world_exchange,
    make_plan,
    neighbor_alltoallv_init_world,
)
from repro.collectives.persistent import PersistentNeighborCollective
from repro.pattern import CommPattern, halo_exchange_pattern, random_pattern
from repro.simmpi import ExchangeEngine, SimWorld, TrafficProfiler
from repro.topology import paper_mapping
from repro.utils.errors import CommunicationError, ValidationError

ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)

#: The engine runtimes the golden suites pin byte-identical.  ``"procs"``
#: always runs with several workers (regardless of core count) so every
#: step is really cut into shares that read each other's earlier rows.
ENGINE_RUNTIMES = ("engine", "procs")


def _runtime_kwargs(runtime):
    return {"runtime": runtime,
            "n_workers": 3 if runtime == "procs" else None}


def _rank_values(collective: WorldNeighborCollective, scale: float = 100.0):
    """Deterministic per-rank input arrays derived from owned item ids."""
    return [scale * rank + collective.owned_item_ids(rank).astype(np.float64)
            for rank in range(collective.n_ranks)]


def _reference_results(plan, n_ranks, values_fn, *, profiler=None,
                       iterations: int = 1):
    """Run the plan on the envelope-routed runtime; per-rank results of the
    last iteration."""
    world = SimWorld(n_ranks, timeout=120, profiler=profiler)

    def program(comm):
        collective = PersistentNeighborCollective(comm, plan)
        result = None
        for iteration in range(iterations):
            result = collective.exchange(values_fn(comm.rank, iteration,
                                                   collective.owned_item_ids))
        return result

    return world.run(program)


def _summary_tuple(summary):
    return (summary.message_count, summary.byte_count)


def _profile_digest(profiler: TrafficProfiler):
    """Everything the equivalence check compares about recorded traffic."""
    return {
        "total": _summary_tuple(profiler.total()),
        "by_locality": {locality: _summary_tuple(summary) for locality, summary
                        in profiler.by_locality().items()},
        "per_rank": {rank: _summary_tuple(summary) for rank, summary
                     in profiler.per_rank().items()},
    }


class TestGoldenEquivalence:
    """Engine output and accounting == envelope-routed reference."""

    @pytest.mark.parametrize("runtime", ENGINE_RUNTIMES)
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("pattern_name,ranks_per_node", [
        ("random_dup", 8),
        ("random_sparse", 4),
        ("halo", 8),
    ])
    def test_results_and_profile_match(self, variant, pattern_name,
                                       ranks_per_node, runtime):
        if pattern_name == "random_dup":
            n_ranks = 24
            pattern = random_pattern(n_ranks, avg_neighbors=6,
                                     avg_items_per_message=12,
                                     duplicate_fraction=0.5, seed=3)
        elif pattern_name == "random_sparse":
            n_ranks = 16
            pattern = random_pattern(n_ranks, avg_neighbors=3,
                                     avg_items_per_message=5,
                                     duplicate_fraction=0.0, seed=11)
        else:
            grid = (4, 6)
            n_ranks = grid[0] * grid[1]
            pattern = halo_exchange_pattern(grid, points_per_cell=4)
        mapping = paper_mapping(n_ranks, ranks_per_node=ranks_per_node)
        plan = make_plan(pattern, mapping, variant)

        reference_profiler = TrafficProfiler(mapping)
        reference = _reference_results(
            plan, n_ranks,
            lambda rank, _, owned: 100.0 * rank + owned.astype(np.float64),
            profiler=reference_profiler)

        engine_profiler = TrafficProfiler(mapping)
        with WorldNeighborCollective(plan, profiler=engine_profiler,
                                     **_runtime_kwargs(runtime)) as collective:
            results = collective.exchange(_rank_values(collective))

        for rank in range(n_ranks):
            assert np.array_equal(np.asarray(reference[rank]), results[rank])
        assert _profile_digest(reference_profiler) == _profile_digest(engine_profiler)

    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
    def test_multi_iteration_persistence(self, variant):
        n_ranks = 12
        pattern = random_pattern(n_ranks, avg_neighbors=4, seed=7)
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        plan = make_plan(pattern, mapping, variant)

        def iteration_values(rank, iteration, owned):
            return (iteration + 1) * 10.0 * rank + owned.astype(np.float64)

        reference = _reference_results(plan, n_ranks, iteration_values,
                                       iterations=3)
        collective = WorldNeighborCollective(plan)
        results = None
        for iteration in range(3):
            results = collective.exchange([
                iteration_values(rank, iteration,
                                 collective.owned_item_ids(rank))
                for rank in range(n_ranks)
            ])
        for rank in range(n_ranks):
            assert np.array_equal(np.asarray(reference[rank]), results[rank])

    @pytest.mark.parametrize("runtime", ENGINE_RUNTIMES)
    @pytest.mark.parametrize("dtype,item_size", [
        (np.float32, 1), (np.float64, 3), (np.int64, 2), (np.complex128, 1),
    ])
    def test_dtype_item_size_matrix(self, dtype, item_size, runtime):
        n_ranks = 8
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=5,
                                 dtype=dtype, item_size=item_size)
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        plan = make_plan(pattern, mapping, Variant.FULL)

        def values_for(rank, owned):
            base = (100 * rank + owned).astype(dtype)
            if item_size == 1:
                return base
            return np.repeat(base[:, None], item_size, axis=1) \
                + np.arange(item_size, dtype=dtype)

        reference = _reference_results(
            plan, n_ranks, lambda rank, _, owned: values_for(rank, owned))
        with WorldNeighborCollective(plan,
                                     **_runtime_kwargs(runtime)) as collective:
            results = collective.exchange([
                values_for(rank, collective.owned_item_ids(rank))
                for rank in range(n_ranks)
            ])
        for rank in range(n_ranks):
            assert results[rank].dtype == np.dtype(dtype)
            assert np.array_equal(np.asarray(reference[rank]), results[rank])

    def test_metadata_matches_per_rank_executor(self):
        n_ranks = 10
        pattern = random_pattern(n_ranks, avg_neighbors=4,
                                 duplicate_fraction=0.4, seed=13)
        mapping = paper_mapping(n_ranks, ranks_per_node=5)
        plan = make_plan(pattern, mapping, Variant.PARTIAL)
        collective = WorldNeighborCollective(plan)

        def program(comm):
            per_rank = PersistentNeighborCollective(comm, plan)
            return (per_rank.owned_item_ids, per_rank.recv_item_ids,
                    per_rank.recv_item_sources)

        per_rank_meta = SimWorld(n_ranks, timeout=120).run(program)
        for rank, (owned, recv, sources) in enumerate(per_rank_meta):
            assert np.array_equal(owned, collective.owned_item_ids(rank))
            assert np.array_equal(recv, collective.recv_item_ids(rank))
            assert np.array_equal(sources, collective.recv_item_sources(rank))


class TestEngineInterface:
    """Input handling and registration semantics of the engine itself."""

    @pytest.fixture()
    def small_collective(self):
        n_ranks = 6
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=2)
        mapping = paper_mapping(n_ranks, ranks_per_node=3)
        return neighbor_alltoallv_init_world(pattern, mapping,
                                             variant=Variant.STANDARD)

    def test_flat_input_equals_per_rank_input(self, small_collective):
        values = _rank_values(small_collective)
        flat = np.concatenate(values)
        by_list = small_collective.exchange(values)
        by_flat = small_collective.exchange(flat)
        for a, b in zip(by_list, by_flat):
            assert np.array_equal(a, b)

    def test_wrong_rank_count_rejected(self, small_collective):
        values = _rank_values(small_collective)
        with pytest.raises(ValidationError, match="per rank"):
            small_collective.exchange(values[:-1])

    def test_wrong_shape_rejected(self, small_collective):
        values = _rank_values(small_collective)
        values[2] = values[2][:-1]
        with pytest.raises(ValidationError, match="rank 2 owns .* shape"):
            small_collective.exchange(values)

    def test_every_per_rank_form_loads_the_same_values(self, small_collective):
        """Arrays of the exchange's dtype concatenate in one pass; lists,
        other dtypes and ``(n, 1)`` columns go rank by rank — same bytes."""
        values = [np.round(v) for v in _rank_values(small_collective)]
        expected = np.concatenate(small_collective.exchange(values)).tobytes()
        forms = {
            "lists": [v.tolist() for v in values],
            "int64": [v.astype(np.int64) for v in values],
            "columns": [v.reshape(-1, 1) for v in values],
            "one odd rank": [values[0].astype(np.float32)] + values[1:],
            "strided views": [np.repeat(v, 2)[::2] for v in values],
        }
        for name, form in forms.items():
            got = np.concatenate(small_collective.exchange(form)).tobytes()
            assert got == expected, name

    def test_unsafe_cast_rejected(self, small_collective):
        values = [v.astype(np.complex128) for v in _rank_values(small_collective)]
        with pytest.raises(ValidationError, match="safely cast"):
            small_collective.exchange(values)

    def test_unknown_handle_rejected(self):
        engine = ExchangeEngine(4)
        with pytest.raises(CommunicationError, match="unknown exchange handle"):
            engine.run(0, [])

    def test_oversized_world_rejected(self):
        n_ranks = 6
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=2)
        mapping = paper_mapping(n_ranks, ranks_per_node=3)
        plan = make_plan(pattern, mapping, Variant.STANDARD)
        world = compile_world_exchange(plan)
        engine = ExchangeEngine(n_ranks - 1)
        with pytest.raises(CommunicationError, match="more ranks"):
            engine.register(world)

    def test_shared_engine_across_collectives(self):
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        engine = ExchangeEngine(n_ranks, profiler=TrafficProfiler(mapping))
        patterns = [random_pattern(n_ranks, avg_neighbors=3, seed=seed)
                    for seed in (1, 2)]
        collectives = [
            neighbor_alltoallv_init_world(pattern, mapping,
                                          variant=Variant.FULL, engine=engine)
            for pattern in patterns
        ]
        totals = []
        for collective in collectives:
            collective.exchange(_rank_values(collective))
            totals.append(engine.profiler.total().message_count)
        # Both collectives' traffic landed in the one shared profiler.
        assert totals[1] > totals[0] > 0

    def test_engine_and_profiler_conflict_rejected(self):
        n_ranks = 4
        pattern = random_pattern(n_ranks, avg_neighbors=2, seed=1)
        mapping = paper_mapping(n_ranks, ranks_per_node=2)
        plan = make_plan(pattern, mapping, Variant.STANDARD)
        engine = ExchangeEngine(n_ranks)
        with pytest.raises(ValidationError, match="not both"):
            WorldNeighborCollective(plan, engine=engine,
                                    profiler=TrafficProfiler(mapping))

    def test_sim_world_engine_shares_profiler(self):
        profiler = TrafficProfiler()
        world = SimWorld(4, profiler=profiler)
        engine = world.exchange_engine()
        assert engine.profiler is profiler
        assert engine.n_ranks == 4

    def test_world_exchange_message_count_matches_plan(self):
        n_ranks = 12
        pattern = random_pattern(n_ranks, avg_neighbors=5, seed=4)
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        plan = make_plan(pattern, mapping, Variant.PARTIAL)
        world = compile_world_exchange(plan)
        assert world.n_messages == plan.n_messages


class TestFlatPath:
    """``exchange_flat`` is the engine's native I/O; ``exchange`` cuts it up."""

    @pytest.mark.parametrize("runtime", ENGINE_RUNTIMES)
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64,
                                       np.complex128])
    @pytest.mark.parametrize("item_size", [1, 8])
    def test_flat_equals_concatenated_lists(self, runtime, variant, dtype,
                                            item_size):
        n_ranks = 8
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=5,
                                 duplicate_fraction=0.3, dtype=dtype,
                                 item_size=item_size)
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        plan = make_plan(pattern, mapping, variant)
        with WorldNeighborCollective(plan,
                                     **_runtime_kwargs(runtime)) as collective:
            world = collective.world
            flat = (100 * np.repeat(np.arange(n_ranks),
                                    np.diff(world.owned_offsets))
                    + world.owned_items_all).astype(dtype)
            if item_size > 1:
                flat = flat[:, None] + np.arange(item_size, dtype=dtype)
            lists = np.split(flat, world.owned_offsets[1:-1])
            by_lists = collective.exchange(lists)
            by_flat = collective.exchange_flat(flat)
            assert isinstance(by_flat, np.ndarray)
            assert by_flat.dtype == np.dtype(dtype)
            assert by_flat.shape == ((world.result_rows.size,) if item_size == 1
                                     else (world.result_rows.size, item_size))
            assert by_flat.tobytes() == np.concatenate(by_lists).tobytes()
            # Every delivered row is its item's owner-side value.
            owner = world.result_sources_all
            expected = (100 * owner + world.result_items_all).astype(dtype)
            first = by_flat if item_size == 1 else by_flat[:, 0]
            assert np.array_equal(first, expected)

    def test_exchange_of_flat_input_returns_one_array_per_rank(self):
        n_ranks = 6
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=2)
        mapping = paper_mapping(n_ranks, ranks_per_node=3)
        with neighbor_alltoallv_init_world(pattern, mapping,
                                           variant=Variant.FULL) as collective:
            flat = np.concatenate(_rank_values(collective))
            results = collective.exchange(flat)
            assert isinstance(results, list) and len(results) == n_ranks
            for rank, result in enumerate(results):
                assert result.shape == collective.recv_item_ids(rank).shape
            # The result never aliases the engine's work array.
            again = collective.exchange_flat(2.0 * flat)
            assert np.array_equal(np.concatenate(results), 0.5 * again)

    @pytest.mark.parametrize("call", ["exchange", "exchange_flat"])
    def test_bad_flat_input_rejected(self, call):
        n_ranks = 6
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=2)
        mapping = paper_mapping(n_ranks, ranks_per_node=3)
        with neighbor_alltoallv_init_world(pattern, mapping,
                                           variant=Variant.STANDARD) as collective:
            flat = np.concatenate(_rank_values(collective))
            run = getattr(collective, call)
            with pytest.raises(ValidationError, match="shape"):
                run(flat[:-1])
            with pytest.raises(ValidationError, match="shape"):
                run(np.stack([flat, flat], axis=1))
            with pytest.raises(ValidationError, match="safely cast"):
                run(flat.astype(np.complex128))


class TestProfilerBatches:
    """Bulk counters behave exactly like per-envelope records."""

    def test_record_batch_filters_self_messages(self):
        profiler = TrafficProfiler()
        profiler.record_batch(np.array([0, 1, 2]), np.array([0, 2, 1]),
                              np.array([8, 16, 24]), tag=10)
        total = profiler.total()
        assert total.message_count == 2
        assert total.byte_count == 40

    def test_record_batch_keeps_self_messages_when_asked(self):
        profiler = TrafficProfiler(ignore_self_messages=False)
        profiler.record_batch(np.array([0, 1]), np.array([0, 2]),
                              np.array([8, 16]))
        assert profiler.total().message_count == 2

    def test_record_batch_object_traffic_ignored_by_default(self):
        profiler = TrafficProfiler()
        profiler.record_batch(np.array([0]), np.array([1]), np.array([100]),
                              is_array=False)
        assert profiler.total().message_count == 0

    def test_records_expand_batches_in_order(self):
        mapping = paper_mapping(4, ranks_per_node=2)
        profiler = TrafficProfiler(mapping)
        profiler.record_batch(np.array([0, 1]), np.array([1, 3]),
                              np.array([8, 16]), tag=10)
        records = profiler.records
        assert [(r.source, r.dest, r.nbytes) for r in records] == \
            [(0, 1, 8), (1, 3, 16)]
        assert all(r.locality is not None for r in records)
        assert len(profiler.inter_region_records()) == 1

    def test_data_columns_concatenate_batches_and_records(self):
        profiler = TrafficProfiler()
        profiler.record_batch(np.array([0, 1]), np.array([1, 0]),
                              np.array([8, 8]))
        sources, dests, nbytes = profiler.data_columns()
        assert sources.tolist() == [0, 1]
        assert dests.tolist() == [1, 0]
        assert nbytes.tolist() == [8, 8]

    def test_mismatched_columns_rejected(self):
        profiler = TrafficProfiler()
        with pytest.raises(ValueError, match="parallel"):
            profiler.record_batch(np.array([0, 1]), np.array([1]),
                                  np.array([8]))


class TestSelfSendPattern:
    """Items a rank sends to itself flow through both paths identically."""

    def test_self_send_results_match(self):
        pattern = CommPattern(4, {
            0: {0: [1, 2], 1: [2, 3]},
            1: {2: [7]},
            3: {0: [9], 3: [9]},
        })
        mapping = paper_mapping(4, ranks_per_node=2)
        for variant in ALL_VARIANTS:
            plan = make_plan(pattern, mapping, variant)
            reference = _reference_results(
                plan, 4,
                lambda rank, _, owned: 10.0 * rank + owned.astype(np.float64))
            collective = WorldNeighborCollective(plan)
            results = collective.exchange(_rank_values(collective, scale=10.0))
            for rank in range(4):
                assert np.array_equal(np.asarray(reference[rank]), results[rank])
