"""Golden suite: the world-stepped engine against closed-form oracles.

The batched :class:`~repro.simmpi.engine.ExchangeEngine` is checked against
two oracles that share no code with it:

* **results**: every rank receives, for every entry of its
  ``recv_item_ids``, the value the entry's source owns — with inputs built
  from ``(rank, item)`` alone, the expected output is a closed form of
  ``(recv_item_sources, recv_item_ids)``, compared byte for byte;
* **profiler accounting**: the profiler's sorted ``(src, dest, nbytes)``
  columns are the plan's phase-table columns, self-messages dropped.

Both are checked across variants x patterns x mappings, plus the dtype /
item_size matrix, multi-iteration persistence, and the engine's input
validation.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

from oracles import edge_maps
from repro.collectives import (
    Variant,
    WorldNeighborCollective,
    compile_world_exchange,
    make_plan,
    neighbor_alltoallv_init_world,
)
from repro.pattern import CommPattern, halo_exchange_pattern, random_pattern
from repro.pattern.builders import pattern_from_edges
from repro.simmpi import ExchangeEngine, TrafficProfiler
from repro.topology import paper_mapping
from repro.utils.arrays import concatenate_or_empty
from repro.utils.errors import CommunicationError, ValidationError

ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)

#: The engine runtimes the golden suites pin byte-identical.  ``"procs"``
#: always runs with several workers (regardless of core count) so every
#: step is really cut into shares that read each other's earlier rows.
ENGINE_RUNTIMES = ("engine", "procs")

_spec = importlib.util.spec_from_file_location(
    "dtype_matrix", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "property", "test_dtype_matrix.py"))
_dtype_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_dtype_matrix)
#: The per-(origin, item, component) value table of the dtype matrix.
_value_table = _dtype_matrix._reference


def _runtime_kwargs(runtime):
    return {"runtime": runtime,
            "n_workers": 3 if runtime == "procs" else None}


def _rank_values(collective: WorldNeighborCollective, scale: float = 100.0):
    """Deterministic per-rank input arrays derived from owned item ids."""
    return [scale * rank + collective.owned_item_ids(rank).astype(np.float64)
            for rank in range(collective.n_ranks)]


def _oracle_results(collective: WorldNeighborCollective, scale: float = 100.0):
    """What :func:`_rank_values` inputs must deliver: per rank, the value
    the source of every received entry owns."""
    return [scale * collective.recv_item_sources(rank)
            + collective.recv_item_ids(rank).astype(np.float64)
            for rank in range(collective.n_ranks)]


def _assert_results(results, expected):
    assert len(results) == len(expected)
    for rank, (got, want) in enumerate(zip(results, expected)):
        assert got.dtype == want.dtype, rank
        assert got.tobytes() == want.tobytes(), rank


def _sorted(sources, dests, nbytes):
    order = np.lexsort((nbytes, dests, sources))
    return sources[order], dests[order], nbytes[order]


def _planned_columns(plan, item_bytes: int, rounds: int = 1):
    """``(srcs, dests, payload bytes)`` of every message ``rounds`` rounds
    of ``plan`` send, self-messages dropped, sorted."""
    tables = list(plan.phases.values())
    srcs, dests, counts = (concatenate_or_empty([getattr(table, name)
                                                 for table in tables])
                           for name in ("srcs", "dests", "payload_counts"))
    keep = srcs != dests
    return _sorted(*(np.tile(column[keep], rounds)
                     for column in (srcs, dests, counts * item_bytes)))


def _assert_profile_is_plan(profiler, plan, item_bytes, rounds=1):
    observed = _sorted(*profiler.data_columns())
    planned = _planned_columns(plan, item_bytes, rounds)
    for observed_column, planned_column in zip(observed, planned):
        assert np.array_equal(observed_column, planned_column)


class TestGoldenEquivalence:
    """Engine output and accounting == the closed-form oracles."""

    @pytest.mark.parametrize("runtime", ENGINE_RUNTIMES)
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("pattern_name,ranks_per_node", [
        ("random_dup", 8),
        ("random_sparse", 4),
        ("halo", 8),
        ("example_2_1", 4),
    ])
    def test_results_and_profile_match(self, variant, pattern_name,
                                       ranks_per_node, runtime):
        if pattern_name == "example_2_1":
            # The paper's Example 2.1: region 0 values shared by several
            # ranks of region 1.
            n_ranks = 8
            pattern = pattern_from_edges(n_ranks, [
                (0, 5, [1000]), (0, 6, [1000]), (0, 4, [1001]), (0, 5, [1001]),
                (0, 7, [1001]), (1, 4, [1100]), (1, 5, [1100]), (1, 6, [1101]),
                (2, 4, [1200]), (2, 5, [1201]), (2, 6, [1201]), (2, 7, [1201]),
                (3, 7, [1300]),
            ])
        elif pattern_name == "random_dup":
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

        profiler = TrafficProfiler(mapping)
        with ExchangeEngine(n_ranks, profiler=profiler,
                            **_runtime_kwargs(runtime)) as engine:
            collective = WorldNeighborCollective(plan, engine=engine)
            results = collective.exchange(_rank_values(collective))
            _assert_results(results, _oracle_results(collective))
            _assert_profile_is_plan(profiler, plan, collective.spec.item_bytes)

    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
    def test_multi_iteration_persistence(self, variant):
        n_ranks = 12
        pattern = random_pattern(n_ranks, avg_neighbors=4, seed=7)
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        plan = make_plan(pattern, mapping, variant)
        profiler = TrafficProfiler(mapping)
        collective = WorldNeighborCollective(
            plan, engine=ExchangeEngine(n_ranks, profiler=profiler))
        for iteration in range(3):
            scale = (iteration + 1) * 10.0
            results = collective.exchange(_rank_values(collective, scale))
            _assert_results(results, _oracle_results(collective, scale))
        _assert_profile_is_plan(profiler, plan, collective.spec.item_bytes,
                                rounds=3)

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

        def values_for(rank, items):
            table = _value_table(rank, items, item_size, dtype)
            return table.reshape(-1) if item_size == 1 else table

        with WorldNeighborCollective(plan,
                                     **_runtime_kwargs(runtime)) as collective:
            results = collective.exchange([
                values_for(rank, collective.owned_item_ids(rank))
                for rank in range(n_ranks)
            ])
            expected = []
            for rank in range(n_ranks):
                sources = collective.recv_item_sources(rank).tolist()
                items = collective.recv_item_ids(rank)
                expected.append(np.concatenate(
                    [values_for(src, items[k:k + 1])
                     for k, src in enumerate(sources)]) if sources
                    else values_for(rank, items))
        _assert_results(results, expected)

    def test_metadata_matches_per_rank_executor(self):
        """Each rank's input and output ids are its pattern's send and receive
        maps: owned = every item it sends, received = every item it expects,
        each from the highest source that declares it."""
        n_ranks = 10
        pattern = random_pattern(n_ranks, avg_neighbors=4,
                                 duplicate_fraction=0.4, seed=13)
        mapping = paper_mapping(n_ranks, ranks_per_node=5)
        plan = make_plan(pattern, mapping, Variant.PARTIAL)
        collective = WorldNeighborCollective(plan)
        sends, recvs = edge_maps(pattern)
        for rank in range(n_ranks):
            sent = list(sends[rank].values())
            assert np.array_equal(collective.owned_item_ids(rank),
                                  np.unique(concatenate_or_empty(sent)))
            declared = {}
            for src, items in recvs[rank].items():
                declared.update(dict.fromkeys(items.tolist(), src))
            assert collective.recv_item_ids(rank).tolist() == sorted(declared)
            assert collective.recv_item_sources(rank).tolist() == \
                [declared[item] for item in sorted(declared)]


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

    @pytest.mark.parametrize("rank", [-1, 6, 7])
    def test_rank_outside_the_world_is_rejected(self, small_collective, rank):
        """A negative rank would slice ``offsets[-1]:offsets[0]`` — empty —
        and one past the last would index past the offsets."""
        for accessor in (small_collective.owned_item_ids,
                         small_collective.recv_item_ids,
                         small_collective.recv_item_sources,
                         small_collective.world.recv_item_ids):
            with pytest.raises(ValidationError,
                               match=rf"rank must be in \[0, 6\), got {rank}"):
                accessor(rank)

    @pytest.mark.parametrize("rank", [3.0, True, "2", np.float64(1.0)],
                             ids=repr)
    def test_non_int_rank_is_rejected(self, small_collective, rank):
        """A float, bool or string is rejected by name, never truncated or
        used as an index; a numpy integer is a rank."""
        world = small_collective.world
        for accessor in (world.owned_item_ids, world.recv_item_ids,
                         world.recv_item_sources,
                         small_collective.recv_item_ids):
            with pytest.raises(ValidationError, match="rank must be an int"):
                accessor(rank)
        assert world.recv_item_ids(np.int64(2)).tobytes() == \
            world.recv_item_ids(2).tobytes()

    def test_world_exchange_message_count_matches_plan(self):
        n_ranks = 12
        pattern = random_pattern(n_ranks, avg_neighbors=5, seed=4)
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        plan = make_plan(pattern, mapping, Variant.PARTIAL)
        world = compile_world_exchange(plan)
        assert world.n_messages == plan.n_messages


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL], ids=str)
def test_world_round_makes_one_execute_and_one_take_at_1024_ranks(
        count_calls, variant):
    """A world-engine round is the oracle's round, in O(1) calls.

    One exchange round of a 1024-rank irregular pattern through the batched
    ``ExchangeEngine``, on the default runtime.  Clock-free: every rank's
    result must be byte-equal to the closed-form oracle (the value its
    source owns of every received item), and what makes the engine fast is
    counted — a round is one ``run`` and one ``take`` in the parent,
    the output gather from the owned rows, whatever the variant and however
    many hops it composes, and whatever the rank or message count.
    """
    n_ranks = 1024
    pattern = random_pattern(n_ranks, avg_neighbors=8, avg_items_per_message=16,
                             duplicate_fraction=0.3, seed=17)
    mapping = paper_mapping(n_ranks, ranks_per_node=16)
    plan = make_plan(pattern, mapping, variant)

    # Every gather is one ``ndarray.take`` call, so gathers are countable.
    with ExchangeEngine(n_ranks) as engine:
        collective = WorldNeighborCollective(plan, engine=engine)
        values = [100.0 * rank + collective.owned_item_ids(rank).astype(np.float64)
                  for rank in range(n_ranks)]

        def engine_round():
            return collective.exchange(values)

        batched = engine_round()
        for rank in range(n_ranks):
            expected = 100.0 * collective.recv_item_sources(rank) \
                + collective.recv_item_ids(rank).astype(np.float64)
            assert batched[rank].tobytes() == expected.tobytes()

        # The work array is the owned rows; the output gather reads them.
        state = engine._programs[collective.handle]
        assert state.work.shape[0] == collective.world.owned_items_all.size
        counts = [count_calls(engine_round, of=of)
                  for of in ([ExchangeEngine.run], [np.ndarray.take])]
        assert counts == [1, 1]


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
    """Bulk counters: the profiler's one input path."""

    def test_record_batch_filters_self_messages(self):
        profiler = TrafficProfiler()
        profiler.record_batch(np.array([0, 1, 2]), np.array([0, 2, 1]),
                              np.array([8, 16, 24]), tag=10)
        total = profiler.total()
        assert total.message_count == 2
        assert total.byte_count == 40

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
    """Items a rank sends to itself arrive; the message is not accounted."""

    def test_self_send_results_match(self):
        pattern = CommPattern(4, {
            0: {0: [1, 2], 1: [2, 3]},
            1: {2: [7]},
            3: {0: [9], 3: [9]},
        })
        mapping = paper_mapping(4, ranks_per_node=2)
        for variant in ALL_VARIANTS:
            plan = make_plan(pattern, mapping, variant)
            profiler = TrafficProfiler(mapping)
            collective = WorldNeighborCollective(
                plan, engine=ExchangeEngine(4, profiler=profiler))
            results = collective.exchange(_rank_values(collective, scale=10.0))
            _assert_results(results, _oracle_results(collective, scale=10.0))
            _assert_profile_is_plan(profiler, plan, collective.spec.item_bytes)
