"""Tests of the array-native exchange path.

The tentpole claims of the array path: values flow through dense numpy buffers
end to end (no per-item Python loops between ``start`` and ``wait``), the path
is dtype-generic with vector-valued items, and the wire carries exactly
``count * item_size * dtype.itemsize`` bytes per message.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.collectives.persistent as persistent_module
from repro.collectives.api import neighbor_alltoallv_init
from repro.collectives.exchange import ExchangeSpec, compile_exchange
from repro.collectives.persistent import PersistentNeighborCollective
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.builders import neighbor_lists, pattern_from_edges, random_pattern
from repro.simmpi.profiler import TrafficProfiler
from repro.simmpi.topo_comm import dist_graph_create_adjacent
from repro.simmpi.world import SimWorld, run_spmd
from repro.topology.presets import paper_mapping
from repro.utils.errors import PlanError, ValidationError


def _reference_value(origin: int, item: int, component: int, dtype: np.dtype):
    """Deterministic per-(origin, item, component) value, exact in every dtype."""
    dtype = np.dtype(dtype)
    if dtype.kind == "i":
        return origin * 1_000_000 + item * 16 + component
    if dtype.kind == "c":
        return complex(origin * 1000 + item, component + 1)
    return float(origin * 1000 + item) + component / 8.0


def _owned_values(collective, rank, dtype, item_size):
    """Dense input array for ``rank`` in ``owned_item_ids`` order."""
    ids = collective.owned_item_ids
    values = np.empty((ids.size, item_size), dtype=dtype)
    for position, item in enumerate(ids.tolist()):
        for component in range(item_size):
            values[position, component] = _reference_value(rank, item, component, dtype)
    return values if item_size > 1 else values.reshape(-1)


def _expected_output(collective, dtype, item_size):
    """Expected dense output of ``wait`` computed straight from the pattern."""
    ids = collective.recv_item_ids
    sources = collective.recv_item_sources
    expected = np.empty((ids.size, item_size), dtype=dtype)
    for position, (item, src) in enumerate(zip(ids.tolist(), sources.tolist())):
        for component in range(item_size):
            expected[position, component] = _reference_value(src, item, component, dtype)
    return expected if item_size > 1 else expected.reshape(-1)


def _array_exchange_program(comm, pattern, mapping, variant, dtype, item_size):
    rank = comm.rank
    send_items = {d: pattern.send_items(rank, d).tolist()
                  for d in pattern.send_ranks(rank)}
    recv_items = {s: pattern.recv_items(rank, s).tolist()
                  for s in pattern.recv_ranks(rank)}
    sources, dests = neighbor_lists(pattern, rank)
    graph = dist_graph_create_adjacent(comm, sources, dests, validate=False)
    collective = neighbor_alltoallv_init(graph, send_items, recv_items, mapping,
                                         variant=variant, dtype=dtype,
                                         item_size=item_size)
    values = _owned_values(collective, rank, dtype, item_size)
    received = collective.exchange(values)
    expected = _expected_output(collective, dtype, item_size)
    assert received.dtype == np.dtype(dtype)
    assert received.shape == expected.shape
    np.testing.assert_array_equal(received, expected)
    return True


class TestArrayPathDeliversCorrectData:
    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                         Variant.FULL, Variant.POINT_TO_POINT])
    def test_dense_float64_exchange(self, variant):
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=6, duplicate_fraction=0.5,
                                 seed=41)
        results = run_spmd(n_ranks, _array_exchange_program, pattern, mapping,
                           variant, np.float64, 1, timeout=120)
        assert all(results)

    def test_repeated_iterations_reuse_buffers(self):
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=4, seed=42)

        def program(comm):
            rank = comm.rank
            send_items = {d: pattern.send_items(rank, d).tolist()
                          for d in pattern.send_ranks(rank)}
            recv_items = {s: pattern.recv_items(rank, s).tolist()
                          for s in pattern.recv_ranks(rank)}
            sources, dests = neighbor_lists(pattern, rank)
            graph = dist_graph_create_adjacent(comm, sources, dests, validate=False)
            collective = neighbor_alltoallv_init(graph, send_items, recv_items,
                                                 mapping, variant=Variant.FULL)
            base = _owned_values(collective, rank, np.float64, 1)
            expected = _expected_output(collective, np.float64, 1)
            for iteration in (1, 2, 3):
                received = collective.exchange(base * iteration)
                np.testing.assert_array_equal(received, expected * iteration)
            return True

        assert all(run_spmd(n_ranks, program, timeout=120))

    def test_lossy_input_cast_raises(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1, 2]), (1, 0, [5])])

        def program(comm):
            plan = make_plan(pattern, small_mapping, Variant.STANDARD)
            collective = PersistentNeighborCollective(comm, plan)
            f32 = PersistentNeighborCollective(comm, plan, dtype=np.float32)
            if comm.rank == 0:
                # Cross-kind casts that can corrupt values must be rejected:
                # complex into a real collective (imaginary parts discarded),
                # int64 into float32 (exact above 2**24 only).
                with pytest.raises(ValidationError, match="safely cast"):
                    collective.start(np.array([1 + 2j, 3 + 4j]))
                with pytest.raises(ValidationError, match="safely cast"):
                    f32.start(np.array([16777217, 1], dtype=np.int64))
            # Within-kind narrowing (float64 -> float32) is C-style assignment
            # and stays allowed.
            f32.exchange(np.arange(f32.owned_item_ids.size, dtype=np.float64))
            collective.exchange(np.arange(collective.owned_item_ids.size,
                                          dtype=np.float64))
            return True

        assert all(run_spmd(2, program, timeout=30))

    def test_wrong_input_shape_raises(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1, 2]), (1, 0, [5])])

        def program(comm):
            plan = make_plan(pattern, small_mapping, Variant.STANDARD)
            collective = PersistentNeighborCollective(comm, plan)
            if comm.rank == 0:
                with pytest.raises(ValidationError, match="shape"):
                    collective.start(np.zeros(5))
            # Complete a real exchange so the peer does not hang.
            collective.exchange(np.arange(collective.owned_item_ids.size,
                                          dtype=np.float64))
            return True

        assert all(run_spmd(2, program, timeout=30))


class TestZeroPerItemWork:
    """Regression guard: the Start/Wait path is O(phases), not O(items).

    The pack and unpack seams (``_gather_into`` / ``_scatter_from``) are
    shimmed with counting wrappers; the number of invocations per exchange
    must not change when the item count grows 100-fold — every message moves
    through one fancy-index numpy operation regardless of its size.
    """

    @staticmethod
    def _count_ops(monkeypatch, n_items):
        import threading

        lock = threading.Lock()
        counters = {"gather": 0, "scatter": 0}
        real_gather = persistent_module._gather_into
        real_scatter = persistent_module._scatter_from

        def counting_gather(work, indices, out):
            with lock:
                counters["gather"] += 1
            real_gather(work, indices, out)

        def counting_scatter(work, indices, arena):
            with lock:
                counters["scatter"] += 1
            real_scatter(work, indices, arena)

        monkeypatch.setattr(persistent_module, "_gather_into", counting_gather)
        monkeypatch.setattr(persistent_module, "_scatter_from", counting_scatter)

        mapping = paper_mapping(2, ranks_per_node=1)
        pattern = pattern_from_edges(2, [
            (0, 1, list(range(n_items))),
            (1, 0, list(range(n_items, 2 * n_items))),
        ])

        def program(comm):
            plan = make_plan(pattern, mapping, Variant.PARTIAL)
            collective = PersistentNeighborCollective(comm, plan)
            values = np.arange(collective.owned_item_ids.size, dtype=np.float64)
            received = collective.exchange(values)
            assert received.size == n_items
            return True

        assert all(run_spmd(2, program, timeout=60))
        return counters["gather"], counters["scatter"]

    def test_op_count_independent_of_item_count(self, monkeypatch):
        small = self._count_ops(monkeypatch, 10)
        large = self._count_ops(monkeypatch, 1000)
        assert small == large
        # Two ranks x at most one pack + one unpack per non-empty phase.
        assert small[0] <= 8 and small[1] <= 8


class TestTrafficByteAccounting:
    """Observed wire bytes must equal count * item_size * dtype.itemsize."""

    @pytest.mark.parametrize("dtype,item_size", [(np.float32, 4), (np.int64, 1),
                                                 (np.complex128, 2)])
    def test_profiler_matches_spec(self, dtype, item_size):
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=4, duplicate_fraction=0.5,
                                 seed=44, dtype=dtype, item_size=item_size)
        plan = make_plan(pattern, mapping, Variant.FULL)
        profiler = TrafficProfiler(mapping)
        world = SimWorld(n_ranks, timeout=120, profiler=profiler)

        def program(comm):
            _array_exchange_program(comm, pattern, mapping, Variant.FULL,
                                    dtype, item_size)

        world.run(program)
        observed = profiler.total()
        spec = ExchangeSpec(dtype=dtype, item_size=item_size)
        expected_bytes = sum(m.payload_count() for m in plan.messages()) \
            * spec.item_bytes
        assert observed.byte_count == expected_bytes
        assert observed.message_count == plan.n_messages


class TestCompiledExchange:
    def test_compile_assigns_owned_rows_first(self, small_mapping):
        pattern = random_pattern(16, avg_neighbors=5, seed=45)
        plan = make_plan(pattern, small_mapping, Variant.FULL)
        for rank in (0, 3, 7):
            compiled = compile_exchange(plan, rank)
            assert compiled.n_rows >= compiled.n_owned
            assert np.array_equal(np.sort(compiled.owned_items),
                                  compiled.owned_items)
            # Result rows of self-sent items point into the owned prefix.
            for position, src in enumerate(compiled.result_sources.tolist()):
                if src == rank:
                    assert compiled.result_rows[position] < compiled.n_owned

    def test_forwarding_a_local_receive_is_rejected(self):
        """Compile-time validation mirrors the runtime availability order.

        The setup redistribution packs inside ``start`` *before* the local
        phase's receives land (they complete in ``wait``), so a plan whose
        setup message forwards a locally-received key must be rejected at
        compile time — at runtime it would put never-written rows on the wire.
        """
        from repro.collectives.plan import (
            CollectivePlan, Phase, PlannedMessage, Slot,
        )
        from repro.pattern.comm_pattern import CommPattern

        mapping = paper_mapping(4, ranks_per_node=2)
        pattern = CommPattern(4, {1: {0: [5]}})
        plan = CollectivePlan(
            variant=Variant.PARTIAL, pattern=pattern, mapping=mapping,
            phases={
                Phase.LOCAL: [PlannedMessage(phase=Phase.LOCAL, src=1, dest=0,
                                             slots=[Slot(1, 5, 0)])],
                Phase.SETUP_REDIST: [PlannedMessage(phase=Phase.SETUP_REDIST,
                                                    src=0, dest=1,
                                                    slots=[Slot(1, 5, 2)])],
                Phase.GLOBAL: [],
                Phase.FINAL_REDIST: [],
            })
        with pytest.raises(PlanError, match="neither owns nor received"):
            compile_exchange(plan, 0)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ExchangeSpec(item_size=0)
        spec = ExchangeSpec(dtype=np.float32, item_size=9)
        assert spec.item_bytes == 36
