"""Functional tests of the persistent collectives and the MPI-Advance-style API.

These run real data through the simulated runtime and check, for every
variant, that the delivered values are exactly what point-to-point would have
delivered — the core correctness claim behind replacing Hypre's communication.
"""

import numpy as np
import pytest

from repro.collectives.api import (
    _pack_send_map,
    _pattern_from_packets,
    neighbor_alltoallv,
    neighbor_alltoallv_init,
)
from repro.collectives.persistent import PersistentNeighborCollective
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.builders import neighbor_lists, pattern_from_edges, random_pattern
from repro.simmpi.topo_comm import dist_graph_create_adjacent
from repro.simmpi.world import run_spmd
from repro.topology.presets import paper_mapping
from repro.utils.errors import CommunicationError, ValidationError


def _value_of(rank, item):
    """The value ``rank`` holds for ``item`` (scalars or aligned arrays)."""
    return 1000.0 * rank + np.asarray(item, dtype=np.float64)


def _check_received(collective, received, recv_items, factor=1.0):
    """``received`` is ``recv_item_ids`` order: every declared item, valued by
    the source that declared it."""
    ids = collective.recv_item_ids
    assert ids.tolist() == sorted({int(i) for items in recv_items.values()
                                   for i in items})
    for src, items in recv_items.items():
        positions = np.searchsorted(ids, items)
        np.testing.assert_array_equal(received[positions],
                                      factor * _value_of(src, items))


def _exchange_program(comm, pattern, mapping, variant, iterations=1, scale=1.0):
    """SPMD program: set up the collective, exchange, verify, return success."""
    rank = comm.rank
    send_items = {d: pattern.send_items(rank, d).tolist()
                  for d in pattern.send_ranks(rank)}
    recv_items = {s: pattern.recv_items(rank, s).tolist()
                  for s in pattern.recv_ranks(rank)}
    sources, dests = neighbor_lists(pattern, rank)
    graph = dist_graph_create_adjacent(comm, sources, dests, validate=False)
    collective = neighbor_alltoallv_init(graph, send_items, recv_items, mapping,
                                         variant=variant)
    for iteration in range(iterations):
        factor = scale * (iteration + 1)
        received = collective.exchange(
            factor * _value_of(rank, collective.owned_item_ids))
        _check_received(collective, received, recv_items, factor)
    return True


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL, Variant.FULL])
class TestAllVariantsDeliverCorrectData:
    def test_random_pattern(self, variant):
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=6, duplicate_fraction=0.5,
                                 seed=21)
        results = run_spmd(n_ranks, _exchange_program, pattern, mapping, variant,
                           timeout=120)
        assert all(results)

    def test_repeated_iterations_with_changing_values(self, variant):
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=4, seed=22)
        results = run_spmd(n_ranks, _exchange_program, pattern, mapping, variant, 3,
                           timeout=120)
        assert all(results)

    def test_example_2_1_style_duplicates(self, variant):
        """The paper's Example 2.1: region 0 values shared by several ranks of region 1."""
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = pattern_from_edges(n_ranks, [
            (0, 5, [1000]), (0, 6, [1000]), (0, 4, [1001]), (0, 5, [1001]), (0, 7, [1001]),
            (1, 4, [1100]), (1, 5, [1100]), (1, 6, [1101]),
            (2, 4, [1200]), (2, 5, [1201]), (2, 6, [1201]), (2, 7, [1201]),
            (3, 7, [1300]),
        ])
        results = run_spmd(n_ranks, _exchange_program, pattern, mapping, variant,
                           timeout=120)
        assert all(results)


class TestPersistentHandleSemantics:
    def test_start_twice_raises(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1]), (1, 0, [2])])

        def program(comm):
            plan = make_plan(pattern, small_mapping, Variant.STANDARD)
            collective = PersistentNeighborCollective(comm, plan)
            values = np.ones(collective.owned_item_ids.size)
            collective.start(values)
            if comm.rank == 0:
                with pytest.raises(CommunicationError, match="started twice"):
                    collective.start(values)
            collective.wait()
            return True

        assert all(run_spmd(2, program, timeout=30))

    def test_wait_before_start_raises(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1])])

        def program(comm):
            plan = make_plan(pattern, small_mapping, Variant.STANDARD)
            collective = PersistentNeighborCollective(comm, plan)
            if comm.rank == 0:
                with pytest.raises(CommunicationError, match="before start"):
                    collective.wait()
            return True

        assert all(run_spmd(2, program, timeout=30))

    def test_missing_owned_value_raises(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1, 2])])

        def program(comm):
            plan = make_plan(pattern, small_mapping, Variant.STANDARD)
            collective = PersistentNeighborCollective(comm, plan)
            if comm.rank == 0:
                with pytest.raises(ValidationError, match="shape"):
                    collective.start(np.array([1.0]))   # value for item 2 missing
            return True

        assert all(run_spmd(2, program, timeout=30))

    def test_mapping_input_raises(self, small_mapping):
        """An item-keyed mapping is not a value array: the cast check rejects it."""
        pattern = pattern_from_edges(2, [(0, 1, [1, 2])])

        def program(comm):
            plan = make_plan(pattern, small_mapping, Variant.STANDARD)
            collective = PersistentNeighborCollective(comm, plan)
            if comm.rank == 0:
                with pytest.raises(ValidationError, match="safely cast"):
                    collective.start({1: 1.0, 2: 2.0})
            return True

        assert all(run_spmd(2, program, timeout=30))

    def test_messages_per_iteration_matches_plan(self, small_mapping):
        pattern = random_pattern(16, avg_neighbors=5, seed=30)

        def program(comm):
            plan = make_plan(pattern, small_mapping, Variant.PARTIAL)
            collective = PersistentNeighborCollective(comm, plan)
            return collective.messages_per_iteration()

        per_rank = run_spmd(16, program, timeout=60)
        plan = make_plan(pattern, small_mapping, Variant.PARTIAL)
        for rank, count in enumerate(per_rank):
            assert count == len(plan.messages_from(rank))


class TestApiValidation:
    def test_send_map_must_match_graph(self):
        def program(comm):
            mapping = paper_mapping(2, ranks_per_node=2)
            graph = dist_graph_create_adjacent(comm, [], [], validate=False)
            neighbor_alltoallv_init(graph, {1 - comm.rank: [1]}, {}, mapping)

        with pytest.raises(CommunicationError, match="not among"):
            run_spmd(2, program, timeout=30)

    def test_recv_map_must_match_declared_sends(self):
        def program(comm):
            mapping = paper_mapping(2, ranks_per_node=2)
            peer = 1 - comm.rank
            graph = dist_graph_create_adjacent(comm, [peer], [peer], validate=False)
            send_items = {peer: [comm.rank * 10]}
            recv_items = {peer: [999]}     # wrong expectation
            neighbor_alltoallv_init(graph, send_items, recv_items, mapping)

        with pytest.raises(CommunicationError, match="expects items"):
            run_spmd(2, program, timeout=30)

    def test_one_shot_convenience_wrapper(self):
        n_ranks = 4
        mapping = paper_mapping(n_ranks, ranks_per_node=2)
        pattern = pattern_from_edges(n_ranks, [(0, 2, [5]), (2, 0, [21]),
                                               (1, 3, [15]), (3, 1, [31])])

        def program(comm):
            rank = comm.rank
            send_items = {d: pattern.send_items(rank, d).tolist()
                          for d in pattern.send_ranks(rank)}
            recv_items = {s: pattern.recv_items(rank, s).tolist()
                          for s in pattern.recv_ranks(rank)}
            sources, dests = neighbor_lists(pattern, rank)
            graph = dist_graph_create_adjacent(comm, sources, dests, validate=False)
            owned = np.unique(np.concatenate(list(send_items.values())))
            return neighbor_alltoallv(graph, send_items, recv_items,
                                      _value_of(rank, owned), mapping,
                                      variant=Variant.FULL)

        results = run_spmd(n_ranks, program, timeout=60)
        assert results[0].tolist() == [_value_of(2, 21)]
        assert results[3].tolist() == [_value_of(1, 15)]


class TestBufferHelpers:
    def test_pack_and_unpack_roundtrip(self):
        """The set-up gather's wire packets round-trip into the pattern:
        ``[n_edges, dests…, counts…, items…]`` per rank, destinations sorted
        and empty item lists dropped."""
        send_maps = [{2: [7, 9], 1: [3]}, {}, {0: [12, 13], 1: []}]
        packets = [_pack_send_map(send_items) for send_items in send_maps]
        assert [packet.tolist() for packet in packets] == [
            [2, 1, 2, 1, 2, 3, 7, 9], [0], [1, 0, 2, 12, 13]]
        pattern = _pattern_from_packets(
            3, np.concatenate(packets), np.array([p.size for p in packets]),
            dtype=np.dtype(np.float64), item_size=1, item_bytes=None)
        assert pattern == pattern_from_edges(
            3, [(0, 2, [7, 9]), (0, 1, [3]), (2, 0, [12, 13])])
