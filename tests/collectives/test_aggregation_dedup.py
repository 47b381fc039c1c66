"""Unit tests for aggregation setup (leader assignment) and deduplication."""

import numpy as np
import pytest

from repro.collectives.aggregation import (
    AggregationAssignment,
    BalanceStrategy,
    setup_aggregation,
)
from repro.collectives.dedup import unique_keys_segmented
from repro.pattern.builders import pattern_from_edges, random_pattern
from repro.topology.machine import MachineSpec
from repro.topology.mapping import RankMapping
from repro.topology.presets import paper_mapping
from reference_aggregation import _pair_loads
from reference_planner import collect_region_traffic
from repro.utils.errors import PlanError


@pytest.fixture
def mapping():
    return paper_mapping(16, ranks_per_node=4)   # 4 regions of 4 ranks


class TestCollectRegionTraffic:
    def test_groups_by_region_pair(self, mapping):
        pattern = pattern_from_edges(16, [
            (0, 4, [1]), (1, 5, [2]),      # region 0 -> region 1
            (0, 8, [3]),                   # region 0 -> region 2
            (0, 1, [4]),                   # intra-region: excluded
        ])
        traffic = collect_region_traffic(pattern, mapping)
        assert set(traffic.keys()) == {0}
        assert traffic[0].dest_regions() == [1, 2]
        assert traffic[0].pair_items(1) == 2
        assert traffic[0].pair_items(2) == 1

    def test_self_edges_excluded(self, mapping):
        pattern = pattern_from_edges(16, [(3, 3, [9])])
        assert collect_region_traffic(pattern, mapping) == {}
        assert _pair_loads(pattern, mapping) == {}

    def test_pair_items_count_duplicates(self, mapping):
        pattern = pattern_from_edges(16, [(0, 4, [1, 1, 2]), (2, 6, [1])])
        traffic = collect_region_traffic(pattern, mapping)
        assert traffic[0].pair_items(1) == 4
        assert traffic[0].pair_items(3) == 0

    def test_per_pair_lists_every_edge(self, mapping):
        pattern = pattern_from_edges(16, [(5, 12, [7, 8]), (4, 13, [9]),
                                          (6, 0, [3])])
        traffic = collect_region_traffic(pattern, mapping)
        assert sorted(traffic) == [1]
        assert traffic[1].dest_regions() == [0, 3]
        triples = sorted((src, dest, items.tolist())
                         for src, dest, items in traffic[1].per_pair[3])
        assert triples == [(4, 13, [9]), (5, 12, [7, 8])]

    def test_columnar_loads_equal_pair_items(self, mapping):
        """What the oracle assignment reads off the CSR columns is, pair for
        pair, what the edge-walking grouping of the pinned planner counts."""
        pattern = random_pattern(16, avg_neighbors=6, avg_items_per_message=5,
                                 duplicate_fraction=0.4, seed=11)
        traffic = collect_region_traffic(pattern, mapping)
        assert _pair_loads(pattern, mapping) == {
            src_region: {dest: float(region_traffic.pair_items(dest))
                         for dest in region_traffic.dest_regions()}
            for src_region, region_traffic in traffic.items()}


class TestLeaderAssignment:
    def test_leaders_live_in_their_regions(self, mapping):
        pattern = random_pattern(16, avg_neighbors=6, seed=2)
        assignment = setup_aggregation(pattern, mapping)
        src_regions, dest_regions = np.nonzero(assignment.send >= 0)
        assert src_regions.size
        assert mapping.region_of_many(
            assignment.send[src_regions, dest_regions]).tolist() == \
            src_regions.tolist()
        assert mapping.region_of_many(
            assignment.recv[src_regions, dest_regions]).tolist() == \
            dest_regions.tolist()

    def test_send_and_recv_cover_same_pairs(self, mapping):
        pattern = random_pattern(16, avg_neighbors=6, seed=3)
        assignment = setup_aggregation(pattern, mapping)
        assert np.array_equal(assignment.send >= 0, assignment.recv >= 0)

    def test_round_robin_spreads_over_region(self, mapping):
        # Region 0 sends to the three other regions; with round-robin the three
        # pairs land on three distinct local ranks.
        pattern = pattern_from_edges(16, [(0, 4, [1]), (1, 8, [2]), (2, 12, [3])])
        assignment = setup_aggregation(pattern, mapping,
                                       strategy=BalanceStrategy.ROUND_ROBIN)
        leaders = {assignment.leaders_for(0, r)[0] for r in (1, 2, 3)}
        assert len(leaders) == 3

    def test_bytes_strategy_balances_load(self, mapping):
        # One heavy and three light destination regions from region 0.
        pattern = pattern_from_edges(16, [
            (0, 4, list(range(100))),
            (0, 8, [1]), (0, 12, [2]), (1, 8, [3]),
        ])
        assignment = setup_aggregation(pattern, mapping, strategy=BalanceStrategy.BYTES)
        load = np.bincount(assignment.send[assignment.send >= 0])
        # No single rank should carry every pair.
        assert load.max() < 4

    def test_call_count_does_not_grow_with_edges(self, count_calls):
        """No per-edge (or per-rank) Python work: four regions either way,
        4x the ranks and 4x the edges, the same number of calls."""
        counts = []
        for n_ranks in (64, 256):
            pattern = random_pattern(n_ranks, avg_neighbors=8, seed=1)
            machine = MachineSpec(name="generic", nodes=4, sockets_per_node=1,
                                  cores_per_socket=n_ranks // 4)
            four_regions = RankMapping(machine, n_ranks,
                                       ranks_per_node=n_ranks // 4)
            counts.append(count_calls(setup_aggregation, pattern, four_regions,
                                      strategy=BalanceStrategy.ROUND_ROBIN))
        assert counts[1] <= 2 * counts[0]

    def test_unknown_pair_raises(self):
        no_pair = np.full((2, 2), -1)
        assignment = AggregationAssignment(send=no_pair, recv=no_pair)
        for src_region, dest_region in ((0, 1), (2, 0), (-1, 0)):
            with pytest.raises(PlanError):
                assignment.leaders_for(src_region, dest_region)

    def test_deterministic(self, mapping):
        pattern = random_pattern(16, avg_neighbors=6, seed=4)
        a = setup_aggregation(pattern, mapping)
        b = setup_aggregation(pattern, mapping)
        assert np.array_equal(a.send, b.send)
        assert np.array_equal(a.recv, b.recv)


class TestDeduplication:
    def test_segment_firsts_in_appearance_order(self):
        """Each segment keeps the first row of every key it holds, rows in
        their original order; a key repeated in another segment is kept
        there too."""
        offsets = np.array([0, 4, 4, 7])
        keys = np.array([3, 1, 3, 0, 1, 1, 3])
        firsts, kept_offsets = unique_keys_segmented(offsets, keys)
        assert firsts.tolist() == [0, 1, 3, 4, 6]
        assert kept_offsets.tolist() == [0, 3, 3, 5]
        assert kept_offsets.dtype == np.int64

    def test_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        firsts, kept_offsets = unique_keys_segmented(np.zeros(3, dtype=np.int64),
                                                     empty)
        assert firsts.size == 0 and kept_offsets.tolist() == [0, 0, 0]
