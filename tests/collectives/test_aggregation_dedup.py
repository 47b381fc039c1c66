"""Unit tests for aggregation setup (leader assignment) and deduplication."""

import numpy as np
import pytest

from repro.collectives.aggregation import (
    AggregationAssignment,
    BalanceStrategy,
    _pair_loads,
    setup_aggregation,
)
from repro.collectives.dedup import unique_keys_segmented
from repro.pattern.builders import pattern_from_edges, random_pattern
from repro.topology.machine import MachineSpec
from repro.topology.mapping import RankMapping
from repro.topology.presets import paper_mapping
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
        """What ``setup_aggregation`` reads off the CSR columns is, pair for
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
        for (src_region, dest_region), rank in assignment.send_leader.items():
            assert mapping.region_of(rank) == src_region
        for (src_region, dest_region), rank in assignment.recv_leader.items():
            assert mapping.region_of(rank) == dest_region

    def test_send_and_recv_cover_same_pairs(self, mapping):
        pattern = random_pattern(16, avg_neighbors=6, seed=3)
        assignment = setup_aggregation(pattern, mapping)
        assert set(assignment.send_leader) == set(assignment.recv_leader)

    def test_round_robin_spreads_over_region(self, mapping):
        # Region 0 sends to the three other regions; with round-robin the three
        # pairs land on three distinct local ranks.
        pattern = pattern_from_edges(16, [(0, 4, [1]), (1, 8, [2]), (2, 12, [3])])
        assignment = setup_aggregation(pattern, mapping,
                                       strategy=BalanceStrategy.ROUND_ROBIN)
        leaders = {assignment.send_leader[(0, r)] for r in (1, 2, 3)}
        assert len(leaders) == 3

    def test_bytes_strategy_balances_load(self, mapping):
        # One heavy and three light destination regions from region 0.
        pattern = pattern_from_edges(16, [
            (0, 4, list(range(100))),
            (0, 8, [1]), (0, 12, [2]), (1, 8, [3]),
        ])
        assignment = setup_aggregation(pattern, mapping, strategy=BalanceStrategy.BYTES)
        load = np.bincount(list(assignment.send_leader.values()))
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
        assignment = AggregationAssignment(send_leader={}, recv_leader={})
        with pytest.raises(PlanError):
            assignment.leaders_for(0, 1)

    def test_deterministic(self, mapping):
        pattern = random_pattern(16, avg_neighbors=6, seed=4)
        a = setup_aggregation(pattern, mapping)
        b = setup_aggregation(pattern, mapping)
        assert a.send_leader == b.send_leader
        assert a.recv_leader == b.recv_leader


class TestDeduplication:
    def test_segment_firsts_in_appearance_order(self):
        """Each segment keeps the first row of every key it holds, rows in
        their original order; a key repeated in another segment is kept
        there too."""
        segments = np.array([0, 0, 0, 0, 2, 2, 2])
        keys = np.array([3, 1, 3, 0, 1, 1, 3])
        firsts, counts = unique_keys_segmented(segments, keys, 4, 3)
        assert firsts.tolist() == [0, 1, 3, 4, 6]
        assert counts.tolist() == [3, 0, 2]
        assert counts.dtype == np.int64

    def test_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        firsts, counts = unique_keys_segmented(empty, empty, 5, 2)
        assert firsts.size == 0 and counts.tolist() == [0, 0]
