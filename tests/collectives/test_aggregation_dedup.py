"""Unit tests for aggregation setup (leader assignment) and deduplication."""

import pytest

from repro.collectives.aggregation import (
    AggregationAssignment,
    BalanceStrategy,
    _pair_loads,
    collect_region_traffic,
    setup_aggregation,
)
from repro.collectives.dedup import (
    dedup_savings_fraction,
    duplicate_item_count,
    group_slots_by_final_dest,
    unique_payload_keys,
)
from repro.collectives.plan import Slot
from repro.pattern.builders import pattern_from_edges, random_pattern
from repro.topology.mapping import RankMapping
from repro.topology.presets import generic_cluster, paper_mapping
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
        load = assignment.sender_load()
        # No single rank should carry every pair.
        assert max(load.values()) < 4

    def test_call_count_does_not_grow_with_edges(self, count_calls):
        """No per-edge (or per-rank) Python work: four regions either way,
        4x the ranks and 4x the edges, the same number of calls."""
        counts = []
        for n_ranks in (64, 256):
            pattern = random_pattern(n_ranks, avg_neighbors=8, seed=1)
            four_regions = RankMapping(generic_cluster(4, n_ranks // 4), n_ranks,
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
    def test_unique_payload_keys_order_stable(self):
        slots = [Slot(0, 7, 4), Slot(0, 9, 5), Slot(0, 7, 5), Slot(1, 7, 4)]
        assert unique_payload_keys(slots) == [(0, 7), (0, 9), (1, 7)]

    def test_duplicate_item_count(self):
        slots = [Slot(0, 7, 4), Slot(0, 7, 5), Slot(0, 7, 6)]
        assert duplicate_item_count(slots) == 2

    def test_savings_fraction(self):
        slots = [Slot(0, 7, 4), Slot(0, 7, 5)]
        assert dedup_savings_fraction(slots) == pytest.approx(0.5)
        assert dedup_savings_fraction([]) == 0.0

    def test_group_by_final_dest(self):
        slots = [Slot(0, 1, 5), Slot(0, 2, 4), Slot(1, 3, 5)]
        groups = group_slots_by_final_dest(slots)
        assert list(groups.keys()) == [4, 5]
        assert len(groups[5]) == 2

    def test_no_duplicates_no_savings(self):
        slots = [Slot(0, 1, 4), Slot(0, 2, 4)]
        assert duplicate_item_count(slots) == 0
