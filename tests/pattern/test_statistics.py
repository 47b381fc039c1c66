"""Unit tests for pattern statistics (the Figures 8-10 quantities)."""

import numpy as np
import pytest

from repro.collectives import Variant, neighbor_alltoallv_init_world
from repro.collectives.planner import plan_standard
from repro.pattern.builders import halo_exchange_pattern, pattern_from_edges
from repro.pattern.statistics import PatternStatistics, average_neighbors
from repro.simmpi import ExchangeEngine, TrafficProfiler
from repro.topology.machine import Locality
from repro.topology.presets import paper_mapping
from repro.utils.errors import TopologyError, ValidationError


def _exchanged_traffic(pattern, mapping):
    """Run one standard exchange of ``pattern`` under a traffic profiler."""
    n_ranks = pattern.n_ranks
    with ExchangeEngine(n_ranks, profiler=TrafficProfiler(mapping)) as engine:
        collective = neighbor_alltoallv_init_world(
            pattern, mapping, variant=Variant.STANDARD, engine=engine)
        collective.exchange([np.asarray(collective.owned_item_ids(rank),
                                        dtype=np.float64)
                             for rank in range(n_ranks)])
        return engine.profiler.by_locality()


class TestPatternStatisticsContainer:
    def test_add_message_local_vs_global(self):
        stats = PatternStatistics(n_ranks=4)
        stats.add_message(0, True, 100)
        stats.add_message(0, False, 40)
        stats.add_message(1, False, 60)
        assert stats.max_local_messages == 1
        assert stats.max_global_messages == 1
        assert stats.total_global_messages == 2
        assert stats.max_global_bytes == 60
        assert stats.total_global_bytes == 100

    def test_rank_out_of_range(self):
        with pytest.raises(ValidationError):
            PatternStatistics(n_ranks=2).add_message(5, True, 1)

    def test_empty_statistics(self):
        stats = PatternStatistics(n_ranks=3)
        assert stats.max_local_messages == 0
        assert stats.max_global_bytes == 0


class TestPatternStatisticsFromPattern:
    """A standard plan's statistics are the pattern's own message counts."""

    def test_known_pattern(self):
        mapping = paper_mapping(8, ranks_per_node=4)
        # Rank 0: one local message (to 1), two global (to 4 and 5).
        pattern = pattern_from_edges(8, [(0, 1, [1, 2]), (0, 4, [3]), (0, 5, [4, 5, 6])])
        stats = plan_standard(pattern, mapping).statistics()
        assert stats.local_messages[0] == 1
        assert stats.global_messages[0] == 2
        assert stats.local_bytes[0] == 16
        assert stats.global_bytes[0] == 32

    def test_self_messages_ignored(self):
        mapping = paper_mapping(4, ranks_per_node=4)
        pattern = pattern_from_edges(4, [(1, 1, [7])])
        stats = plan_standard(pattern, mapping).statistics()
        assert stats.total_local_messages == 0

    def test_mapping_must_cover_pattern(self):
        mapping = paper_mapping(4, ranks_per_node=4)
        pattern = pattern_from_edges(8, [(0, 7, [1])])
        with pytest.raises(TopologyError, match="out of range"):
            plan_standard(pattern, mapping).statistics()

    def test_halo_pattern_statistics(self):
        # 16 ranks on one node: every halo message is intra-region.
        mapping = paper_mapping(16, ranks_per_node=16)
        pattern = halo_exchange_pattern((4, 4), points_per_cell=8)
        stats = plan_standard(pattern, mapping).statistics()
        assert stats.total_global_messages == 0
        assert stats.max_local_messages == 4


class TestLocalityBreakdowns:
    def test_locality_message_counts(self):
        mapping = paper_mapping(32, ranks_per_node=16)
        pattern = pattern_from_edges(32, [(0, 1, [1]), (0, 16, [2]), (17, 0, [3])])
        counts = _exchanged_traffic(pattern, mapping)
        assert counts[Locality.INTRA_SOCKET].message_count == 1
        assert counts[Locality.INTER_NODE].message_count == 2
        assert Locality.INTER_SOCKET not in counts

    def test_locality_byte_counts(self):
        mapping = paper_mapping(32, ranks_per_node=16)
        pattern = pattern_from_edges(32, [(0, 16, [1, 2, 3])])
        counts = _exchanged_traffic(pattern, mapping)
        assert counts[Locality.INTER_NODE].byte_count == 24

    def test_average_neighbors(self):
        pattern = pattern_from_edges(4, [(0, 1, [1]), (0, 2, [2]), (1, 0, [3])])
        assert average_neighbors(pattern) == pytest.approx((2 + 1 + 0 + 0) / 4)
        assert average_neighbors(pattern, [0, 1]) == pytest.approx(1.5)
        assert average_neighbors(pattern, []) == 0.0
