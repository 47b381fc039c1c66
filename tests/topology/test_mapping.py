"""Unit tests for RankMapping."""

import numpy as np
import pytest

from repro.topology.machine import Locality, MachineSpec
from repro.topology.mapping import MappingKind, RankMapping
from repro.utils.errors import TopologyError


@pytest.fixture
def machine():
    return MachineSpec(name="test", nodes=8, sockets_per_node=2, cores_per_socket=8)


class TestBlockMapping:
    def test_block_fills_nodes_in_order(self, machine):
        mapping = RankMapping(machine, 32, ranks_per_node=16)
        nodes = mapping.cores_array() // machine.cores_per_node
        assert nodes[[0, 15, 16]].tolist() == [0, 0, 1]

    def test_region_equals_node_by_default(self, machine):
        mapping = RankMapping(machine, 32, ranks_per_node=16)
        assert mapping.n_regions == 2
        assert mapping.region_of(0) == mapping.region_of(15)
        assert mapping.region_of(0) != mapping.region_of(16)

    def test_ranks_in_region(self, machine):
        mapping = RankMapping(machine, 32, ranks_per_node=16)
        assert mapping.ranks_in_region(1).tolist() == list(range(16, 32))

    def test_partial_last_node(self, machine):
        mapping = RankMapping(machine, 20, ranks_per_node=16)
        assert mapping.n_regions == 2
        assert mapping.ranks_in_region(1).tolist() == [16, 17, 18, 19]

    def test_member_table_pads_uneven_regions(self, machine):
        """Cores 17, 2, 40, 5, 16 put ranks {1, 3}, {0, 4} and {2} on nodes
        0, 1 and 2."""
        mapping = RankMapping(machine, 5, kind=MappingKind.CUSTOM,
                              custom_cores=[17, 2, 40, 5, 16])
        members, counts = mapping.member_table()
        assert members.tolist() == [[1, 3], [0, 4], [2, -1]]
        assert counts.tolist() == [2, 2, 1]
        assert not members.flags.writeable and not counts.flags.writeable
        for region in range(mapping.n_regions):
            assert mapping.ranks_in_region(region).tolist() == \
                members[region, :counts[region]].tolist()

    def test_too_many_ranks_raises(self, machine):
        with pytest.raises(TopologyError):
            RankMapping(machine, 1000, ranks_per_node=16)

    def test_locality_classes(self, machine):
        mapping = RankMapping(machine, 32, ranks_per_node=16)
        assert mapping.locality(0, 0) is Locality.SELF
        assert mapping.locality(0, 1) is Locality.INTRA_SOCKET
        assert mapping.locality(0, 8) is Locality.INTER_SOCKET
        assert mapping.locality(0, 16) is Locality.INTER_NODE


class TestRoundRobinMapping:
    def test_round_robin_spreads_consecutive_ranks(self, machine):
        mapping = RankMapping(machine, 16, ranks_per_node=2,
                              kind=MappingKind.ROUND_ROBIN)
        nodes = mapping.cores_array() // machine.cores_per_node
        assert nodes[[0, 1, 8]].tolist() == [0, 1, 0]

    def test_round_robin_overflow_raises(self, machine):
        with pytest.raises(TopologyError):
            RankMapping(machine, 100, ranks_per_node=2, kind=MappingKind.ROUND_ROBIN)


class TestCustomMapping:
    def test_custom_cores_place_ranks(self, machine):
        cores = [0, 1, 16, 17]   # two ranks on node 0, two on node 1
        mapping = RankMapping(machine, 4, kind=MappingKind.CUSTOM,
                              custom_cores=cores, ranks_per_node=16)
        assert mapping.n_regions == 2
        assert mapping.same_region(0, 1)
        assert not mapping.same_region(1, 2)

    def test_custom_requires_cores(self, machine):
        with pytest.raises(TopologyError):
            RankMapping(machine, 4, kind=MappingKind.CUSTOM)

    def test_custom_rejects_duplicate_cores(self, machine):
        with pytest.raises(TopologyError):
            RankMapping(machine, 2, kind=MappingKind.CUSTOM, custom_cores=[3, 3],
                        ranks_per_node=16)

    def test_custom_rejects_out_of_range(self, machine):
        with pytest.raises(TopologyError):
            RankMapping(machine, 1, kind=MappingKind.CUSTOM, custom_cores=[9999],
                        ranks_per_node=16)


class TestSocketRegions:
    def test_socket_regions_split_nodes(self, machine):
        mapping = RankMapping(machine, 32, ranks_per_node=16, region="socket")
        # 16 ranks per node over 2 sockets of 8 cores: 4 socket regions.
        assert mapping.n_regions == 4
        assert mapping.same_region(0, 7)
        assert not mapping.same_region(0, 8)

    def test_invalid_region_kind(self, machine):
        with pytest.raises(TopologyError):
            RankMapping(machine, 8, region="rack")


class TestQueries:
    def test_regions_array_matches_region_of(self, machine):
        mapping = RankMapping(machine, 48, ranks_per_node=16)
        regions = mapping.regions_array()
        assert all(regions[r] == mapping.region_of(r) for r in range(48))

    def test_region_of_many(self, machine):
        mapping = RankMapping(machine, 48, ranks_per_node=16)
        np.testing.assert_array_equal(mapping.region_of_many([0, 16, 32]),
                                      np.array([0, 1, 2]))

    def test_rank_out_of_range(self, machine):
        mapping = RankMapping(machine, 8, ranks_per_node=8)
        with pytest.raises(TopologyError):
            mapping.region_of(8)

    def test_describe(self, machine):
        mapping = RankMapping(machine, 8, ranks_per_node=8)
        assert "8 ranks" in mapping.describe()
