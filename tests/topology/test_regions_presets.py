"""Unit tests for the machine presets."""

from repro.topology.machine import Locality
from repro.topology.presets import lassen_like, paper_mapping


class TestPresets:
    def test_lassen_node_shape(self):
        machine = lassen_like()
        assert machine.sockets_per_node == 2
        assert machine.cores_per_socket == 22

    def test_lassen_node_count(self):
        machine = lassen_like(3)
        assert machine.nodes == 3
        assert machine.cores_per_node == 44

    def test_paper_mapping_uses_16_ranks_per_node(self):
        mapping = paper_mapping(64)
        assert mapping.ranks_per_node == 16
        assert mapping.n_regions == 4
        assert mapping.machine.name == "lassen-like"

    def test_paper_mapping_small_rank_count(self):
        mapping = paper_mapping(8)
        assert mapping.n_regions == 1

    def test_paper_mapping_rounds_up_nodes(self):
        mapping = paper_mapping(33)
        assert mapping.n_regions == 3

    def test_paper_mapping_explicit_node_count(self):
        mapping = paper_mapping(8, nodes=4)
        assert mapping.machine.nodes == 4
        assert mapping.n_regions == 1

    def test_paper_mapping_block_placement(self):
        mapping = paper_mapping(40)
        assert [mapping.region_of(rank) for rank in range(40)] == \
            [rank // 16 for rank in range(40)]

    def test_paper_mapping_uses_first_cpu_only(self):
        mapping = paper_mapping(40)
        assert all(mapping.machine.core_location(core)[1] == 0
                   for core in mapping.cores_array().tolist())
        assert mapping.locality(0, 15) is Locality.INTRA_SOCKET
        assert mapping.locality(0, 16) is Locality.INTER_NODE
