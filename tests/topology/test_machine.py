"""Unit tests for MachineSpec and Locality."""

import pytest

from repro.topology.machine import Locality, MachineSpec
from repro.utils.errors import TopologyError, ValidationError


@pytest.fixture
def node():
    return MachineSpec(name="test", nodes=4, sockets_per_node=2, cores_per_socket=8)


class TestMachineSpec:
    def test_core_counts(self, node):
        assert node.cores_per_node == 16
        assert node.total_cores == 64

    def test_core_location_first_core(self, node):
        assert node.core_location(0) == (0, 0, 0)

    def test_core_location_last_core(self, node):
        assert node.core_location(63) == (3, 1, 7)

    def test_core_location_second_socket(self, node):
        node_id, socket, core = node.core_location(8)
        assert (node_id, socket, core) == (0, 1, 0)

    def test_core_location_out_of_range(self, node):
        with pytest.raises(TopologyError):
            node.core_location(64)

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            MachineSpec(name="bad", nodes=0, sockets_per_node=1, cores_per_socket=1)

    def test_describe_mentions_counts(self, node):
        assert "4 nodes" in node.describe()


class TestLocalityClassification:
    def test_ordering_reflects_distance(self):
        assert Locality.SELF < Locality.INTRA_SOCKET < Locality.INTER_SOCKET \
            < Locality.INTER_NODE

    def test_is_local_property(self):
        assert Locality.INTRA_SOCKET.is_local
        assert Locality.INTER_SOCKET.is_local
        assert not Locality.INTER_NODE.is_local
