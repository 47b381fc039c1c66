"""The leader tables of ``setup_aggregation`` against the per-region oracle.

``reference_aggregation.py`` keeps the heap-per-region assignment the tables
replaced.  For both strategies the tables must equal its dicts entry for
entry (-1 exactly where the oracle has no pair) on any pattern and placement:
uneven regions from a custom core placement, single-member regions, equal
loads and an empty pattern included.  A counted guard pins that the
assignment's work grows at most linearly in the number of regions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.aggregation import BalanceStrategy, setup_aggregation
from repro.pattern.builders import pattern_from_edges, random_pattern
from repro.pattern.comm_pattern import CommPattern
from repro.topology.machine import MachineSpec
from repro.topology.mapping import MappingKind, RankMapping
from repro.topology.presets import paper_mapping
import reference_aggregation as oracle


def assert_tables_match_oracle(pattern, mapping, strategy):
    assignment = setup_aggregation(pattern, mapping, strategy=strategy)
    expected = oracle.setup_aggregation(pattern, mapping, strategy=strategy)
    n_regions = mapping.n_regions
    assert assignment.send.shape == assignment.recv.shape == (n_regions, n_regions)
    assert assignment.send.dtype == assignment.recv.dtype == np.int64
    assert assignment.send.tolist() == \
        oracle.leader_table(expected.send_leader, n_regions).tolist()
    assert assignment.recv.tolist() == \
        oracle.leader_table(expected.recv_leader, n_regions).tolist()
    return assignment


@st.composite
def placed_patterns(draw):
    """A pattern on ranks placed core by core: regions of uneven size, some
    of a single rank, with small item counts so equal pair loads are common."""
    sockets_per_node = draw(st.sampled_from([1, 2]))
    cores_per_socket = draw(st.integers(min_value=1, max_value=3))
    nodes = draw(st.integers(min_value=1, max_value=6))
    machine = MachineSpec(name="test", nodes=nodes,
                          sockets_per_node=sockets_per_node,
                          cores_per_socket=cores_per_socket)
    cores = draw(st.permutations(range(machine.total_cores)))
    n_ranks = draw(st.integers(min_value=1, max_value=machine.total_cores))
    mapping = RankMapping(machine, n_ranks, kind=MappingKind.CUSTOM,
                          region=draw(st.sampled_from(["node", "socket"])),
                          custom_cores=cores[:n_ranks])
    max_items = draw(st.sampled_from([1, 3]))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n_ranks - 1), st.integers(0, n_ranks - 1),
                  st.lists(st.integers(0, 5), min_size=1, max_size=max_items)),
        max_size=40))
    return pattern_from_edges(n_ranks, edges), mapping


@settings(max_examples=150, deadline=None)
@given(placed_patterns(), st.sampled_from(list(BalanceStrategy)))
def test_tables_equal_the_per_region_oracle(data, strategy):
    pattern, mapping = data
    assert_tables_match_oracle(pattern, mapping, strategy)


@pytest.mark.parametrize("strategy", list(BalanceStrategy))
class TestNamedCases:
    def test_empty_pattern_has_no_leaders(self, strategy):
        mapping = paper_mapping(8, ranks_per_node=2)
        empty = CommPattern(8, {})
        assignment = assert_tables_match_oracle(empty, mapping, strategy)
        assert (assignment.send == -1).all() and (assignment.recv == -1).all()

    def test_intra_region_traffic_has_no_leaders(self, strategy):
        mapping = paper_mapping(8, ranks_per_node=4)
        local = pattern_from_edges(8, [(0, 1, [1]), (5, 4, [2]), (3, 3, [4])])
        assignment = assert_tables_match_oracle(local, mapping, strategy)
        assert (assignment.send == -1).all()

    def test_single_member_regions_lead_every_pair(self, strategy):
        mapping = paper_mapping(6, ranks_per_node=1)
        pattern = random_pattern(6, avg_neighbors=4, seed=5)
        assignment = assert_tables_match_oracle(pattern, mapping, strategy)
        src_regions, dest_regions = np.nonzero(assignment.send >= 0)
        assert assignment.send[src_regions, dest_regions].tolist() == \
            src_regions.tolist()

    def test_equal_loads_tie_on_target_id_then_rank(self, strategy):
        """Region 0 (two ranks) sends one item to each of four other
        regions: every load ties, so both strategies alternate its two ranks
        over the targets in id order."""
        mapping = paper_mapping(10, ranks_per_node=2)
        pattern = pattern_from_edges(10, [(0, 2 * r, [r]) for r in (4, 1, 3, 2)])
        assignment = assert_tables_match_oracle(pattern, mapping, strategy)
        assert assignment.send[0, 1:].tolist() == [0, 1, 0, 1]

    def test_more_targets_than_ranks_go_to_the_least_loaded_rank(self, strategy):
        """Uneven loads from region 0 (ranks 0-2) to five regions."""
        mapping = paper_mapping(18, ranks_per_node=3)
        loads = {1: 9, 2: 1, 3: 4, 4: 4, 5: 2}
        pattern = pattern_from_edges(18, [(0, 3 * region, list(range(n)))
                                          for region, n in loads.items()])
        assignment = assert_tables_match_oracle(pattern, mapping, strategy)
        if strategy is BalanceStrategy.BYTES:
            # Heaviest first: 9 -> rank 0, 4 -> 1, 4 -> 2; then 2 -> 1 (ranks
            # 1 and 2 tie at 4, the lower rank wins) and 1 -> 2.
            assert assignment.send[0, 1:].tolist() == [0, 2, 1, 2, 1]


def test_setup_aggregation_grows_at_most_linearly_in_regions(count_calls):
    """The heap-per-region loop made 3 227 / 47 231 / 417 491 calls at 256 /
    1 024 / 4 096 ranks (16 / 64 / 256 regions).  The tables take a fixed
    number of whole-array passes plus one ``argmin`` step per target beyond
    a region's rank count, so quadrupling the regions at most quadruples the
    calls, and each region costs at most a few calls."""
    counts = []
    for n_ranks in (256, 1024, 4096):
        pattern = random_pattern(n_ranks, avg_neighbors=12,
                                 avg_items_per_message=24,
                                 duplicate_fraction=0.4, seed=11)
        mapping = paper_mapping(n_ranks, ranks_per_node=16)
        setup_aggregation(pattern, mapping)     # the pattern's caches settle
        counts.append(count_calls(setup_aggregation, pattern, mapping))
    assert counts[1] <= 4 * counts[0] and counts[2] <= 4 * counts[1], counts
    assert counts[2] <= 8 * 256, counts
