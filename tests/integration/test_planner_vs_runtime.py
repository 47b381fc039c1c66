"""Integration: the pure planner and the functional runtime must agree.

The figures come from the planner (statistics, modeled times); the correctness
argument comes from the functional runtime.  These tests run both on the same
patterns and require the observed traffic (message counts, byte counts, and
locality split) to match the plan exactly.
"""

import numpy as np
import pytest

from repro.collectives.api import neighbor_alltoallv_init
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.builders import neighbor_lists, random_pattern
from repro.simmpi.profiler import TrafficProfiler
from repro.simmpi.topo_comm import dist_graph_create_adjacent
from repro.simmpi.world import SimWorld
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.topology.machine import Locality
from repro.topology.presets import paper_mapping


def _run_with_profiler(pattern, mapping, variant):
    """Execute one exchange of ``variant`` and return the recorded traffic."""
    profiler = TrafficProfiler(mapping)
    world = SimWorld(pattern.n_ranks, timeout=120, profiler=profiler)

    def program(comm):
        rank = comm.rank
        send_items = {d: pattern.send_items(rank, d).tolist()
                      for d in pattern.send_ranks(rank)}
        recv_items = {s: pattern.recv_items(rank, s).tolist()
                      for s in pattern.recv_ranks(rank)}
        sources, dests = neighbor_lists(pattern, rank)
        graph = dist_graph_create_adjacent(comm, sources, dests, validate=False)
        collective = neighbor_alltoallv_init(graph, send_items, recv_items, mapping,
                                             variant=variant)
        profiler_was_quiet = profiler.total().message_count
        comm.barrier()
        collective.exchange(collective.owned_item_ids.astype(np.float64))
        return profiler_was_quiet

    world.run(program)
    return profiler


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL, Variant.FULL])
class TestObservedTrafficMatchesPlan:
    def test_message_and_byte_counts(self, variant):
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=6, duplicate_fraction=0.5,
                                 seed=77)
        plan = make_plan(pattern, mapping, variant)
        profiler = _run_with_profiler(pattern, mapping, variant)

        observed = profiler.total()
        assert observed.message_count == plan.n_messages
        expected_bytes = sum(m.nbytes(plan.item_bytes) for m in plan.messages())
        assert observed.byte_count == expected_bytes

    def test_per_locality_split(self, variant):
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=6, seed=78)
        plan = make_plan(pattern, mapping, variant)
        profiler = _run_with_profiler(pattern, mapping, variant)

        observed = profiler.by_locality()
        planned_inter = sum(1 for m in plan.messages()
                            if mapping.locality(m.src, m.dest) is Locality.INTER_NODE)
        observed_inter = observed.get(Locality.INTER_NODE)
        assert (observed_inter.message_count if observed_inter else 0) == planned_inter

    def test_per_rank_maximum_matches_statistics(self, variant):
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=7, seed=79)
        plan = make_plan(pattern, mapping, variant)
        profiler = _run_with_profiler(pattern, mapping, variant)

        stats = plan.statistics()
        observed_max_global = profiler.max_messages_per_rank(
            localities=[Locality.INTER_NODE, Locality.INTER_SOCKET])
        # Regions are nodes here, so inter-region == inter-node (+ inter-socket).
        assert observed_max_global == stats.max_global_messages


class TestSpMVPatternOnRuntime:
    def test_spmv_halo_traffic_matches_plan(self, small_anisotropic_matrix):
        mapping = paper_mapping(16, ranks_per_node=4)
        pattern = pattern_from_parcsr(small_anisotropic_matrix)
        plan = make_plan(pattern, mapping, Variant.FULL)
        profiler = _run_with_profiler(pattern, mapping, Variant.FULL)
        assert profiler.total().message_count == plan.n_messages

    def test_dedup_reduces_observed_bytes(self):
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=8, duplicate_fraction=0.7,
                                 seed=80)
        partial_bytes = _run_with_profiler(pattern, mapping, Variant.PARTIAL).total().byte_count
        full_bytes = _run_with_profiler(pattern, mapping, Variant.FULL).total().byte_count
        assert full_bytes < partial_bytes
