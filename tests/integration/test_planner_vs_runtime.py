"""Integration: the pure planner and the executed exchange must agree.

The figures come from the planner (statistics, modeled times); the correctness
argument comes from executing the exchange on the world engine.  These tests
run both on the same patterns and require the observed traffic (message
counts, byte counts, and locality split) to match the plan exactly.
"""

import numpy as np
import pytest

from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.experiments.per_level import executed_statistics
from repro.pattern.builders import random_pattern
from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.profiler import TrafficProfiler
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.topology.machine import Locality
from repro.topology.presets import paper_mapping


def _run_with_profiler(pattern, mapping, variant):
    """Execute one exchange of ``variant`` and return the recorded traffic."""
    profiler = TrafficProfiler(mapping)
    with ExchangeEngine(pattern.n_ranks, profiler=profiler) as engine, \
            neighbor_alltoallv_init_world(pattern, mapping, variant=variant,
                                          engine=engine) as collective:
        # Set-up sends nothing: only the exchange is accounted.
        assert profiler.total().message_count == 0
        collective.exchange([collective.owned_item_ids(rank).astype(np.float64)
                             for rank in range(pattern.n_ranks)])
    return profiler


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL, Variant.FULL])
class TestObservedTrafficMatchesPlan:
    @pytest.mark.parametrize("dtype,item_size",
                             [(np.float64, 1), (np.float32, 3),
                              (np.complex128, 1), (np.int64, 2)],
                             ids=["float64-1", "float32-3", "complex128-1",
                                  "int64-2"])
    def test_message_and_byte_counts(self, variant, dtype, item_size):
        """Planner = runtime for every element type: the pattern sets it, so
        the profiler counts exactly the bytes ``plan.statistics()`` counts."""
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=6, duplicate_fraction=0.5,
                                 seed=77, dtype=dtype, item_size=item_size)
        plan = make_plan(pattern, mapping, variant)
        executed = executed_statistics(plan)
        planned = plan.statistics()
        for field in ("local_messages", "global_messages", "local_bytes",
                      "global_bytes"):
            np.testing.assert_array_equal(getattr(executed, field),
                                          getattr(planned, field),
                                          err_msg=field)
        assert int(planned.local_messages.sum()
                   + planned.global_messages.sum()) == plan.n_messages
        assert int(planned.local_bytes.sum() + planned.global_bytes.sum()) \
            == sum(m.payload_count() for m in plan.messages()) * pattern.item_bytes

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
