"""Unit tests for the standard / partial / full planners."""

import pytest

from repro.collectives.plan import Phase, Variant
from repro.collectives.planner import (
    all_plans,
    make_plan,
    plan_full,
    plan_partial,
    plan_standard,
)
from repro.pattern.builders import pattern_from_edges, random_pattern
from repro.topology.presets import paper_mapping
from repro.utils.errors import PlanError


@pytest.fixture
def mapping():
    return paper_mapping(16, ranks_per_node=4)


@pytest.fixture
def example_pattern():
    """A miniature of the paper's Example 2.1: region 0 sends shared values to
    region 1, with duplicates across destination ranks."""
    return pattern_from_edges(16, [
        (0, 4, [100]), (0, 5, [100, 101]), (0, 6, [101]),   # duplicates of 100, 101
        (1, 4, [110]), (1, 7, [110]),                       # duplicate of 110
        (2, 5, [120]),
        (0, 1, [103]),                                      # fully local
        (3, 12, [130]),                                      # region 0 -> region 3
    ])


class TestStandardPlan:
    def test_one_message_per_edge(self, example_pattern, mapping):
        plan = plan_standard(example_pattern, mapping)
        assert plan.n_messages == 8
        assert set(plan.phases) == {Phase.DIRECT}
        plan.validate()

    def test_point_to_point_variant(self, example_pattern, mapping):
        plan = plan_standard(example_pattern, mapping, variant=Variant.POINT_TO_POINT)
        assert plan.variant is Variant.POINT_TO_POINT
        plan.validate()

    def test_rejects_aggregated_variants(self, example_pattern, mapping):
        with pytest.raises(PlanError):
            plan_standard(example_pattern, mapping, variant=Variant.PARTIAL)

    def test_self_edges_become_self_deliveries(self, mapping):
        pattern = pattern_from_edges(16, [(2, 2, [5, 6])])
        plan = plan_standard(pattern, mapping)
        assert plan.n_messages == 0
        assert len(plan.self_deliveries) == 2
        plan.validate()

    def test_within_edge_duplicates_collapsed(self, mapping):
        pattern = pattern_from_edges(16, [(0, 4, [9, 9, 9])])
        plan = plan_standard(pattern, mapping)
        message = next(plan.messages())
        assert message.payload_count() == 1
        plan.validate()


class TestAggregatedPlans:
    def test_single_global_message_per_region_pair(self, example_pattern, mapping):
        plan = plan_partial(example_pattern, mapping)
        global_messages = list(plan.messages(Phase.GLOBAL))
        # Region pairs with traffic: (0 -> 1) and (0 -> 3).
        assert len(global_messages) == 2
        endpoints = {(mapping.region_of(m.src), mapping.region_of(m.dest))
                     for m in global_messages}
        assert endpoints == {(0, 1), (0, 3)}
        plan.validate()

    def test_local_phase_matches_intra_region_edges(self, example_pattern, mapping):
        plan = plan_partial(example_pattern, mapping)
        local = list(plan.messages(Phase.LOCAL))
        assert len(local) == 1 and local[0].src == 0 and local[0].dest == 1

    def test_setup_phase_targets_leaders_only(self, example_pattern, mapping):
        plan = plan_partial(example_pattern, mapping)
        for message in plan.messages(Phase.SETUP_REDIST):
            assert mapping.same_region(message.src, message.dest)

    def test_final_phase_delivers_to_pattern_destinations(self, example_pattern, mapping):
        plan = plan_partial(example_pattern, mapping)
        final_dests = {m.dest for m in plan.messages(Phase.FINAL_REDIST)}
        pattern_dests = {dest for src, dest, _items in example_pattern.edges()
                         if not mapping.same_region(src, dest)}
        # Every final-redistribution message targets a real destination rank
        # (some destinations are reached without a message when they are the
        # receive leader themselves).
        assert final_dests <= pattern_dests

    def test_partial_keeps_duplicates_full_removes_them(self, example_pattern, mapping):
        partial = plan_partial(example_pattern, mapping)
        full = plan_full(example_pattern, mapping)
        assert full.global_payload_items() < partial.global_payload_items()
        # The routing work (slots) is identical; only the payload shrinks.
        assert sum(m.n_slots for m in full.messages(Phase.GLOBAL)) == \
            sum(m.n_slots for m in partial.messages(Phase.GLOBAL))
        partial.validate()
        full.validate()

    def test_full_never_larger_than_partial_anywhere(self, mapping):
        pattern = random_pattern(16, avg_neighbors=7, duplicate_fraction=0.6, seed=8)
        partial = plan_partial(pattern, mapping)
        full = plan_full(pattern, mapping)
        partial_stats = partial.statistics()
        full_stats = full.statistics()
        assert full_stats.max_global_bytes <= partial_stats.max_global_bytes
        assert full_stats.total_global_bytes <= partial_stats.total_global_bytes

    def test_aggregation_reduces_global_message_count(self, mapping):
        pattern = random_pattern(16, avg_neighbors=10, seed=9)
        standard = plan_standard(pattern, mapping).statistics()
        partial = plan_partial(pattern, mapping).statistics()
        assert partial.total_global_messages <= standard.total_global_messages
        assert partial.max_global_messages <= standard.max_global_messages

    def test_aggregation_increases_local_traffic(self, mapping):
        pattern = random_pattern(16, avg_neighbors=10, seed=10)
        standard = plan_standard(pattern, mapping).statistics()
        partial = plan_partial(pattern, mapping).statistics()
        assert partial.total_local_messages >= standard.total_local_messages

    def test_messages_between_same_ranks_are_merged_per_phase(self, mapping):
        # Rank 0 sends to two ranks of region 1 and two ranks of region 2; if
        # the same local leader handles both pairs the setup messages merge.
        pattern = random_pattern(16, avg_neighbors=8, seed=12)
        plan = plan_partial(pattern, mapping)
        for phase in (Phase.SETUP_REDIST, Phase.GLOBAL, Phase.FINAL_REDIST):
            endpoints = [(m.src, m.dest) for m in plan.messages(phase)]
            assert len(endpoints) == len(set(endpoints))

    def test_single_region_pattern_has_no_global_phase(self):
        mapping = paper_mapping(8, ranks_per_node=8)
        pattern = random_pattern(8, avg_neighbors=4, seed=1)
        plan = plan_partial(pattern, mapping)
        assert not list(plan.messages(Phase.GLOBAL))
        assert not list(plan.messages(Phase.SETUP_REDIST))
        plan.validate()


class TestUndersizedMapping:
    def test_aggregated_plan_raises_topology_error(self):
        from repro.utils.errors import TopologyError
        pattern = pattern_from_edges(16, [(0, 12, [1])])
        small_mapping = paper_mapping(8, ranks_per_node=4)
        with pytest.raises(TopologyError, match="out of range"):
            plan_partial(pattern, small_mapping)


class TestDispatchers:
    def test_make_plan_accepts_strings(self, example_pattern, mapping):
        plan = make_plan(example_pattern, mapping, "full")
        assert plan.variant is Variant.FULL

    def test_make_plan_rejects_unknown(self, example_pattern, mapping):
        with pytest.raises(ValueError):
            make_plan(example_pattern, mapping, "turbo")

    def test_all_plans_covers_every_variant(self, example_pattern, mapping):
        plans = all_plans(example_pattern, mapping)
        assert set(plans) == set(Variant)
        for plan in plans.values():
            plan.validate()

    def test_all_plans_shares_leader_assignment(self, example_pattern, mapping):
        plans = all_plans(example_pattern, mapping)
        partial_globals = {(m.src, m.dest) for m in plans[Variant.PARTIAL].messages(Phase.GLOBAL)}
        full_globals = {(m.src, m.dest) for m in plans[Variant.FULL].messages(Phase.GLOBAL)}
        assert partial_globals == full_globals
