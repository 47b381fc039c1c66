"""Unit tests for the standard / partial / full planners.

The scale guards at the end pin what makes planning fast without racing two
stopwatches: the plans of a pattern four times wider make the same number of
calls (``count_calls``, root ``conftest.py``), and the whole pipeline at
1024 ranks holds one generous absolute budget.
"""

import time

import pytest

from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.plan import Phase, Variant
from repro.collectives.aggregation import setup_aggregation
from repro.collectives.planner import (
    all_plans,
    make_plan,
    plan_full,
    plan_partial,
    plan_standard,
)
from repro.pattern.builders import pattern_from_edges, random_pattern
from repro.perfmodel import lassen_parameters
from repro.topology.presets import paper_mapping
from repro.utils.errors import PlanError, ValidationError


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
        pattern_dests = {dest for src, dest in zip(
            example_pattern.edge_sources().tolist(),
            example_pattern.csr()[1].tolist())
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

    @pytest.mark.parametrize("variant", list(Variant))
    def test_make_plan_refuses_it_up_front(self, variant):
        """The dispatcher checks the mapping before any planner runs, so
        ``standard`` / ``point_to_point`` cannot build a plan whose
        statistics fail later, and the aggregated variants name both rank
        counts instead of failing in a region lookup."""
        pattern = random_pattern(8, avg_neighbors=3, seed=1)
        small_mapping = paper_mapping(4, ranks_per_node=2)
        with pytest.raises(ValidationError,
                           match="mapping covers 4 ranks but the pattern "
                                 "spans 8"):
            make_plan(pattern, small_mapping, variant, use_cache=False)
        with pytest.raises(ValidationError, match="covers 4 .* spans 8"):
            neighbor_alltoallv_init_world(pattern, small_mapping,
                                          variant=variant)

    def test_all_plans_refuses_it_up_front(self):
        pattern = random_pattern(8, avg_neighbors=3, seed=1)
        with pytest.raises(ValidationError, match="covers 4 .* spans 8"):
            all_plans(pattern, paper_mapping(4, ranks_per_node=2),
                      use_cache=False)


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


# -- planning at scale ---------------------------------------------------------


@pytest.fixture(scope="module")
def wide_pattern():
    """A mid-sized irregular pattern: 256 ranks, 12 neighbours each."""
    return random_pattern(256, avg_neighbors=12, avg_items_per_message=24,
                          duplicate_fraction=0.4, seed=11)


@pytest.fixture(scope="module")
def wide_mapping():
    """Placement for :func:`wide_pattern` (16 ranks per node)."""
    return paper_mapping(256, ranks_per_node=16)


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL])
def test_every_variant_plans_messages_at_256_ranks(wide_pattern, wide_mapping,
                                                   variant):
    assert make_plan(wide_pattern, wide_mapping, variant).n_messages > 0


def test_partial_plan_at_256_ranks_has_a_positive_modeled_time(wide_pattern,
                                                               wide_mapping):
    plan = make_plan(wide_pattern, wide_mapping, Variant.PARTIAL)
    assert plan.modeled_time(lassen_parameters()) > 0.0


def test_plans_and_validate_make_as_many_calls_at_1024_ranks_as_at_256(
        count_calls, wide_pattern, wide_mapping):
    """Planning is whole-array work — as many calls at 1024 ranks as at 256.

    The columnar planner replaced a per-slot implementation (one Python
    ``Slot`` per routed item, dict-of-list grouping, per-slot validation),
    kept as the oracle ``tests/collectives/test_plan_equivalence.py`` pins it
    to.  With the leader assignment precomputed, ``plan_standard`` +
    ``plan_partial`` + ``plan_full`` and the ``validate()`` of each make the
    same number of Python + C calls on the 256-rank pattern as on the same
    generator at 1024 ranks — four times the ranks, messages and slots.
    ``setup_aggregation`` stays outside the count: it takes one ``argmin``
    step per target beyond a region's rank count, so its calls grow with the
    number of regions (at most linearly; pinned by
    ``test_leader_tables.py::test_setup_aggregation_grows_at_most_linearly_in_regions``).
    """
    def counted_plans(pattern, mapping):
        assignment = setup_aggregation(pattern, mapping)

        def plan_and_validate():
            for plan in (plan_standard(pattern, mapping),
                         plan_partial(pattern, mapping, assignment=assignment),
                         plan_full(pattern, mapping, assignment=assignment)):
                plan.validate()

        plan_and_validate()     # the pattern's cached edge tables settle
        return count_calls(plan_and_validate)

    wider = random_pattern(1024, avg_neighbors=12, avg_items_per_message=24,
                           duplicate_fraction=0.4, seed=11)
    counts = [counted_plans(wide_pattern, wide_mapping),
              counted_plans(wider, paper_mapping(1024, ranks_per_node=16))]
    assert counts[0] == counts[1], counts


def test_all_plans_with_statistics_and_validate_at_1024_ranks_under_60_s():
    """The full plan pipeline at 1024 simulated ranks finishes in seconds.

    ``all_plans`` + ``statistics()`` + ``validate()`` for every variant on a
    1024-rank irregular pattern took the seed's slot-list implementation
    ~17 s; the columnar pipeline runs it in ~3 s.  The generous 60 s bound
    only catches a regression back to per-slot Python loops, not machine
    noise.
    """
    pattern = random_pattern(1024, avg_neighbors=16, avg_items_per_message=48,
                             duplicate_fraction=0.4, seed=11)
    mapping = paper_mapping(1024, ranks_per_node=16)
    start = time.perf_counter()
    plans = all_plans(pattern, mapping)
    for plan in plans.values():
        plan.statistics()
        plan.validate()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, \
        f"1024-rank plan pipeline took {elapsed:.1f}s — slot-loop regression?"
