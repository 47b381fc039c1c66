"""Unit tests for the plan data structures and their validation."""

import dataclasses

import pytest

from repro.collectives.plan import (
    CollectivePlan,
    Phase,
    PlannedMessage,
    Slot,
    Variant,
)
from repro.collectives.planner import plan_full, plan_partial, plan_standard
from repro.pattern.builders import pattern_from_edges
from repro.perfmodel.base import CostModel
from repro.perfmodel.postal import PostalModel
from repro.topology.presets import paper_mapping
from repro.utils.errors import PlanError


@pytest.fixture
def mapping():
    return paper_mapping(8, ranks_per_node=4)


@pytest.fixture
def cross_region_pattern():
    """Two ranks in region 0 each sending to two ranks in region 1, plus a
    local message, mirroring the paper's Example 2.1 in miniature."""
    return pattern_from_edges(8, [
        (0, 4, [100, 101]),
        (0, 5, [100]),          # item 100 duplicated across destinations
        (1, 5, [110]),
        (1, 2, [111]),          # fully local message
    ])


class TestPlannedMessage:
    def test_payload_defaults_to_slots(self):
        message = PlannedMessage(phase=Phase.DIRECT, src=0, dest=1,
                                 slots=[Slot(0, 7, 1), Slot(0, 8, 1)])
        assert message.payload_count() == 2
        assert message.nbytes(8) == 16

    def test_explicit_payload_keys(self):
        message = PlannedMessage(phase=Phase.GLOBAL, src=0, dest=4,
                                 slots=[Slot(0, 7, 4), Slot(0, 7, 5)],
                                 payload_keys=[(0, 7)])
        assert message.payload_count() == 1

    def test_self_message_rejected(self):
        with pytest.raises(PlanError):
            PlannedMessage(phase=Phase.DIRECT, src=2, dest=2, slots=[Slot(2, 1, 2)])

    def test_empty_message_rejected(self):
        with pytest.raises(PlanError):
            PlannedMessage(phase=Phase.DIRECT, src=0, dest=1, slots=[])


class TestPlanAccessors:
    def test_messages_from_and_to(self, cross_region_pattern, mapping):
        plan = plan_standard(cross_region_pattern, mapping)
        assert {m.dest for m in plan.messages_from(0)} == {4, 5}
        assert {m.src for m in plan.messages_to(5)} == {0, 1}
        assert plan.n_messages == 4

    def test_statistics_sender_side(self, cross_region_pattern, mapping):
        stats = plan_standard(cross_region_pattern, mapping).statistics()
        assert stats.global_messages[0] == 2
        assert stats.local_messages[1] == 1
        assert stats.global_bytes[0] == 3 * 8

    def test_describe_mentions_variant(self, cross_region_pattern, mapping):
        assert "standard" in plan_standard(cross_region_pattern, mapping).describe()

    def test_max_global_message_bytes(self, cross_region_pattern, mapping):
        plan = plan_partial(cross_region_pattern, mapping)
        assert plan.max_global_message_bytes() > 0

    def test_item_bytes_taken_from_pattern(self, mapping):
        pattern = pattern_from_edges(8, [(0, 4, [1])], item_bytes=4)
        plan = plan_standard(pattern, mapping)
        assert plan.statistics().global_bytes[0] == 4


def tampered(plan, phase, *, extra=(), drop_last=False):
    """A copy of ``plan`` whose ``phase`` lost or gained messages.

    Plans are immutable (phase tables have no mutators), so tampering means
    building a new plan from an edited message list.
    """
    messages = list(plan.phases[phase])
    if drop_last:
        messages.pop()
    return dataclasses.replace(
        plan, phases={**plan.phases, phase: messages + list(extra)})


class TestPlanValidation:
    def test_all_variants_validate(self, cross_region_pattern, mapping):
        for plan in (plan_standard(cross_region_pattern, mapping),
                     plan_partial(cross_region_pattern, mapping),
                     plan_full(cross_region_pattern, mapping)):
            plan.validate()

    def test_missing_delivery_detected(self, cross_region_pattern, mapping):
        plan = tampered(plan_standard(cross_region_pattern, mapping),
                        Phase.DIRECT, drop_last=True)
        with pytest.raises(PlanError, match="misses"):
            plan.validate()

    def test_spurious_delivery_detected(self, cross_region_pattern, mapping):
        plan = tampered(plan_standard(cross_region_pattern, mapping), Phase.DIRECT, extra=[
            PlannedMessage(phase=Phase.DIRECT, src=2, dest=3, slots=[Slot(2, 999, 3)])])
        with pytest.raises(PlanError, match="spurious"):
            plan.validate()

    def test_duplicate_delivery_detected(self, cross_region_pattern, mapping):
        plan = tampered(plan_standard(cross_region_pattern, mapping), Phase.DIRECT, extra=[
            PlannedMessage(phase=Phase.DIRECT, src=1, dest=2, slots=[Slot(1, 111, 2)])])
        with pytest.raises(PlanError, match="more than once"):
            plan.validate()

    def test_global_phase_must_cross_regions(self, cross_region_pattern, mapping):
        plan = tampered(plan_partial(cross_region_pattern, mapping), Phase.GLOBAL, extra=[
            PlannedMessage(phase=Phase.GLOBAL, src=2, dest=3, slots=[Slot(2, 5, 3)])])
        with pytest.raises(PlanError, match="stays"):
            plan.validate()

    def test_local_phase_must_stay_in_region(self, cross_region_pattern, mapping):
        plan = tampered(plan_partial(cross_region_pattern, mapping), Phase.LOCAL, extra=[
            PlannedMessage(phase=Phase.LOCAL, src=2, dest=6, slots=[Slot(2, 5, 6)])])
        with pytest.raises(PlanError, match="crosses"):
            plan.validate()

    def test_terminal_slot_destination_checked(self, cross_region_pattern, mapping):
        plan = tampered(plan_standard(cross_region_pattern, mapping), Phase.DIRECT, extra=[
            PlannedMessage(phase=Phase.DIRECT, src=2, dest=3, slots=[Slot(2, 5, 7)])])
        with pytest.raises(PlanError, match="bound for"):
            plan.validate()

    def test_plan_is_immutable_and_tampered_copy_recomputes(
            self, cross_region_pattern, mapping):
        """Phase tables have no mutators, and a copy never inherits a memo."""
        plan = plan_standard(cross_region_pattern, mapping)
        original = plan.statistics()
        table = plan.phases[Phase.DIRECT]
        assert not hasattr(table, "append") and not hasattr(table, "pop")
        with pytest.raises(ValueError):
            table.srcs[0] = 3
        with pytest.raises(TypeError):
            table[0] = table[1]
        copy = tampered(plan, Phase.DIRECT, extra=[
            PlannedMessage(phase=Phase.DIRECT, src=2, dest=3, slots=[Slot(2, 5, 3)])])
        assert copy.cache_token is None
        assert copy.statistics().total_local_messages \
            == original.total_local_messages + 1
        assert plan.statistics() is original


class TestModeledTime:
    def test_standard_time_is_single_phase(self, cross_region_pattern, mapping):
        model = PostalModel(alpha=1e-6, beta=0.0)
        plan = plan_standard(cross_region_pattern, mapping)
        # Worst sender (rank 0) posts two messages.
        assert plan.modeled_time(model) == pytest.approx(2e-6)

    def test_aggregated_time_reflects_phase_structure(self, cross_region_pattern, mapping):
        model = PostalModel(alpha=1e-6, beta=0.0)
        plan = plan_partial(cross_region_pattern, mapping)
        time = plan.modeled_time(model)
        # max(l, s+g) + r with at least one message in s, g and r.
        assert time >= 2e-6
        assert time <= 6e-6

    def test_empty_pattern_costs_nothing(self, mapping):
        pattern = pattern_from_edges(8, [])
        model = PostalModel()
        for builder in (plan_standard, plan_partial, plan_full):
            assert builder(pattern, mapping).modeled_time(model) == 0.0

    def test_setup_costs_are_per_process_maxima(self, cross_region_pattern, mapping):
        plan = plan_partial(cross_region_pattern, mapping)
        n_messages, slot_bytes = plan.setup_costs()
        assert 0 < n_messages <= plan.n_messages
        assert slot_bytes > 0


class _OpaqueModel(CostModel):
    """Behaviour lives in an attribute the repr does not mention — the shape
    that used to poison the (repr-keyed) modeled-time memo."""

    def __init__(self, scale: float):
        self.scale = scale

    def message_time(self, nbytes, locality):
        return self.scale * (1.0e-6 + nbytes * 1.0e-9)

    def __repr__(self):
        return "_OpaqueModel()"


class _UnhashableModel(_OpaqueModel):
    __hash__ = None  # dict-unusable: modeled_time must compute uncached


class TestModeledTimeMemo:
    """Regression: the memo is keyed by the live model object, never by a
    lossy repr, so re-measuring with a different model cannot be served
    another model's cached time."""

    def test_models_with_identical_reprs_do_not_share_entries(
            self, cross_region_pattern, mapping):
        plan = plan_standard(cross_region_pattern, mapping)
        slow = _OpaqueModel(scale=1000.0)
        fast = _OpaqueModel(scale=1.0)
        assert repr(slow) == repr(fast)
        t_slow = plan.modeled_time(slow)
        t_fast = plan.modeled_time(fast)
        assert t_fast > 0.0
        assert t_slow == pytest.approx(1000.0 * t_fast)

    def test_same_object_hits_the_cache(self, cross_region_pattern, mapping):
        plan = plan_standard(cross_region_pattern, mapping)
        model = _OpaqueModel(scale=2.0)
        first = plan.modeled_time(model)
        assert plan.modeled_time(model) == first
        fresh = plan_standard(cross_region_pattern, mapping)
        assert fresh.modeled_time(_OpaqueModel(scale=2.0)) == first

    def test_unhashable_model_computes_uncached(self, cross_region_pattern,
                                                mapping):
        plan = plan_standard(cross_region_pattern, mapping)
        reference = plan.modeled_time(_OpaqueModel(scale=3.0))
        model = _UnhashableModel(scale=3.0)
        assert plan.modeled_time(model) == reference
        model.scale = 6.0  # no cache entry to go stale
        assert plan.modeled_time(model) == pytest.approx(2.0 * reference)

    def test_dead_models_do_not_pin_entries(self, cross_region_pattern,
                                            mapping):
        plan = plan_standard(cross_region_pattern, mapping)
        for scale in (1.0, 2.0, 3.0):
            plan.modeled_time(_OpaqueModel(scale=scale))  # keys die right away
        assert len(plan._modeled_time_memo) == 0

    def test_pickle_round_trip_recomputes_correctly(self, cross_region_pattern,
                                                    mapping):
        import pickle

        plan = plan_standard(cross_region_pattern, mapping)
        model = _OpaqueModel(scale=5.0)
        before = plan.modeled_time(model)
        clone = pickle.loads(pickle.dumps(plan))
        assert len(clone._modeled_time_memo) == 0  # memos never travel
        assert clone.modeled_time(model) == before
        assert clone.modeled_time(_OpaqueModel(scale=10.0)) == \
            pytest.approx(2.0 * before)
