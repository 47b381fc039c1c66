"""Golden-equivalence tests: columnar planner vs the kept slot-list reference.

The columnar planner (:mod:`repro.collectives.planner`) must be a pure
performance change: for any pattern, mapping, and variant it has to produce
*byte-identical* phases (same messages in the same order, same slots in the
same order), identical payload keys, identical self-deliveries, and identical
statistics to the seed's Slot-list implementation, which is preserved verbatim
in ``reference_planner.py`` for exactly this comparison.
"""

import numpy as np
import pytest

from reference_planner import reference_all_plans, reference_make_plan

from repro.collectives.plan import SlotTable, Variant
from repro.collectives.planner import all_plans, make_plan
from repro.pattern.builders import (
    halo_exchange_pattern,
    pattern_from_edges,
    random_pattern,
)
from repro.topology.mapping import MappingKind, RankMapping
from repro.topology.presets import lassen_like, paper_mapping


def assert_plans_identical(plan, reference):
    """Field-by-field comparison of a columnar plan against a reference plan."""
    assert plan.variant is reference.variant
    assert set(plan.phases) == set(reference.phases)
    for phase in plan.phases:
        ours, theirs = plan.phases[phase], reference.phases[phase]
        assert len(ours) == len(theirs), f"message count differs in phase {phase}"
        for message, expected in zip(ours, theirs):
            assert message.phase is expected.phase
            assert (message.src, message.dest) == (expected.src, expected.dest)
            assert message.slots == expected.slots
            assert message.payload_keys == expected.payload_keys
            assert message.payload_count() == expected.payload_count()
    assert list(plan.self_deliveries) == list(reference.self_deliveries)

    ours, theirs = plan.statistics(), reference.statistics()
    for field in ("local_messages", "global_messages", "local_bytes",
                  "global_bytes"):
        np.testing.assert_array_equal(getattr(ours, field), getattr(theirs, field),
                                      err_msg=f"statistics field {field}")
    assert plan.required_deliveries() == reference.required_deliveries()
    assert plan.planned_deliveries() == reference.planned_deliveries()
    plan.validate()
    reference.validate()


CASES = {
    "random-low-dup": lambda: (
        random_pattern(32, avg_neighbors=7, duplicate_fraction=0.1, seed=21),
        paper_mapping(32, ranks_per_node=8)),
    "random-high-dup": lambda: (
        random_pattern(48, avg_neighbors=9, duplicate_fraction=0.7, seed=22),
        paper_mapping(48, ranks_per_node=8)),
    "random-item-bytes": lambda: (
        random_pattern(24, avg_neighbors=6, duplicate_fraction=0.4, seed=23,
                       item_bytes=4),
        paper_mapping(24, ranks_per_node=4)),
    "halo": lambda: (
        halo_exchange_pattern((4, 4), points_per_cell=6),
        paper_mapping(16, ranks_per_node=4)),
    "self-sends-and-duplicates": lambda: (
        pattern_from_edges(16, [
            (0, 4, [100, 100, 101]), (0, 5, [100]), (1, 1, [7, 7, 8]),
            (2, 5, [120]), (0, 1, [103]), (3, 12, [130]),
        ]),
        paper_mapping(16, ranks_per_node=4)),
    "empty": lambda: (
        pattern_from_edges(8, []), paper_mapping(8, ranks_per_node=4)),
    "single-region": lambda: (
        random_pattern(8, avg_neighbors=4, seed=24),
        paper_mapping(8, ranks_per_node=8)),
    "round-robin-placement": lambda: (
        random_pattern(24, avg_neighbors=6, duplicate_fraction=0.4, seed=25),
        RankMapping(lassen_like(), 24, ranks_per_node=8,
                    kind=MappingKind.ROUND_ROBIN)),
    "socket-regions": lambda: (
        random_pattern(32, avg_neighbors=6, duplicate_fraction=0.4, seed=26),
        RankMapping(lassen_like(), 32, ranks_per_node=8, region="socket")),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("variant", list(Variant))
def test_columnar_planner_matches_slot_list_reference(case, variant):
    pattern, mapping = CASES[case]()
    assert_plans_identical(make_plan(pattern, mapping, variant),
                           reference_make_plan(pattern, mapping, variant))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_all_plans_matches_reference_with_shared_assignment(seed):
    """The shared-assignment path must agree variant-by-variant too."""
    pattern = random_pattern(32, avg_neighbors=8, duplicate_fraction=0.5,
                             seed=seed)
    mapping = paper_mapping(32, ranks_per_node=8)
    plans = all_plans(pattern, mapping)
    references = reference_all_plans(pattern, mapping)
    assert set(plans) == set(references)
    for variant in plans:
        assert_plans_identical(plans[variant], references[variant])


class TestSlotTableView:
    """The lazy per-slot compatibility views over the columnar storage."""

    def test_round_trip_through_slots(self):
        table = SlotTable([0, 1, 1], [10, 11, 12], [2, 3, 3])
        assert len(table) == 3
        assert SlotTable.from_slots(table.to_slots()) == table

    def test_iteration_and_indexing(self):
        table = SlotTable([5], [7], [9])
        (slot,) = list(table)
        assert (slot.origin, slot.item, slot.final_dest) == (5, 7, 9)
        assert table[0] == slot

    def test_columns_are_read_only(self):
        table = SlotTable([1], [2], [3])
        with pytest.raises(ValueError):
            table.origin[0] = 9

    def test_caller_array_copied_not_aliased(self):
        mine = np.array([1, 2, 3], dtype=np.int64)
        table = SlotTable(mine, [4, 5, 6], [7, 8, 9])
        mine[0] = 99                      # caller's buffer reuse is harmless
        assert table.origin.tolist() == [1, 2, 3]
        assert mine.flags.writeable       # and the caller's array is not frozen

    def test_caller_2d_and_readonly_views_copied_not_aliased(self):
        column = np.array([[1], [2], [3]], dtype=np.int64)
        table = SlotTable(column, [4, 5, 6], [7, 8, 9])
        column[0, 0] = 99                 # reshape path must not alias either
        assert table.origin.tolist() == [1, 2, 3]
        base = np.array([1, 2, 3], dtype=np.int64)
        view = base.view()
        view.flags.writeable = False      # read-only view of a writable buffer
        table = SlotTable(view, [4, 5, 6], [7, 8, 9])
        base[0] = 99
        assert table.origin.tolist() == [1, 2, 3]

    def test_planned_message_field_equality(self):
        from repro.collectives.plan import Phase, PlannedMessage, Slot
        a = PlannedMessage(phase=Phase.DIRECT, src=0, dest=1,
                           slots=[Slot(0, 7, 1)])
        b = PlannedMessage(phase=Phase.DIRECT, src=0, dest=1,
                           slots=[Slot(0, 7, 1)])
        c = PlannedMessage(phase=Phase.DIRECT, src=0, dest=1,
                           slots=[Slot(0, 8, 1)])
        assert a == b
        assert a != c

    def test_message_slots_view_is_lazy_and_cached(self):
        pattern = random_pattern(16, avg_neighbors=5, seed=41)
        plan = make_plan(pattern, paper_mapping(16, ranks_per_node=4),
                         Variant.FULL)
        message = next(plan.messages())
        assert message._slots_view is None
        view = message.slots
        assert view is message.slots          # cached
        assert len(view) == len(message.table)
