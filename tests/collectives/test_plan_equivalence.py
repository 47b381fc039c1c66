"""Golden-equivalence tests: columnar planner vs the kept slot-list reference.

The columnar planner (:mod:`repro.collectives.planner`) must be a pure
performance change: for any pattern, mapping, and variant every column of
every phase table — endpoints, slots, payload and interned payload keys, in
order — must equal the seed's Slot-list implementation's messages stacked
into the same columns, and the self-deliveries, statistics and delivery
multisets must agree.  The seed implementation is preserved verbatim in
``reference_planner.py`` for exactly this comparison.
"""

from collections import Counter

import numpy as np
import pytest

from plan_tables import phase_table
from reference_planner import reference_all_plans, reference_make_plan

from repro.collectives.aggregation import setup_aggregation
from repro.collectives.plan import (
    TERMINAL_PHASES,
    Phase,
    PhaseTable,
    SlotTable,
    Variant,
)
from repro.collectives.planner import all_plans, make_plan
from repro.pattern.builders import (
    halo_exchange_pattern,
    pattern_from_edges,
    random_pattern,
)
from repro.topology.mapping import MappingKind, RankMapping
from repro.topology.presets import lassen_like, paper_mapping


def _multiset(origins, items, dests):
    return dict(Counter(zip(origins.tolist(), items.tolist(), dests.tolist())))


def _planned_deliveries(plan):
    """``(origin, item, final_dest)`` multiset of the terminal phases' slots
    plus the self-deliveries."""
    tables = [plan.phases[phase] for phase in TERMINAL_PHASES[plan.variant]
              if phase in plan.phases]
    own = plan.self_deliveries
    return _multiset(np.concatenate([t.origins for t in tables] + [own.origin]),
                     np.concatenate([t.items for t in tables] + [own.item]),
                     np.concatenate([t.final_dests for t in tables]
                                    + [own.final_dest]))


def assert_plans_identical(plan, reference):
    """Column-by-column comparison of a planner plan against a reference plan."""
    assert plan.variant is reference.variant
    assert set(plan.phases) == set(reference.phases)
    for phase, messages in reference.phases.items():
        ours = plan.phases[phase]
        theirs = phase_table(reference.pattern, phase, [
            (m.src, m.dest, m.slots, m.payload_keys) for m in messages])
        assert ours.phase is phase
        for name in PhaseTable.COLUMNS:
            column = getattr(ours, name)
            assert column.dtype == np.int64, f"{phase}:{name}"
            np.testing.assert_array_equal(column, getattr(theirs, name),
                                          err_msg=f"{phase}:{name}")
    own = plan.self_deliveries
    np.testing.assert_array_equal(
        np.stack([own.origin, own.item, own.final_dest], axis=1),
        np.array(reference.self_deliveries, dtype=np.int64).reshape(-1, 3))

    ours, theirs = plan.statistics(), reference.statistics()
    for field in ("local_messages", "global_messages", "local_bytes",
                  "global_bytes"):
        np.testing.assert_array_equal(getattr(ours, field), getattr(theirs, field),
                                      err_msg=f"statistics field {field}")
    origins, dests, items = plan.pattern.edge_arrays()
    assert _multiset(origins, items, dests) == reference.required_deliveries()
    assert _planned_deliveries(plan) == reference.planned_deliveries()
    plan.validate()
    reference.validate()


def _irregular_smoke():
    return random_pattern(64, avg_neighbors=8, avg_items_per_message=24,
                          duplicate_fraction=0.3, items_per_rank=128,
                          item_size=8, seed=0)


CASES = {
    "random-low-dup": lambda: (
        random_pattern(32, avg_neighbors=7, duplicate_fraction=0.1, seed=21),
        paper_mapping(32, ranks_per_node=8)),
    "random-high-dup": lambda: (
        random_pattern(48, avg_neighbors=9, duplicate_fraction=0.7, seed=22),
        paper_mapping(48, ranks_per_node=8)),
    "random-item-bytes": lambda: (
        random_pattern(24, avg_neighbors=6, duplicate_fraction=0.4, seed=23,
                       dtype=np.float32),
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
    # Every inter-region origin is its region's lowest rank, its own send
    # leader, so phase s is empty while phase g deduplicates.
    "origins-are-send-leaders": lambda: (
        pattern_from_edges(8, [
            (0, 4, [1, 2]), (0, 5, [1, 3]), (0, 6, [2]), (4, 0, [9, 8]),
            (4, 1, [9]),
        ]),
        paper_mapping(8, ranks_per_node=4)),
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
    # Long messages (~24 items each, the irregular benchmark's smoke
    # geometry): the other cases carry 1-3 items per message.
    "irregular-smoke": lambda: (
        _irregular_smoke(), paper_mapping(64, ranks_per_node=16)),
    "irregular-smoke-round-robin": lambda: (
        _irregular_smoke(),
        RankMapping(lassen_like(), 64, ranks_per_node=16,
                    kind=MappingKind.ROUND_ROBIN)),
}

#: The cases with long messages, whose edges are runs of many rows.
LONG_MESSAGE_CASES = ("irregular-smoke", "irregular-smoke-round-robin")


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("variant", list(Variant))
def test_columnar_planner_matches_slot_list_reference(case, variant):
    pattern, mapping = CASES[case]()
    assert_plans_identical(make_plan(pattern, mapping, variant),
                           reference_make_plan(pattern, mapping, variant))


@pytest.mark.parametrize("case", LONG_MESSAGE_CASES)
def test_long_message_cases_reach_every_run_shape(case):
    """Each long-message case has, among its inter-region edges: phase-g
    deduplication groups (one leader pair and origin) of one edge and of
    several, an origin that is its own send leader and a destination that
    is its receive leader."""
    pattern, mapping = CASES[case]()
    assignment = setup_aggregation(pattern, mapping)
    origins, dests = pattern.edge_sources(), pattern.csr()[1]
    src_regions = mapping.region_of_many(origins)
    dest_regions = mapping.region_of_many(dests)
    inter = src_regions != dest_regions
    send = assignment.send[src_regions[inter], dest_regions[inter]]
    recv = assignment.recv[src_regions[inter], dest_regions[inter]]
    groups = Counter(zip(send.tolist(), recv.tolist(),
                         origins[inter].tolist()))
    assert min(groups.values()) == 1 and max(groups.values()) >= 2
    assert np.any(origins[inter] == send)
    assert np.any(dests[inter] == recv)


def test_a_case_plans_an_empty_setup_phase_and_deduplicates():
    """``origins-are-send-leaders`` keeps covering a deduplicated plan whose
    phase s gets no edges."""
    pattern, mapping = CASES["origins-are-send-leaders"]()
    plan = make_plan(pattern, mapping, Variant.FULL, use_cache=False)
    setup, global_ = plan.phases[Phase.SETUP_REDIST], plan.phases[Phase.GLOBAL]
    assert setup.srcs.size == 0
    assert global_.payload_key_ids.size < global_.slot_key_ids.size


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


class TestSlotTable:
    """The self-delivery columns: read-only, never aliasing a caller's array."""

    def test_concat_and_equality(self):
        table = SlotTable([0, 1, 1], [10, 11, 12], [2, 3, 3])
        assert len(table) == 3
        parts = [SlotTable([0], [10], [2]), SlotTable.empty(),
                 SlotTable([1, 1], [11, 12], [3, 3])]
        assert SlotTable.concat(parts) == table
        assert SlotTable.concat([table]) is table
        assert SlotTable.concat([]) == SlotTable.empty()
        assert table != SlotTable([0, 1, 1], [10, 11, 13], [2, 3, 3])

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
