"""The plan is its columns: phase tables, interned keys and the packed join.

``CollectivePlan.phases[phase]`` is a read-only :class:`PhaseTable` of int64
columns; the world compiler joins on one packed ``holder * width + key``
int64.  These tests pin the seams of that design: message records cut from
the columns, column-by-column equality whose cost does not grow with the
message count, set-up call counts that do not grow with it either, and
exactness of the packing for ids that cannot be packed naively.
"""

import pytest
from hypothesis import given, settings, strategies as st

from plan_tables import tampered
from reference_world_compile import compile_world_exchange_reference
from test_world_compile_equivalence import assert_matches_reference

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import compile_world_exchange
from repro.collectives.plan import Phase, PhaseTable, PlannedMessage
from repro.pattern.builders import (
    halo_exchange_pattern,
    pattern_from_edges,
    random_pattern,
)
from repro.topology import paper_mapping
from repro.utils.errors import PlanError


@pytest.fixture
def full_plan():
    pattern = random_pattern(16, avg_neighbors=5, duplicate_fraction=0.5, seed=5)
    return make_plan(pattern, paper_mapping(16, ranks_per_node=4), Variant.FULL,
                     use_cache=False)


class TestColumns:
    def test_records_match_columns(self, full_plan):
        for phase, table in full_plan.phases.items():
            assert isinstance(table, PhaseTable) and table.phase is phase
            records = list(full_plan.messages(phase))
            assert len(records) == len(table)
            assert all(type(record) is PlannedMessage for record in records)
            assert [(m.src, m.dest, m.n_slots, m.payload_count())
                    for m in records] == list(zip(
                        table.srcs.tolist(), table.dests.tolist(),
                        table.slot_counts.tolist(),
                        table.payload_counts.tolist()))
            assert all(m.phase is phase for m in records)
        deduplicated = full_plan.phases[Phase.GLOBAL]
        assert deduplicated.payload_key_ids is not deduplicated.slot_key_ids
        assert deduplicated.payload_counts.sum() < deduplicated.slot_counts.sum()
        local = full_plan.phases[Phase.LOCAL]
        assert local.payload_key_ids is local.slot_key_ids
        assert local.payload_offsets is local.offsets

    def test_records_are_cut_fresh_and_read_only(self, full_plan):
        first, again = next(full_plan.messages()), next(full_plan.messages())
        assert first == again and first is not again
        with pytest.raises(AttributeError):
            first.src = 3

    def test_tables_compare_column_by_column(self, full_plan):
        table = full_plan.phases[Phase.GLOBAL]
        assert table == table and table != full_plan.phases[Phase.LOCAL]
        edited = tampered(full_plan, Phase.GLOBAL, drop_last=True)
        assert edited.phases[Phase.GLOBAL] != table
        assert edited.phases[Phase.LOCAL] == full_plan.phases[Phase.LOCAL]
        assert PhaseTable.empty(Phase.GLOBAL) == PhaseTable.empty(Phase.GLOBAL)
        assert not PhaseTable.empty(Phase.GLOBAL)
        assert PhaseTable.empty(Phase.GLOBAL) != PhaseTable.empty(Phase.LOCAL)


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
def test_phase_equality_call_count_does_not_grow_with_messages(count_calls,
                                                              variant):
    """``plan.phases == twin.phases`` (``twin`` a second, uncached plan of
    the same inputs) makes the same number of calls at 256 ranks as at
    1024: the tables compare column by column, not message by message."""
    counts = []
    for side in (16, 32):
        pattern = halo_exchange_pattern((side, side), points_per_cell=4)
        mapping = paper_mapping(side * side, ranks_per_node=16)
        plan = make_plan(pattern, mapping, variant, use_cache=False)
        twin = make_plan(pattern, mapping, variant, use_cache=False)

        def compare():
            assert plan.phases == twin.phases
        counts.append(count_calls(compare))
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL])
def test_setup_call_count_does_not_grow_with_messages(count_calls, variant):
    """Planning + world compile at 256 ranks makes <= 2x the calls of 64 ranks.

    The message count grows fourfold; one object per message (what the
    planner used to cut and the compiler to re-concatenate) would show.
    """
    counts = []
    for side in (8, 16):
        pattern = halo_exchange_pattern((side, side), points_per_cell=4)
        mapping = paper_mapping(side * side, ranks_per_node=16)

        def setup():
            compile_world_exchange(
                make_plan(pattern, mapping, variant, use_cache=False))
        counts.append(count_calls(setup))
    assert counts[1] <= 2 * counts[0], counts


# -- packing is exact -------------------------------------------------------------

#: Item ids that cannot be packed as ``rank * span + item`` without care.
ITEM_IDS = st.one_of(st.integers(0, 40),
                     st.integers(2 ** 62 - 40, 2 ** 62))


@st.composite
def patterns(draw):
    n_ranks = draw(st.integers(2, 10))
    rank = st.integers(0, n_ranks - 1)
    edges = draw(st.lists(
        st.tuples(rank, rank, st.lists(ITEM_IDS, min_size=1, max_size=6)),
        max_size=14))                       # duplicates and self-sends included
    pattern = pattern_from_edges(n_ranks, edges,
                                 item_size=draw(st.sampled_from([1, 8])))
    mapping = paper_mapping(n_ranks,
                            ranks_per_node=draw(st.integers(1, n_ranks)))
    return pattern, mapping


@settings(max_examples=60, deadline=None)
@given(patterns(), st.sampled_from([Variant.STANDARD, Variant.PARTIAL,
                                    Variant.FULL]))
def test_packed_compile_equals_reference(case, variant):
    pattern, mapping = case
    plan = make_plan(pattern, mapping, variant, use_cache=False)
    assert_matches_reference(compile_world_exchange(plan),
                             compile_world_exchange_reference(plan))


@settings(max_examples=40, deadline=None)
@given(patterns(), st.data())
def test_key_nobody_owns_fails_like_reference(case, data):
    """A message packing a key nobody owns (the spare key id): same error,
    both compilers."""
    pattern, mapping = case
    plan = make_plan(pattern, mapping, Variant.STANDARD, use_cache=False)
    src = data.draw(st.integers(0, pattern.n_ranks - 1))
    dest = data.draw(st.integers(0, pattern.n_ranks - 2))
    dest += dest >= src
    origin = data.draw(st.integers(0, pattern.n_ranks - 1))
    broken = tampered(plan, Phase.DIRECT,
                      extra=[(src, dest, [(origin, 2 ** 62 + 1, dest)])])
    assert broken.phases[Phase.DIRECT].payload_key_ids[-1] \
        == pattern.owned_keys()[0].size
    with pytest.raises(PlanError, match="neither owns nor received") as ours:
        compile_world_exchange(broken)
    with pytest.raises(PlanError, match="neither owns nor received") as theirs:
        compile_world_exchange_reference(broken)
    assert str(ours.value) == str(theirs.value)
