"""The plan is its columns: phase tables, interned keys and the packed join.

``CollectivePlan.phases[phase]`` is a read-only :class:`PhaseTable` that
behaves as a ``Sequence[PlannedMessage]``; the world compiler reads its
columns and joins on one packed ``holder * width + key`` int64.  These tests
pin the seams that design introduced: the sequence protocol and view
identity, the conversion of hand-built message lists, set-up call counts that
do not grow with the message count, and exactness of the packing for ids
that cannot be packed naively.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_world_compile import compile_world_exchange_reference
from test_world_compile_equivalence import (assert_matches_reference,
                                            assert_worlds_identical)

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


def hand_built(plan):
    """The same schedule rebuilt from message lists: no interned key column."""
    return dataclasses.replace(
        plan, phases={phase: list(table) for phase, table in plan.phases.items()})


class TestSequenceProtocol:
    def test_len_truth_index_iter_add(self, full_plan):
        table = full_plan.phases[Phase.GLOBAL]
        assert isinstance(table, PhaseTable) and table
        assert len(table) == table.srcs.size == len(list(table))
        assert table[-1] is table[len(table) - 1]
        assert list(table)[1] == table[1]
        with pytest.raises(IndexError):
            table[len(table)]
        extra = PlannedMessage(Phase.GLOBAL, 0, 5, slots=[(0, 1, 5)])
        assert (table + [extra])[-1] is extra
        assert not PhaseTable.from_messages(Phase.GLOBAL, [])

    def test_views_match_columns(self, full_plan):
        for table in full_plan.phases.values():
            for index, message in enumerate(table):
                assert (message.src, message.dest) == \
                    (table.srcs[index], table.dests[index])
                assert message.n_slots == table.slot_counts[index]
                assert message.payload_count() == table.payload_counts[index]
        deduplicated = full_plan.phases[Phase.GLOBAL]
        assert deduplicated.payload_origins is not deduplicated.origins
        assert deduplicated.payload_counts.sum() < deduplicated.slot_counts.sum()
        local = full_plan.phases[Phase.LOCAL]
        assert local.payload_origins is local.origins

    def test_sender_and_receiver_lists_share_one_view(self, full_plan):
        """The per-rank compiler pairs the two sides by ``id(message)``."""
        for phase, table in full_plan.phases.items():
            for index in range(len(table)):
                src, dest = int(table.srcs[index]), int(table.dests[index])
                sent = full_plan.messages_from(src, phase)
                received = full_plan.messages_to(dest, phase)
                (match,) = [m for m in sent if m.dest == dest]
                assert any(match is m for m in received)
                assert match is table[index]

    def test_hand_built_dict_is_converted_once(self, full_plan):
        rebuilt = hand_built(full_plan)
        for phase, table in rebuilt.phases.items():
            assert isinstance(table, PhaseTable)
            assert table.payload_key_ids is None
            assert table == full_plan.phases[phase]
        assert rebuilt.statistics().total_global_bytes \
            == full_plan.statistics().total_global_bytes
        rebuilt.validate()

    def test_pickle_round_trip_keeps_payload_sharing(self, full_plan):
        restored = pickle.loads(pickle.dumps(full_plan))
        for phase, table in full_plan.phases.items():
            twin = restored.phases[phase]
            assert twin == table
            assert (twin.payload_origins is twin.origins) \
                == (table.payload_origins is table.origins)
            np.testing.assert_array_equal(twin.payload_key_ids,
                                          table.payload_key_ids)


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
    world = compile_world_exchange(plan)
    assert_matches_reference(world, compile_world_exchange_reference(plan))
    # Without the planner's key column the compiler interns the payload itself.
    assert_worlds_identical(compile_world_exchange(hand_built(plan)), world)


@settings(max_examples=40, deadline=None)
@given(patterns(), st.data())
def test_key_nobody_owns_fails_like_reference(case, data):
    """A hand-built message packing an unowned key: same error, both compilers."""
    pattern, mapping = case
    plan = make_plan(pattern, mapping, Variant.STANDARD, use_cache=False)
    src = data.draw(st.integers(0, pattern.n_ranks - 1))
    dest = data.draw(st.integers(0, pattern.n_ranks - 2))
    dest += dest >= src
    origin = data.draw(st.integers(0, pattern.n_ranks - 1))
    bogus = PlannedMessage(Phase.DIRECT, src, dest,
                           slots=[(origin, 2 ** 62 + 1, dest)])
    broken = dataclasses.replace(
        plan, phases={Phase.DIRECT: plan.phases[Phase.DIRECT] + [bogus]})
    with pytest.raises(PlanError, match="neither owns nor received") as ours:
        compile_world_exchange(broken)
    with pytest.raises(PlanError, match="neither owns nor received") as theirs:
        compile_world_exchange_reference(broken)
    assert str(ours.value) == str(theirs.value)
