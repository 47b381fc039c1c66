"""The search's delivery check, ``_all_held``, answers by search alone.

The compile certifies a planner-built plan from its witness; every other
plan — hand-built, or a ``dataclasses.replace`` copy such as the one below,
which carries no witness — goes to the search, whose check is
``_all_held``: each sorted query looks up the sorted receipt stream with one
``searchsorted``, and only that check can answer "not held".  These tests
pin its answers:

(a) on random sorted streams and queries — among them direct-phase cases
    whose queries are the receipts row for row, equal-size pairs that
    differ, and a pair received at two steps with ``allowed`` between them —
    it equals "every query's pair arrives at a step ``<= allowed``", read
    off a dict;
(b) a standard plan with one result sent to the wrong rank (as many
    receipts as results, the case a row-for-row shortcut once answered)
    raises the hop-by-hop join's :class:`PlanError`, word for word the
    per-rank reference compiler's.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plan_tables import cut_messages, phase_table
from reference_world_compile import compile_world_exchange_reference

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import _STEP_BITS, _all_held, compile_world_exchange
from repro.collectives.plan import Phase
from repro.pattern.builders import halo_exchange_pattern
from repro.topology import paper_mapping
from repro.utils.errors import PlanError

#: Largest step number the low bits hold.
MAX_STEP = (1 << _STEP_BITS) - 1


def held_by_dict(receipts, queries, allowed) -> bool:
    """Whether each query's pair has a receipt at a step ``<= allowed``."""
    first = {}
    for pair, step in receipts:
        first[pair] = min(step, first.get(pair, step))
    return all(first.get(pair, MAX_STEP + 1) <= allowed for pair in queries)


def packed(receipts, queries):
    """The sorted stream and queries ``_all_held`` reads."""
    stream = np.sort(np.array([(pair << _STEP_BITS) | step
                               for pair, step in receipts], dtype=np.int64))
    asked = np.sort(np.array(queries, dtype=np.int64) << _STEP_BITS)
    return stream, asked


PAIRS = st.integers(0, 12)
RECEIPTS = st.lists(st.tuples(PAIRS, st.integers(1, MAX_STEP)), max_size=12)


@st.composite
def cases(draw):
    receipts = draw(RECEIPTS)
    if receipts and draw(st.booleans()):
        # A direct phase: the queries are the receipts' pairs, row for row.
        queries = [pair for pair, _ in receipts]
    else:
        queries = draw(st.lists(PAIRS, max_size=12))
    return receipts, queries, draw(st.integers(0, MAX_STEP))


@settings(max_examples=400, deadline=None)
@given(cases())
# One pair received at steps 1 and 3, asked twice, allowed 2: the search
# finds step 1.
@example(([(5, 1), (5, 3)], [5, 5], 2))
# The same receipts asked once each for two pairs: one never arrives.
@example(([(5, 1), (5, 3)], [5, 6], 3))
# Row for row, one arrival too late.
@example(([(2, 1), (4, 4)], [2, 4], 3))
@example(([], [1], 0))
@example(([(1, 1)], [], 0))
def test_the_check_equals_the_dict_answer(case):
    receipts, queries, allowed = case
    stream, asked = packed(receipts, queries)
    assert _all_held(stream, asked, allowed) \
        == held_by_dict(receipts, queries, allowed)


def test_a_standard_plan_with_one_misrouted_result_raises_the_joins_error():
    pattern = halo_exchange_pattern((4, 4), periodic=True)
    plan = make_plan(pattern, paper_mapping(16, ranks_per_node=4),
                     Variant.STANDARD, use_cache=False)
    messages = cut_messages(plan.phases[Phase.DIRECT])
    src, dest, slots, payload = messages[-1]
    wrong = next(rank for rank in range(16) if rank not in (src, dest))
    slots = slots.copy()
    slots[:, 2] = wrong
    messages[-1] = (src, wrong, slots, payload)
    broken = dataclasses.replace(plan, phases={
        Phase.DIRECT: phase_table(pattern, Phase.DIRECT, messages)})
    table = broken.phases[Phase.DIRECT]
    # As many receipts as results, and one of them misrouted.
    assert int(table.payload_counts.sum()) \
        == int(plan.phases[Phase.DIRECT].payload_counts.sum())
    with pytest.raises(PlanError, match="no phase of the plan delivers") as ours:
        compile_world_exchange(broken)
    with pytest.raises(PlanError) as theirs:
        compile_world_exchange_reference(broken)
    assert str(ours.value) == str(theirs.value)
