"""The planner's witness: the compile certifies a planner-built plan with no
sort and no search, and a witness can only ever say "held".

A plan from ``make_plan`` carries a :class:`~repro.collectives.plan.Witness`:
for every payload row of a forwarding hop and every unique edge row, the
receipt row that gives the holder its value, or ``-1`` where it owns it.
These tests pin that

(a) the compile of every planner-built plan — every variant of the three
    working-set plans, and every level's exchange of the ``amg_solve_256``
    solver — makes no ``searchsorted`` call and runs no hop-by-hop join
    (counted);
(b) a corrupted witness — shifted, rolled, two rows swapped, a row out of
    range, a row in a step later than its hop may use, an unowned row
    marked owned — on a valid plan or re-attached to a tampered one, and a
    witness read off a tampered plan's own receipts with no regard for
    their step, never changes the compile's verdict or its
    :class:`PlanError` text, which stay the hop-by-hop join's;
(c) the witness costs 4 bytes per forwarded payload row and per edge row,
    and a ``dataclasses.replace`` copy carries none.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plan_tables import phase_table
from test_setup_scale import WORKING_SET_PLANS, working_set_plan
from test_world_compile_equivalence import _outcome, tampered_plan

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldAMGSolver
from repro.collectives import Variant, make_plan, plan_cache
from repro.collectives import exchange as exchange_module
from repro.collectives.exchange import (
    _replay_columns,
    compile_world_exchange,
    receipt_starts,
)
from repro.collectives.plan import (
    AGGREGATED_PHASES,
    CollectivePlan,
    Phase,
    Witness,
)
from repro.pattern import CommPattern
from repro.pattern.builders import random_pattern
from repro.sparse import strong_scaling_problem
from repro.topology import paper_mapping
from repro.utils.errors import PlanError

ALL_VARIANTS = tuple(Variant)

#: The phases a witness names payload rows of, and the receive steps each
#: may read (the steps before its send step in the aggregated schedule).
FORWARDING = (Phase.GLOBAL, Phase.FINAL_REDIST)


def searches(count_calls, plan) -> int:
    """``searchsorted`` calls plus hop-by-hop joins run by one compile."""
    compile_world_exchange(plan)    # the pattern's cached tables settle
    return count_calls(compile_world_exchange, plan,
                       of=[np.ndarray.searchsorted,
                           exchange_module._replay_columns])


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("name", sorted(WORKING_SET_PLANS))
def test_a_planner_built_plan_compiles_without_a_search(count_calls, name,
                                                        variant):
    factory, n_ranks, _ = WORKING_SET_PLANS[name]
    plan = make_plan(factory(), paper_mapping(n_ranks, ranks_per_node=16),
                     variant, use_cache=False)
    assert plan.witness is not None
    assert searches(count_calls, plan) == 0


def test_every_amg_exchange_compiles_without_a_search(count_calls):
    """Every level's ``A`` / ``R`` / ``P`` / gather plan of the
    ``amg_solve_256`` solver (65 536 rows on 256 ranks, partial)."""
    problem = strong_scaling_problem(65536, 256, epsilon=0.001,
                                     theta=math.pi / 4.0)
    plan_cache.clear_plan_cache()
    with WorldAMGSolver(problem.matrix, paper_mapping(256, ranks_per_node=16),
                        variant=Variant.PARTIAL,
                        hierarchy=build_hierarchy(problem.matrix),
                        runtime="engine") as solver:
        plans = {(row.level, row.operator): row.collective.plan
                 for row in solver.vcycle_executor.schedule}
    assert {operator for _, operator in plans} == {"A", "R", "P", "gather"}
    for key, plan in plans.items():
        assert searches(count_calls, plan) == 0, key


# -- a corrupted witness changes nothing ---------------------------------------


#: How :func:`corrupted` breaks a witness.
CORRUPTIONS = ("shift", "roll", "swap two rows", "point out of range",
               "point into a later step", "mark an unowned row owned")


def _receipt_ends(plan) -> np.ndarray:
    """``ends[s]``: the receipt rows of receive steps ``1..s``."""
    starts = receipt_starts(plan.variant, plan.phases)
    total = sum(int(plan.phases[phase].payload_offsets[-1])
                for phase in starts if phase in plan.phases)
    return np.array(sorted(starts.values()) + [total])


def _columns(plan, witness):
    """``(name, entries, holders, keys, allowed)`` of every witness column
    of ``plan``: ``allowed`` is the last receive step the entries may read."""
    pattern = plan.pattern
    holders, _, keys = pattern.owned_keys()
    n_steps = _receipt_ends(plan).size - 1
    columns = [("edges", witness.edges, pattern.unique_edge_table()[1],
                keys, n_steps)]
    for phase, entries in witness.hops.items():
        table = plan.phases[phase]
        allowed = 1 if phase is Phase.GLOBAL else 3
        columns.append((phase, entries,
                        np.repeat(table.srcs, table.payload_counts),
                        table.payload_key_ids, allowed))
    return columns


@st.composite
def corrupted(draw, plan, witness):
    """``witness`` broken one of the :data:`CORRUPTIONS` ways (or returned
    as it is when there is nothing of that kind to break)."""
    kind = draw(st.sampled_from(CORRUPTIONS))
    columns = [column for column in _columns(plan, witness)
               if column[1].size]
    if not columns:
        return kind, witness
    name, entries, holders, keys, allowed = draw(st.sampled_from(columns))
    entries = entries.copy()
    ends = _receipt_ends(plan)
    row = draw(st.integers(0, entries.size - 1))
    if kind == "shift":
        entries += draw(st.sampled_from([-2, -1, 1, 2]))
    elif kind == "roll":
        entries = np.roll(entries, draw(st.integers(1, entries.size)))
    elif kind == "swap two rows":
        other = draw(st.integers(0, entries.size - 1))
        entries[[row, other]] = entries[[other, row]]
    elif kind == "point out of range":
        entries[row] = draw(st.sampled_from([-2, int(ends[-1]),
                                             int(ends[-1]) + 7]))
    elif kind == "point into a later step":
        if ends[allowed] < ends[-1]:
            entries[row] = draw(st.integers(int(ends[allowed]),
                                            int(ends[-1]) - 1))
    else:
        owners = plan.pattern.owned_keys()[0]
        unowned = np.flatnonzero(owners[keys] != holders)
        if unowned.size:
            entries[unowned[row % unowned.size]] = -1
    entries.flags.writeable = False
    if name == "edges":
        return kind, witness._replace(edges=entries)
    return kind, witness._replace(hops={**witness.hops, name: entries})


def small_plan(n_ranks, seed, variant):
    """A small cold plan with a witness."""
    pattern = random_pattern(n_ranks, avg_neighbors=2.0,
                             avg_items_per_message=3.0, items_per_rank=6,
                             duplicate_fraction=0.6, seed=seed)
    return make_plan(pattern, paper_mapping(n_ranks, ranks_per_node=2),
                     variant, use_cache=False)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_corrupted_witness_keeps_the_verdict_of_a_valid_plan(data):
    plan = small_plan(data.draw(st.sampled_from([3, 4, 6])),
                      data.draw(st.integers(0, 10_000)),
                      data.draw(st.sampled_from(ALL_VARIANTS)))
    copy = dataclasses.replace(plan)
    kind, copy.witness = data.draw(corrupted(plan, plan.witness))
    assert _outcome(lambda: compile_world_exchange(copy)) is None, kind
    assert compile_world_exchange(copy).result_rows.tobytes() \
        == compile_world_exchange(plan).result_rows.tobytes()


def latest_receipts(plan) -> Witness:
    """A witness of ``plan``'s own receipts that ignores the schedule: every
    entry names the last receipt row of its holder and key, whatever its
    step, or is ``-1`` where the holder owns the key or never receives it."""
    pattern = plan.pattern
    owners = pattern.owned_keys()[0]
    last = {}
    for phase, start in receipt_starts(plan.variant, plan.phases).items():
        table = plan.phases.get(phase)
        if table is not None:
            receivers = np.repeat(table.dests, table.payload_counts)
            last.update(((holder, key), start + row) for row, (holder, key)
                        in enumerate(zip(receivers.tolist(),
                                         table.payload_key_ids.tolist())))

    def entries(holders, keys):
        return np.array([last.get((holder, key), -1)
                         if key >= owners.size or owners[key] != holder
                         else -1
                         for holder, key in zip(holders.tolist(),
                                                keys.tolist())],
                        dtype=np.int32)

    return Witness(
        entries(pattern.unique_edge_table()[1], pattern.owned_keys()[2]),
        {phase: entries(np.repeat(plan.phases[phase].srcs,
                                  plan.phases[phase].payload_counts),
                        plan.phases[phase].payload_key_ids)
         for phase in FORWARDING if phase in plan.phases})


@settings(max_examples=200, deadline=None)
@given(case=tampered_plan(), data=st.data())
def test_a_reattached_witness_keeps_the_joins_verdict(case, data):
    """Each tampered plan (a ``dataclasses.replace`` copy) gets the witness
    of the plan it was cut from, corrupted or not, or one read off its own
    receipts with no regard for the step they land in."""
    kind, plan = case
    source = make_plan(plan.pattern, plan.mapping, plan.variant)
    witness = data.draw(st.sampled_from(["planned", "corrupted",
                                         "latest receipts"]))
    kind = f"{kind}, {witness} witness"
    if witness == "latest receipts":
        witness = latest_receipts(plan)
    elif witness == "corrupted":
        corruption, witness = data.draw(corrupted(source, source.witness))
        kind = f"{kind} ({corruption})"
    else:
        witness = source.witness
    plan.witness = witness
    assert _outcome(lambda: compile_world_exchange(plan)) \
        == _outcome(lambda: _replay_columns(plan)), kind


def test_a_receipt_later_than_the_hop_proves_nothing():
    """Rank 1 forwards rank 0's item 5 in phase g but receives it only in
    phase l, which lands later: a witness naming that receipt is declined,
    and the compile raises the join's error."""
    pattern = CommPattern(4, {0: {2: [5]}})
    messages = {Phase.LOCAL: [(0, 1, [(0, 5, 1)])],
                Phase.GLOBAL: [(1, 2, [(0, 5, 2)])]}
    plan = CollectivePlan(
        variant=Variant.PARTIAL, pattern=pattern,
        mapping=paper_mapping(4, ranks_per_node=2),
        phases={phase: phase_table(pattern, phase, messages.get(phase, []))
                for phase in AGGREGATED_PHASES})
    starts = receipt_starts(plan.variant, plan.phases)
    plan.witness = Witness(
        np.array([starts[Phase.GLOBAL]], dtype=np.int32),
        {Phase.GLOBAL: np.array([starts[Phase.LOCAL]], dtype=np.int32)})
    with pytest.raises(PlanError, match="phase-g message 1->2 packs origin "
                       "0, item 5 which the sending rank neither owns nor "
                       "received in an earlier phase"):
        compile_world_exchange(plan)


def test_a_witness_that_fails_sends_the_plan_to_the_join(count_calls):
    """One row of the irregular plan's phase-r witness points into phase r
    itself: the certificate declines, the join says "held", and the world
    is the certified one."""
    plan = working_set_plan("random-1024-full")
    certified = compile_world_exchange(plan)
    entries = plan.witness.hops[Phase.FINAL_REDIST].copy()
    entries[0] = receipt_starts(plan.variant,
                                plan.phases)[Phase.FINAL_REDIST]
    copy = dataclasses.replace(plan)
    copy.witness = plan.witness._replace(
        hops={**plan.witness.hops, Phase.FINAL_REDIST: entries})
    assert count_calls(compile_world_exchange, copy,
                       of=[exchange_module._replay_columns]) == 1
    joined = compile_world_exchange(copy)
    assert joined.result_rows.tobytes() == certified.result_rows.tobytes()


# -- what a witness costs ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKING_SET_PLANS))
def test_a_witness_is_4_bytes_per_forwarded_payload_row_and_edge_row(name):
    plan = working_set_plan(name)
    witness = plan.witness
    assert isinstance(witness, Witness)
    forwarded = sum(int(plan.phases[phase].payload_offsets[-1])
                    for phase in FORWARDING if phase in plan.phases)
    n_edges = plan.pattern.owned_keys()[2].size
    columns = [witness.edges, *witness.hops.values()]
    assert sum(column.nbytes for column in columns) \
        <= 4 * (forwarded + n_edges)
    assert all(column.dtype == np.int32 and not column.flags.writeable
               for column in columns)
    assert dataclasses.replace(plan).witness is None
