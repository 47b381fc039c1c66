"""Golden equivalence: world-level plan compilation vs the per-rank reference.

:func:`~repro.collectives.exchange.compile_world_exchange` emits the world
program with one vectorized pass over the plan's columnar payload;
``compile_world_exchange_reference`` (``reference_world_compile.py``) is the
pinned seed-equivalent path that compiles every rank separately with the
per-rank ``compile_exchange`` kept beside it and re-bases the results
rank-major.  The message columns and item ids must equal the reference's
outright, and every replay row of the compiled world be one row of the
reference's, across variants x patterns x mappings x element specs.  The
hops composed into ``result_rows`` are checked against both worlds run hop
by hop (``oracles.replay_hops``): the reference's result rows, the compiled
world's replay and the engine's one-gather round must return the same
bytes.  The world-level pass must reproduce the reference compiler's
:class:`PlanError` diagnostics for malformed plans, and fail exactly where
the reference fails, with the same text, on tampered plans.  ``TestRowMap``
pins the reference's own key interning.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import replay_hops, replay_round
from plan_tables import cut_messages, phase_table, tampered
from reference_world_compile import (
    _RowMap,
    compile_exchange,
    compile_world_exchange_reference,
)

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.collectives.plan import AGGREGATED_PHASES, CollectivePlan, Phase
from repro.pattern import CommPattern, halo_exchange_pattern, random_pattern
from repro.simmpi import ExchangeEngine
from repro.topology import paper_mapping
from repro.utils.errors import PlanError

ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)

#: What the row numbering does not touch, compared outright.
SHARED_FIELDS = ("variant", "spec", "n_ranks", "n_world_rows", "steps",
                 "owned_offsets", "result_offsets", "owned_items_all",
                 "result_items_all", "result_sources_all")
MESSAGE_FIELDS = ("tag", "wire_perm", "msg_sources", "msg_dests",
                  "msg_nbytes")


def _assert_same(lhs, rhs, name) -> None:
    if isinstance(lhs, np.ndarray):
        assert lhs.dtype == rhs.dtype, name
        np.testing.assert_array_equal(lhs, rhs, err_msg=name)
    else:
        assert lhs == rhs, name


#: The columns a world derives from its plan when first read.
REPLAY_COLUMNS = ("gather", "scatter", "wire_perm")


def assert_worlds_identical(lhs, rhs):
    """Two compiled worlds: every scalar and array they store equal, value-
    and dtype-wise, and so every replay column they derive."""
    assert set(lhs.programs) == set(rhs.programs)
    for name, value in vars(lhs).items():
        if name not in ("programs", "replay"):
            _assert_same(value, getattr(rhs, name), name)
    _assert_same(lhs.n_world_rows, rhs.n_world_rows, "n_world_rows")
    for phase, program in lhs.programs.items():
        other = rhs.programs[phase]
        for name, value in vars(program).items():
            if name != "replay":
                _assert_same(value, getattr(other, name), f"{phase}:{name}")
        for name in REPLAY_COLUMNS:
            _assert_same(getattr(program, name), getattr(other, name),
                         f"{phase}:{name}")


def assert_matches_reference(fast, ref):
    """``fast`` is the reference world ``ref`` with its hops composed: equal
    to it wherever rows do not show, one relabelling of its replay rows
    where they do, and every round — the reference's hops, ``fast``'s hops
    and the engine's one gather — returning the same bytes."""
    for name in SHARED_FIELDS:
        _assert_same(getattr(fast, name), getattr(ref, name), name)
    assert set(fast.programs) == set(ref.programs)
    # Owned rows lead, in input order; each receive position lands its
    # value's row; the relabelling so defined is one-to-one.
    relabel = np.full(ref.n_world_rows, -1)
    relabel[ref.owned_rows] = np.arange(ref.owned_rows.size)
    for phase, program in fast.programs.items():
        relabel[ref.programs[phase].scatter] = program.scatter
    assert np.array_equal(np.sort(relabel), np.arange(ref.n_world_rows))
    for phase, program in fast.programs.items():
        reference = ref.programs[phase]
        for name in MESSAGE_FIELDS:
            _assert_same(getattr(program, name), getattr(reference, name),
                         f"{phase}:{name}")
        for name in ("gather", "scatter"):
            assert getattr(program, name).dtype == np.int64, (phase, name)
            np.testing.assert_array_equal(
                relabel[getattr(reference, name)], getattr(program, name),
                err_msg=f"{phase}:{name}")
    # The composed gather: each output entry's owned row is the one its
    # value came from under the reference's hops.
    spec = fast.spec
    values = np.arange(1, 1 + fast.owned_items_all.size * spec.item_size,
                       dtype=spec.dtype).reshape(-1, spec.item_size)
    reference = replay_hops(ref, values, ref.owned_rows)[0][ref.result_rows]
    if spec.item_size == 1:
        reference, values = reference.reshape(-1), values.reshape(-1)
    assert fast.result_rows.dtype == np.int64
    assert replay_round(fast, values).tobytes() == reference.tobytes()
    with ExchangeEngine(fast.n_ranks, runtime="engine") as engine:
        handle = engine.register(fast)
        assert engine.run(handle, values).tobytes() == reference.tobytes()


def patterns():
    yield "halo-4x4", halo_exchange_pattern((4, 4))
    yield "halo-5x3-periodic", halo_exchange_pattern((5, 3), periodic=True)
    yield "random-24", random_pattern(24, seed=3)
    yield "random-dup", random_pattern(12, seed=7, duplicate_fraction=0.8)
    yield "sparse", CommPattern(6, {0: {3: [0, 1]}, 3: {0: [9], 5: [9, 11]}})
    yield "self-loops", CommPattern(4, {0: {0: [0], 1: [0, 2]},
                                        2: {2: [5], 3: [5]}})


@pytest.mark.parametrize("name,pattern", list(patterns()))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_world_compile_matches_reference(name, pattern, variant):
    mapping = paper_mapping(pattern.n_ranks,
                            ranks_per_node=min(4, pattern.n_ranks))
    plan = make_plan(pattern, mapping, variant)
    assert_matches_reference(compile_world_exchange(plan),
                             compile_world_exchange_reference(plan))


@pytest.mark.parametrize("variant", (Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL))
@pytest.mark.parametrize("dtype,item_size", [(np.float32, 1),
                                             (np.float64, 9),
                                             (np.complex128, 2)])
def test_world_compile_matches_reference_specs(variant, dtype, item_size):
    pattern = random_pattern(16, seed=11, dtype=dtype, item_size=item_size)
    mapping = paper_mapping(16, ranks_per_node=8)
    plan = make_plan(pattern, mapping, variant)
    spec = ExchangeSpec(dtype=dtype, item_size=item_size)
    assert_matches_reference(compile_world_exchange(plan, spec),
                             compile_world_exchange_reference(plan, spec))


def test_world_compile_socket_regions_match():
    from repro.topology import RankMapping
    from repro.topology.presets import lassen_like

    pattern = random_pattern(32, seed=5)
    mapping = RankMapping(lassen_like(nodes=2), 32, ranks_per_node=16,
                          region="socket")
    for variant in ALL_VARIANTS:
        plan = make_plan(pattern, mapping, variant)
        assert_matches_reference(compile_world_exchange(plan),
                                 compile_world_exchange_reference(plan))


def test_world_compile_leaves_compiled_lazy(count_calls):
    """The world-level pass must not materialise per-rank CompiledExchange."""
    pattern = halo_exchange_pattern((3, 3))
    mapping = paper_mapping(9, ranks_per_node=3)
    plan = make_plan(pattern, mapping, Variant.STANDARD)
    assert count_calls(compile_world_exchange, plan, of=[compile_exchange]) == 0
    assert count_calls(compile_world_exchange_reference, plan,
                       of=[compile_exchange]) == 9


def _unsendable_plan():
    """A direct-phase message packing a key its sender never held."""
    pattern = CommPattern(3, {0: {1: [0]}, 1: {2: [7]}})
    mapping = paper_mapping(3, ranks_per_node=3)
    plan = make_plan(pattern, mapping, Variant.STANDARD)
    return tampered(plan, Phase.DIRECT, extra=[(1, 2, [(0, 99, 2)])])


def test_world_compile_reports_unobtainable_send_like_reference():
    plan = _unsendable_plan()
    with pytest.raises(PlanError, match="neither owns nor received"):
        compile_world_exchange_reference(plan)
    with pytest.raises(PlanError, match="neither owns nor received"):
        compile_world_exchange(plan)


def test_world_compile_reports_undelivered_result_like_reference():
    """A plan that never delivers a required item fails in both compilers."""
    pattern = CommPattern(2, {0: {1: [0, 1]}})
    mapping = paper_mapping(2, ranks_per_node=2)
    plan = make_plan(pattern, mapping, Variant.STANDARD)
    # Drop the only direct message: item 0/1 can no longer reach rank 1.
    broken = CollectivePlan(
        variant=Variant.STANDARD, pattern=pattern, mapping=mapping,
        phases={Phase.DIRECT: phase_table(pattern, Phase.DIRECT, [])},
        self_deliveries=plan.self_deliveries)
    with pytest.raises(PlanError, match="no phase of"):
        compile_world_exchange_reference(broken)
    with pytest.raises(PlanError, match="no phase of"):
        compile_world_exchange(broken)


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


# -- the compile and the per-rank reference agree on tampered plans -----------


#: What :func:`tampered_plan` does to a planned schedule.
TAMPERS = ("drop a payload row", "move a row to an earlier phase",
           "add an out-of-range key", "empty every phase",
           "deliver a value its receiver owns")


def _with_messages(plan, phase, messages):
    """``plan`` with ``phase``'s messages replaced by ``messages``."""
    return dataclasses.replace(plan, phases={
        **plan.phases, phase: phase_table(plan.pattern, phase, messages)})


def _take_row(messages, index, row):
    """Remove payload row ``row`` of message ``index`` (the message too if
    nothing is left); returns the ``(origin, item)`` removed."""
    message = messages[index]
    row %= len(message.payload)
    pair = tuple(message.payload[row].tolist())
    payload = np.delete(message.payload, row, axis=0)
    if payload.size:
        messages[index] = message._replace(payload=payload)
    else:
        del messages[index]
    return pair


@st.composite
def tampered_plan(draw):
    """A small plan, tampered one of the :data:`TAMPERS` ways."""
    n_ranks = draw(st.sampled_from([3, 4, 6]))
    if draw(st.booleans()):
        pattern = random_pattern(
            n_ranks, avg_neighbors=draw(st.sampled_from([1.0, 2.0])),
            avg_items_per_message=3.0, items_per_rank=6,
            duplicate_fraction=draw(st.sampled_from([0.0, 0.6])),
            seed=draw(st.integers(min_value=0, max_value=10_000)))
    else:       # every value stays home: nothing for a stream to hold
        pattern = CommPattern(n_ranks, {0: {0: [1, 2]}, 2: {2: [4]}})
    variant = draw(st.sampled_from(ALL_VARIANTS))
    plan = make_plan(pattern, paper_mapping(n_ranks, ranks_per_node=2),
                     variant, use_cache=False)
    direct = Phase.DIRECT in plan.phases
    busy = [phase for phase, table in plan.phases.items() if table.srcs.size]
    holders, items, _ = pattern.owned_keys()
    needs = {"drop a payload row": busy, "add an out-of-range key": busy,
             "move a row to an earlier phase": busy and not direct,
             "empty every phase": True,
             "deliver a value its receiver owns": holders.size}
    kind = draw(st.sampled_from([kind for kind in TAMPERS if needs[kind]]))
    index, row = (draw(st.integers(min_value=0, max_value=99))
                  for _ in range(2))
    if kind == "empty every phase":
        return kind, dataclasses.replace(plan, phases={
            phase: phase_table(pattern, phase, []) for phase in plan.phases})
    if kind == "drop a payload row":
        phase = busy[index % len(busy)]
        messages = cut_messages(plan.phases[phase])
        _take_row(messages, row % len(messages), index)
        return kind, _with_messages(plan, phase, messages)
    if kind == "move a row to an earlier phase":
        late = busy[index % len(busy)]
        early = Phase.LOCAL if late is Phase.LOCAL else \
            AGGREGATED_PHASES[row % AGGREGATED_PHASES.index(late)]
        messages = cut_messages(plan.phases[late])
        message = messages[row % len(messages)]
        pair = _take_row(messages, row % len(messages), index)
        return kind, tampered(
            _with_messages(plan, late, messages), early,
            extra=[(message.src, message.dest, [pair + (message.dest,)])])
    if kind == "add an out-of-range key":
        origin = int(index % n_ranks)
        return kind, tampered(plan, busy[row % len(busy)], extra=[
            (origin, (origin + 1) % n_ranks,
             [(origin, 10_000 + row, (origin + 1) % n_ranks)])])
    # A value its owner sends out comes back to it in a later step; in a
    # one-step schedule the owner sends it to itself.
    key = index % holders.size
    owner, item = int(holders[key]), int(items[key])
    if direct:
        return kind, tampered(plan, Phase.DIRECT, extra=[
            (owner, owner, [(owner, item, owner)])])
    other = (owner + 1 + row % (n_ranks - 1)) % n_ranks
    plan = tampered(plan, Phase.LOCAL, extra=[
        (owner, other, [(owner, item, other)])])
    return kind, tampered(plan, Phase.FINAL_REDIST, extra=[
        (other, owner, [(owner, item, owner)])])


def _outcome(build):
    """``None`` if ``build()`` returns, else its :class:`PlanError` text."""
    try:
        build()
    except PlanError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(tampered_plan())
def test_compile_and_reference_agree_on_tampered_plans(case):
    """The compile fails exactly where the per-rank reference compiler
    does, with the reference's diagnostic, and passes where it passes."""
    kind, plan = case
    assert _outcome(lambda: compile_world_exchange(plan)) \
        == _outcome(lambda: compile_world_exchange_reference(plan)), kind


class TestRowMap:
    """``_RowMap``: the ``(origin, item) -> row`` interning the per-rank
    oracle numbers each rank's keys with."""

    @staticmethod
    def _row_map():
        """Owned keys ``(0, 5), (0, 7), (1, 5)`` on rows 0, 1, 2."""
        return _RowMap(np.array([0, 0, 1]), np.array([5, 7, 5]))

    def test_owned_keys_occupy_the_first_rows(self):
        rows = self._row_map()
        assert rows.n_rows == 3
        assert rows.resolve(np.array([1, 0, 0]), np.array([5, 7, 5]),
                            allow_new=False).tolist() == [2, 1, 0]

    def test_same_item_of_different_origins_is_distinct(self):
        rows = self._row_map()
        assert rows.resolve(np.array([0, 1]), np.array([5, 5]),
                            allow_new=False).tolist() == [0, 2]

    def test_unknown_keys_are_marked_without_allow_new(self):
        rows = self._row_map()
        assert rows.resolve(np.array([2, 0]), np.array([5, 9]),
                            allow_new=False).tolist() == [-1, -1]
        assert rows.n_rows == 3

    def test_new_keys_get_rows_in_first_appearance_order(self):
        rows = self._row_map()
        got = rows.resolve(np.array([2, 0, 2, 1]), np.array([5, 9, 5, 5]),
                           allow_new=True)
        # (2, 5) appears first, then (0, 9); the repeat shares its row.
        assert got.tolist() == [3, 4, 3, 2]
        assert rows.n_rows == 5

    def test_registered_keys_resolve_in_later_batches(self):
        rows = self._row_map()
        rows.resolve(np.array([2]), np.array([5]), allow_new=True)
        rows.resolve(np.array([0]), np.array([9]), allow_new=True)
        assert rows.resolve(np.array([0, 2, 0]), np.array([9, 5, 7]),
                            allow_new=False).tolist() == [4, 3, 1]

    def test_empty_query_returns_no_rows(self):
        rows = self._row_map()
        empty = np.empty(0, dtype=np.int64)
        got = rows.resolve(empty, empty, allow_new=True)
        assert got.size == 0 and rows.n_rows == 3

    def test_empty_map_interns_from_row_zero(self):
        empty = np.empty(0, dtype=np.int64)
        rows = _RowMap(empty, empty)
        assert rows.n_rows == 0
        assert rows.resolve(np.array([3, 3]), np.array([1, 1]),
                            allow_new=True).tolist() == [0, 0]
        assert rows.n_rows == 1
