"""The seed's per-rank world compiler, kept as a golden baseline.

:func:`repro.collectives.exchange.compile_world_exchange` emits every rank's
compiled exchange as one world program in a single vectorized pass, in the
row layout the engine executes.  This module preserves the implementation it
replaced — compile every rank with the per-rank :func:`compile_exchange`
(one rank's :class:`CompiledExchange`: a work array of its owned and received
keys, with a gather and a scatter index per phase), re-base the results into
one rank-major row space, and pair senders with receivers message by
message — as a :class:`ReferenceWorld`.  The equivalence suites
(``test_world_compile_equivalence.py``, ``test_phase_table.py``) pin the
world pass's message columns and item ids equal to it, its replay columns
one relabelling of it, and its composed result rows to what the
reference's hops deliver.

It is a test oracle, not library code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from plan_tables import Message, plan_messages

from repro.collectives.exchange import (
    PHASE_TAGS,
    _AGGREGATED_SCHEDULE,
    _DIRECT_SCHEDULE,
    ExchangeSpec,
)
from repro.collectives.plan import (
    AGGREGATED_PHASES,
    CollectivePlan,
    Phase,
    Variant,
)
from repro.utils.arrays import (
    INDEX_DTYPE,
    concatenate_or_empty,
    counts_to_displs,
    run_starts_mask,
)
from repro.utils.errors import PlanError


class _RowMap:
    """Vectorized ``(origin, item) -> work-array row`` mapping.

    Rows are assigned in registration order: the owned keys occupy rows
    ``[0, n_owned)`` and every batch of newly received keys appends rows in
    first-appearance order.  :func:`compile_exchange` numbers one rank's
    owned and received keys with it.
    """

    def __init__(self, origins: np.ndarray, items: np.ndarray):
        self._origin_chunks = [np.asarray(origins, dtype=INDEX_DTYPE)]
        self._item_chunks = [np.asarray(items, dtype=INDEX_DTYPE)]
        self.n_rows = int(self._origin_chunks[0].size)

    def _known(self) -> Tuple[np.ndarray, np.ndarray]:
        if len(self._origin_chunks) > 1:
            self._origin_chunks = [np.concatenate(self._origin_chunks)]
            self._item_chunks = [np.concatenate(self._item_chunks)]
        return self._origin_chunks[0], self._item_chunks[0]

    def resolve(self, query_origins: np.ndarray, query_items: np.ndarray, *,
                allow_new: bool) -> np.ndarray:
        """Rows of the queried keys; unknown keys are registered or marked -1.

        One lexsort over (known keys + queries) recovers the key groups; known
        keys seed each group with their row, queries inherit it.  With
        ``allow_new`` the unmatched groups get fresh rows in first-appearance
        order of the query batch.
        """
        if query_origins.size == 0:
            return np.empty(0, dtype=INDEX_DTYPE)
        known_origins, known_items = self._known()
        n_known = known_origins.size
        all_origins = np.concatenate([known_origins, query_origins])
        all_items = np.concatenate([known_items, query_items])
        order = np.lexsort((all_items, all_origins))
        new_group = run_starts_mask(all_origins[order], all_items[order])
        group_sorted = np.cumsum(new_group) - 1
        group_of = np.empty(order.size, dtype=INDEX_DTYPE)
        group_of[order] = group_sorted
        row_of_group = np.full(int(group_sorted[-1]) + 1, -1, dtype=INDEX_DTYPE)
        row_of_group[group_of[:n_known]] = np.arange(n_known, dtype=INDEX_DTYPE)

        query_groups = group_of[n_known:]
        rows = row_of_group[query_groups]
        unknown = rows < 0
        if not unknown.any() or not allow_new:
            return rows
        missing_groups = query_groups[unknown]
        unique_groups, first_position = np.unique(missing_groups,
                                                  return_index=True)
        appearance = np.argsort(first_position, kind="stable")
        row_of_group[unique_groups[appearance]] = self.n_rows + np.arange(
            unique_groups.size, dtype=INDEX_DTYPE)
        rows[unknown] = row_of_group[missing_groups]
        # Register the new keys in row order so later lookups resolve them.
        unknown_positions = np.flatnonzero(unknown)
        firsts = unknown_positions[first_position[appearance]]
        self._origin_chunks.append(np.asarray(query_origins[firsts],
                                              dtype=INDEX_DTYPE))
        self._item_chunks.append(np.asarray(query_items[firsts],
                                            dtype=INDEX_DTYPE))
        self.n_rows += int(unique_groups.size)
        return rows


@dataclass
class CompiledPhase:
    """One rank's compiled sends and receives for one phase.

    ``gather`` concatenates the work-array rows of every send message's payload
    in message order; message ``i`` packs rows
    ``gather[send_offsets[i]:send_offsets[i + 1]]`` and its wire buffer is the
    matching slice of the phase's contiguous send arena.  ``scatter`` is the
    mirror image for receives.
    """

    phase: Phase
    send_messages: List[Message]
    recv_messages: List[Message]
    gather: np.ndarray
    scatter: np.ndarray
    send_offsets: np.ndarray
    recv_offsets: np.ndarray


@dataclass
class CompiledExchange:
    """One rank's complete compiled exchange.

    ``owned_items`` fixes the caller-side input order: element ``i`` of the
    dense input array is the value of item ``owned_items[i]`` (rows
    ``[0, owned_items.size)`` of the work array).  ``result_rows`` gathers the
    output: item ``result_items[i]`` (sent by ``result_sources[i]``) is row
    ``result_rows[i]``.
    """

    rank: int
    variant: Variant
    spec: ExchangeSpec
    n_rows: int
    owned_items: np.ndarray
    result_items: np.ndarray
    result_sources: np.ndarray
    result_rows: np.ndarray
    phases: List[CompiledPhase] = field(default_factory=list)

    @property
    def n_owned(self) -> int:
        """Items the caller supplies per iteration."""
        return int(self.owned_items.size)

    @property
    def n_result(self) -> int:
        """Items handed back to the caller per iteration."""
        return int(self.result_items.size)


def compile_exchange(plan: CollectivePlan, rank: int,
                     spec: ExchangeSpec | None = None,
                     messages: Dict[Phase, List[Message]] | None = None
                     ) -> CompiledExchange:
    """Compile ``rank``'s share of ``plan`` into gather/scatter index arrays.

    The compilation walks the phases in execution order, resolving every send
    against the keys the rank holds so far (owned items first, then whatever
    earlier phases delivered); a send of an unobtainable key is a
    :class:`PlanError` at compile time rather than a runtime failure.
    ``messages`` is the plan cut into records (``plan_messages``); the world
    reference passes one cut to every rank, so a sender's and a receiver's
    list share the record of each message.
    """
    spec = spec or ExchangeSpec()
    pattern = plan.pattern

    # Rows [0, n_owned) are the rank's owned items in ascending-id order; that
    # order is the array API's input convention.
    send_map = pattern.send_map(rank)
    if send_map:
        owned_ids = np.unique(np.concatenate(list(send_map.values())))
    else:
        owned_ids = np.empty(0, dtype=INDEX_DTYPE)
    rows = _RowMap(np.full(owned_ids.size, rank, dtype=INDEX_DTYPE), owned_ids)

    if plan.variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        order, schedule = (Phase.DIRECT,), _DIRECT_SCHEDULE
    else:
        order, schedule = AGGREGATED_PHASES, _AGGREGATED_SCHEDULE
    if messages is None:
        messages = plan_messages(plan)
    #: (messages, work-array rows, per-message offsets) per side and phase.
    steps: Dict[Tuple[str, Phase], Tuple[List[Message], np.ndarray,
                                         np.ndarray]] = {}
    for side, phase in schedule:
        mine = [message for message in messages.get(phase, ())
                if (message.src if side == "send" else message.dest) == rank]
        pairs = np.concatenate(
            [message.payload for message in mine]
            + [np.empty((0, 2), dtype=INDEX_DTYPE)])
        origins, items = pairs[:, 0], pairs[:, 1]
        offsets = counts_to_displs([len(message.payload) for message in mine])
        indices = rows.resolve(origins, items, allow_new=side == "recv")
        unknown = indices < 0
        if unknown.any():
            position = int(np.argmax(unknown))
            message = mine[int(np.searchsorted(offsets, position,
                                               side="right")) - 1]
            raise PlanError(
                f"phase-{phase.value} message {message.src}->"
                f"{message.dest} packs origin {int(origins[position])}, item "
                f"{int(items[position])} which the "
                "sending rank neither owns nor received in an earlier phase"
            )
        steps[side, phase] = (mine, indices, offsets)
    phases: List[CompiledPhase] = []
    for phase in order:
        send_messages, gather, send_offsets = steps["send", phase]
        recv_messages, scatter, recv_offsets = steps["recv", phase]
        phases.append(CompiledPhase(
            phase=phase,
            send_messages=send_messages,
            recv_messages=recv_messages,
            gather=np.ascontiguousarray(gather, dtype=INDEX_DTYPE),
            scatter=np.ascontiguousarray(scatter, dtype=INDEX_DTYPE),
            send_offsets=np.ascontiguousarray(send_offsets, dtype=INDEX_DTYPE),
            recv_offsets=np.ascontiguousarray(recv_offsets, dtype=INDEX_DTYPE),
        ))

    # Output view: every item the pattern says this rank receives (including
    # self-sends) must have a row by now — either owned, or delivered by some
    # phase, or a self-delivery of the aggregation (the receive leader is the
    # final destination, so the key arrived with the global phase).
    recv_map = pattern.recv_map(rank)
    if recv_map:
        sources = np.concatenate([
            np.full(items.size, src, dtype=INDEX_DTYPE)
            for src, items in recv_map.items()
        ])
        received = np.concatenate(list(recv_map.values()))
        # When several sources declare the same item the last declaration
        # wins, matching the dict-accumulation order of the seed compiler.
        result_items, reversed_first = np.unique(received[::-1],
                                                 return_index=True)
        last_occurrence = received.size - 1 - reversed_first
        result_sources = sources[last_occurrence]
    else:
        result_items = np.empty(0, dtype=INDEX_DTYPE)
        result_sources = np.empty(0, dtype=INDEX_DTYPE)
    result_rows = rows.resolve(result_sources, result_items, allow_new=False)
    undelivered = result_rows < 0
    if undelivered.any():
        position = int(np.argmax(undelivered))
        raise PlanError(
            f"rank {rank} expects item {int(result_items[position])} from rank "
            f"{int(result_sources[position])} but no phase of "
            "the plan delivers it"
        )

    return CompiledExchange(
        rank=rank,
        variant=plan.variant,
        spec=spec,
        n_rows=rows.n_rows,
        owned_items=np.ascontiguousarray(owned_ids, dtype=INDEX_DTYPE),
        result_items=np.ascontiguousarray(result_items, dtype=INDEX_DTYPE),
        result_sources=np.ascontiguousarray(result_sources, dtype=INDEX_DTYPE),
        result_rows=np.ascontiguousarray(result_rows, dtype=INDEX_DTYPE),
        phases=phases,
    )


@dataclass
class ReferencePhase:
    """One phase as the seed compiled it: ``wire = work[gather]``, then
    ``work[scatter] = wire[wire_perm]``, plus the message columns."""

    phase: Phase
    tag: int
    gather: np.ndarray
    scatter: np.ndarray
    wire_perm: np.ndarray
    msg_sources: np.ndarray
    msg_dests: np.ndarray
    msg_nbytes: np.ndarray


@dataclass
class ReferenceWorld:
    """The seed's world program: rank ``r``'s rows (what
    :func:`compile_exchange` numbers for it alone) are the world block
    ``[rank_bases[r], rank_bases[r + 1])``; ``owned_rows`` / ``result_rows``
    load the inputs and select the outputs."""

    variant: Variant
    spec: ExchangeSpec
    n_ranks: int
    n_world_rows: int
    rank_bases: np.ndarray
    owned_rows: np.ndarray
    owned_offsets: np.ndarray
    result_rows: np.ndarray
    result_offsets: np.ndarray
    steps: Tuple[Tuple[str, Phase], ...]
    programs: Dict[Phase, ReferencePhase]
    owned_items_all: np.ndarray
    result_items_all: np.ndarray
    result_sources_all: np.ndarray


def compile_world_exchange_reference(plan: CollectivePlan,
                                     spec: ExchangeSpec | None = None
                                     ) -> ReferenceWorld:
    """Compile all ranks' shares of ``plan`` into one batched world program.

    Pinned per-rank reference per the repo's golden-equivalence convention:
    every rank is compiled with :func:`compile_exchange` (so the world program
    is the per-rank programs, verbatim, re-based into one row space), then each
    phase's messages are matched sender-to-receiver: the ``k``-th send from
    ``src`` to ``dest`` in ``src``'s message order pairs with the ``k``-th
    receive from ``src`` in ``dest``'s order — the same FIFO matching the
    mailbox fabric performs — and the pairing becomes the phase's static
    ``wire_perm``.  ``spec`` defaults to the pattern's dtype/item_size.

    This walks a Python loop over ranks (and scans the phase message lists
    once per rank), which is O(ranks × messages); the production
    :func:`compile_world_exchange` emits the same program, its rows
    renumbered and its hops composed, with one world-level pass and is what
    every caller should use.
    """
    if spec is None:
        spec = ExchangeSpec(dtype=plan.pattern.dtype,
                            item_size=plan.pattern.item_size)
    n_ranks = plan.pattern.n_ranks
    messages = plan_messages(plan)
    compiled = [compile_exchange(plan, rank, spec, messages)
                for rank in range(n_ranks)]

    rank_bases = counts_to_displs(np.fromiter((c.n_rows for c in compiled),
                                              dtype=INDEX_DTYPE, count=n_ranks))
    owned_rows = np.concatenate([
        rank_bases[rank] + np.arange(c.n_owned, dtype=INDEX_DTYPE)
        for rank, c in enumerate(compiled)
    ]) if n_ranks else np.empty(0, dtype=INDEX_DTYPE)
    owned_offsets = counts_to_displs(np.fromiter(
        (c.n_owned for c in compiled), dtype=INDEX_DTYPE, count=n_ranks))
    result_rows = np.concatenate([
        rank_bases[rank] + c.result_rows for rank, c in enumerate(compiled)
    ]) if n_ranks else np.empty(0, dtype=INDEX_DTYPE)
    result_offsets = counts_to_displs(np.fromiter(
        (c.n_result for c in compiled), dtype=INDEX_DTYPE, count=n_ranks))

    if plan.variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        order, schedule = (Phase.DIRECT,), _DIRECT_SCHEDULE
    else:
        order, schedule = AGGREGATED_PHASES, _AGGREGATED_SCHEDULE

    programs: Dict[Phase, ReferencePhase] = {}
    for index, phase in enumerate(order):
        gather_parts: List[np.ndarray] = []
        scatter_parts: List[np.ndarray] = []
        sources: List[int] = []
        dests: List[int] = []
        counts: List[int] = []
        # Wire layout: rank by rank, message by message, in send order.  The
        # dict maps each message (by identity — every record appears in
        # exactly one sender's and one receiver's list) to its wire slice.
        wire_slices: Dict[int, Tuple[int, int]] = {}
        offset = 0
        for rank, world in enumerate(compiled):
            cp = world.phases[index]
            gather_parts.append(rank_bases[rank] + cp.gather)
            send_offsets = cp.send_offsets
            for i, message in enumerate(cp.send_messages):
                start = offset + int(send_offsets[i])
                stop = offset + int(send_offsets[i + 1])
                wire_slices[id(message)] = (start, stop)
                sources.append(message.src)
                dests.append(message.dest)
                counts.append(stop - start)
            offset += int(cp.gather.size)
        perm_parts: List[np.ndarray] = []
        for rank, world in enumerate(compiled):
            cp = world.phases[index]
            scatter_parts.append(rank_bases[rank] + cp.scatter)
            recv_offsets = cp.recv_offsets
            for i, message in enumerate(cp.recv_messages):
                start, stop = wire_slices[id(message)]
                expected = int(recv_offsets[i + 1] - recv_offsets[i])
                if stop - start != expected:
                    raise PlanError(
                        f"phase-{phase.value} message {message.src}->"
                        f"{message.dest} packs {stop - start} items but the "
                        f"receiver unpacks {expected}"
                    )
                perm_parts.append(np.arange(start, stop, dtype=INDEX_DTYPE))
        gather = concatenate_or_empty(gather_parts)
        scatter = concatenate_or_empty(scatter_parts)
        wire_perm = concatenate_or_empty(perm_parts)
        if wire_perm.size != scatter.size:
            raise PlanError(
                f"phase-{phase.value} wire permutation covers {wire_perm.size} "
                f"items but the world scatter expects {scatter.size}"
            )
        programs[phase] = ReferencePhase(
            phase=phase,
            tag=PHASE_TAGS[phase],
            gather=gather,
            scatter=scatter,
            wire_perm=wire_perm,
            msg_sources=np.asarray(sources, dtype=INDEX_DTYPE),
            msg_dests=np.asarray(dests, dtype=INDEX_DTYPE),
            msg_nbytes=np.asarray(counts, dtype=INDEX_DTYPE) * spec.item_bytes,
        )

    return ReferenceWorld(
        variant=plan.variant,
        spec=spec,
        n_ranks=n_ranks,
        n_world_rows=int(rank_bases[-1]),
        rank_bases=rank_bases,
        owned_rows=owned_rows,
        owned_offsets=owned_offsets,
        result_rows=result_rows,
        result_offsets=result_offsets,
        steps=schedule,
        programs=programs,
        owned_items_all=concatenate_or_empty(
            [c.owned_items for c in compiled]),
        result_items_all=concatenate_or_empty(
            [c.result_items for c in compiled]),
        result_sources_all=concatenate_or_empty(
            [c.result_sources for c in compiled]),
    )
