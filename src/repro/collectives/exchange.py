"""Compiled, array-native execution form of a collective plan.

A :class:`CollectivePlan` describes *what* moves (slot tables and payload
keys); this module compiles one rank's share of a plan into *how* it moves on
dense numpy buffers: every value a rank ever holds during one exchange — its
owned items plus everything it receives in any phase — is assigned a row of a
dense *work array*, and every message gets a precomputed gather (pack) or
scatter (unpack) index into that array.  Per-iteration packing is then a
single fancy-index per phase (``arena = work[gather]``) and unpacking its
mirror (``work[scatter] = arena``), with no per-item Python loops anywhere on
the Start/Wait path.

Compilation itself is columnar too.  The per-rank compiler resolves all keys
of a schedule step with one lexsort-based batch lookup; the world compiler
never looks at an ``(origin, item)`` pair at all — it reads the plan's phase
tables, whose payload rows carry the pattern's interned key ids, and sorts
and joins on one packed ``holder * width + key`` int64.

The compilation is dtype-generic: an :class:`ExchangeSpec` carries the element
dtype and the number of components per item (``item_size`` — e.g. the
distribution set of a lattice-Boltzmann site, or the DOFs of a multi-component
unknown), and the work array has shape ``(n_rows, item_size)``.

Beyond the per-rank form, :func:`compile_world_exchange` emits every rank's
compiled exchange as one *world program*, numbered in the layout the
:class:`~repro.simmpi.engine.ExchangeEngine` executes: one work array for
all ranks, rows ``[owned | blocks a later step reads | terminal blocks]``,
and per receive step one ``(src, a, b)`` — fill rows ``[a, b)`` from the
earlier rows ``src``.  A round is then O(phases) numpy calls for the whole
communicator — no per-message envelopes, no per-rank Python loop, and no
renumbering at registration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.collectives.plan import (
    AGGREGATED_PHASES,
    CollectivePlan,
    Phase,
    PhaseTable,
    PlannedMessage,
    Variant,
)
from repro.utils.arrays import (
    INDEX_DTYPE,
    argsort_packed,
    concatenate_or_empty,
    counts_to_displs,
    gather_ranges,
    run_starts_mask,
)
from repro.utils.errors import PlanError, ValidationError

#: Compile-time availability schedules, mirroring the *runtime* order of the
#: executor exactly: a ``("send", phase)`` step may only gather keys that are
#: owned or were registered by an earlier ``("recv", phase)`` step.  In the
#: aggregated protocol (Algorithms 5-6) the setup redistribution completes
#: inside ``start`` before the global phase packs, but the local and global
#: receives only land in ``wait`` — so the final redistribution is the only
#: phase allowed to forward what they delivered.
_DIRECT_SCHEDULE: Tuple[Tuple[str, Phase], ...] = (
    ("send", Phase.DIRECT), ("recv", Phase.DIRECT),
)
_AGGREGATED_SCHEDULE: Tuple[Tuple[str, Phase], ...] = (
    ("send", Phase.LOCAL),
    ("send", Phase.SETUP_REDIST),
    ("recv", Phase.SETUP_REDIST),
    ("send", Phase.GLOBAL),
    ("recv", Phase.LOCAL),
    ("recv", Phase.GLOBAL),
    ("send", Phase.FINAL_REDIST),
    ("recv", Phase.FINAL_REDIST),
)

#: Tag offsets per phase so concurrent phases never match each other's traffic.
#: Shared by the per-rank executor (request tags) and the world engine (bulk
#: traffic accounting), so both report identical per-tag profiler data.
PHASE_TAGS: Dict[Phase, int] = {
    Phase.DIRECT: 10,
    Phase.LOCAL: 11,
    Phase.SETUP_REDIST: 12,
    Phase.GLOBAL: 13,
    Phase.FINAL_REDIST: 14,
}


@dataclass(frozen=True)
class ExchangeSpec:
    """Element type of an exchange: dtype plus components per item."""

    dtype: np.dtype = np.dtype(np.float64)
    item_size: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        object.__setattr__(self, "item_size", int(self.item_size))
        if self.item_size < 1:
            raise ValidationError(f"item_size must be >= 1, got {self.item_size}")

    @property
    def item_bytes(self) -> int:
        """Bytes of one item (all components)."""
        return self.item_size * self.dtype.itemsize


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
    send_messages: List[PlannedMessage]
    recv_messages: List[PlannedMessage]
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


class _RowMap:
    """Vectorized ``(origin, item) -> work-array row`` mapping.

    Rows are assigned in registration order: the owned keys occupy rows
    ``[0, n_owned)`` and every batch of newly received keys appends rows in
    first-appearance order — exactly the order the per-key dict of the
    slot-list compiler produced.
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


def compile_exchange(plan: CollectivePlan, rank: int,
                     spec: ExchangeSpec | None = None) -> CompiledExchange:
    """Compile ``rank``'s share of ``plan`` into gather/scatter index arrays.

    The compilation walks the phases in execution order, resolving every send
    against the keys the rank holds so far (owned items first, then whatever
    earlier phases delivered); a send of an unobtainable key is a
    :class:`PlanError` at compile time rather than a runtime failure.
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
    #: (messages, work-array rows, per-message offsets) per side and phase.
    steps: Dict[Tuple[str, Phase], Tuple[List[PlannedMessage], np.ndarray,
                                         np.ndarray]] = {}
    for side, phase in schedule:
        messages = plan.messages_from(rank, phase) if side == "send" \
            else plan.messages_to(rank, phase)
        stacked = PhaseTable.from_messages(phase, messages)
        origins, items = stacked.payload_origins, stacked.payload_items
        offsets = stacked.payload_offsets
        indices = rows.resolve(origins, items, allow_new=side == "recv")
        unknown = indices < 0
        if unknown.any():
            position = int(np.argmax(unknown))
            message = messages[int(np.searchsorted(offsets, position,
                                                   side="right")) - 1]
            raise PlanError(
                f"phase-{phase.value} message {message.src}->"
                f"{message.dest} packs origin {int(origins[position])}, item "
                f"{int(items[position])} which the "
                "sending rank neither owns nor received in an earlier phase"
            )
        steps[side, phase] = (messages, indices, offsets)
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


# -- world-level compilation -----------------------------------------------------


@dataclass
class WorldPhaseProgram:
    """All ranks' sends and receives of one phase.

    What executes is the receive step ``(src, a, b)``: rows ``[a, b)`` of
    the world work array are the phase's *first* deliveries (a key its
    holder did not have yet), row ``a + i`` copied from row ``src[i]``.  A
    repeat delivery writes bytes its row already holds, so it leaves the
    data path — but not ``msg_sources`` / ``msg_dests`` / ``msg_nbytes``,
    every message of the phase in wire order, which the engine hands to the
    profiler as one bulk record per round.

    ``gather`` / ``wire_perm`` / ``scatter`` keep the phase as written, in
    the same row numbering — ``wire = work[gather]``, then
    ``work[scatter] = wire[wire_perm]`` — for the kernel replay and the
    reference executor of the tests; no engine code reads them.
    """

    phase: Phase
    tag: int
    gather: np.ndarray
    scatter: np.ndarray
    wire_perm: np.ndarray
    msg_sources: np.ndarray
    msg_dests: np.ndarray
    msg_nbytes: np.ndarray
    src: np.ndarray
    a: int
    b: int


@dataclass
class WorldExchange:
    """Every rank's compiled exchange, as one world program.

    The world work array has ``n_world_rows`` rows: every rank's owned items
    (rows ``[0, n_owned)``, in ``owned_items_all`` order), then each receive
    step's block of first deliveries, in schedule order — those that a later
    step reads first, the *terminal* ones (the last hop) after them.  So an
    unbound handle keeps the prefix ``[0, n_unbound_rows)`` and reads each
    terminal delivery straight from its source, and a vector-bound one keeps
    every row.  ``result_rows`` is the row of every output entry;
    ``owned_offsets`` / ``result_offsets`` delimit each rank's slice of the
    input and the output.  ``steps`` is the runtime schedule: ``("send", p)``
    packs phase ``p``'s wire, ``("recv", p)`` delivers it — the same order the
    per-rank executor interleaves its ``pack``/``start``/``wait`` calls.

    The per-rank item metadata is stored columnar: ``owned_items_all`` /
    ``result_items_all`` / ``result_sources_all`` concatenate every rank's
    owned-input and result-output id columns, delimited by ``owned_offsets``
    and ``result_offsets`` — the accessors below slice them.  A world holds
    arrays only, no plan-object reference, so it is cheap to pickle for the
    on-disk plan cache.
    """

    variant: Variant
    spec: ExchangeSpec
    n_ranks: int
    n_world_rows: int
    n_unbound_rows: int
    owned_offsets: np.ndarray
    result_rows: np.ndarray
    result_offsets: np.ndarray
    steps: Tuple[Tuple[str, Phase], ...]
    programs: Dict[Phase, WorldPhaseProgram]
    owned_items_all: np.ndarray
    result_items_all: np.ndarray
    result_sources_all: np.ndarray

    @property
    def n_messages(self) -> int:
        """Messages of one iteration across all ranks and phases."""
        return sum(int(p.msg_sources.size) for p in self.programs.values())

    def owned_item_ids(self, rank: int) -> np.ndarray:
        """Item ids of ``rank``'s dense input, in input order (ascending)."""
        return self.owned_items_all[
            self.owned_offsets[rank]:self.owned_offsets[rank + 1]]

    def recv_item_ids(self, rank: int) -> np.ndarray:
        """Item ids of ``rank``'s dense output, in output order (ascending)."""
        return self.result_items_all[
            self.result_offsets[rank]:self.result_offsets[rank + 1]]

    def recv_item_sources(self, rank: int) -> np.ndarray:
        """Owning rank of every entry of ``recv_item_ids(rank)``."""
        return self.result_sources_all[
            self.result_offsets[rank]:self.result_offsets[rank + 1]]


def compile_world_exchange(plan: CollectivePlan,
                           spec: ExchangeSpec | None = None) -> WorldExchange:
    """Compile all ranks' shares of ``plan`` in one world-level pass.

    Emits what the per-rank :func:`compile_exchange` programs deliver,
    without a per-rank :class:`CompiledExchange` or a
    :class:`PlannedMessage`: the pass reads the plan's phase tables and
    replays *every* rank's registration chronology at once.

    Every value a rank can hold is one int64, ``holder * width + key``; ``key``
    is the pattern's interned ``(origin, item)`` id
    (:meth:`CommPattern.owned_keys`) and ``width`` leaves one spare id for keys
    nobody owns, which only hand-built plans can pack.  The *registration
    stream* holds all ranks' owned keys in (holder, item) order, then the
    payload of each ``("recv", phase)`` schedule step in (receiver, message,
    position) order.  A stable argsort keeps the first occurrence of every
    value — the moment the per-rank ``_RowMap`` would have registered it.
    Sends and the result view resolve against the sorted survivors with one
    ``searchsorted``; a send may only use values first seen in an earlier
    schedule step, which reproduces the per-rank compiler's availability
    errors.  A value's row is its first occurrence's rank in the stream,
    with the blocks of steps whose first deliveries no later first delivery
    reads (one ``bincount`` of their sources' steps) moved to the end.
    """
    pattern = plan.pattern
    n_ranks = pattern.n_ranks
    if spec is None:
        spec = ExchangeSpec(dtype=pattern.dtype, item_size=pattern.item_size)
    if plan.variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        order, schedule = (Phase.DIRECT,), _DIRECT_SCHEDULE
    else:
        order, schedule = AGGREGATED_PHASES, _AGGREGATED_SCHEDULE

    owned_holders, owned_items_all, edge_keys = pattern.owned_keys()
    n_owned = int(owned_holders.size)
    width = n_owned + 1
    owned_offsets = counts_to_displs(
        np.bincount(owned_holders, minlength=n_ranks).astype(INDEX_DTYPE))

    # -- per phase: message orders, holder-packed payload values, and the
    # -- wire permutation (receive position -> wire position) ---------------
    phase_cols, send_values, recv_values, wire_perms = {}, {}, {}, {}
    for phase in order:
        table = plan.phases.get(phase) or PhaseTable.from_messages(phase, [])
        keys = table.payload_key_ids
        if keys is None:
            # Hand-built messages: intern their payload against the owned keys.
            keys = _RowMap(owned_holders, owned_items_all).resolve(
                table.payload_origins, table.payload_items, allow_new=False)
            keys[keys < 0] = n_owned
        counts = table.payload_counts
        # Stable, so each rank keeps its per-message order and sender-side
        # position ``k`` of a ``(src, dest)`` stream still pairs with
        # receiver-side position ``k`` — the FIFO matching of the fabric.
        send_order = np.argsort(table.srcs, kind="stable")
        recv_order = np.argsort(table.dests, kind="stable")
        starts = table.payload_offsets[:-1]
        phase_cols[phase] = (table, counts, send_order)
        send_values[phase] = gather_ranges(
            np.repeat(table.srcs, counts) * width + keys,
            starts[send_order], counts[send_order])
        recv_values[phase] = gather_ranges(
            np.repeat(table.dests, counts) * width + keys,
            starts[recv_order], counts[recv_order])
        wire_starts = np.empty(counts.size, dtype=INDEX_DTYPE)
        wire_starts[send_order] = counts_to_displs(counts[send_order])[:-1]
        wire_perms[phase] = gather_ranges(
            np.arange(recv_values[phase].size, dtype=INDEX_DTYPE),
            wire_starts[recv_order], counts[recv_order])

    # -- registration stream: owned keys, then each recv step's payloads; a
    # -- send step queries what the recv steps before it registered ---------
    segments: List[np.ndarray] = [
        owned_holders * width + np.arange(n_owned, dtype=INDEX_DTYPE)]
    recv_segment: Dict[Phase, int] = {}
    send_steps: List[Tuple[Phase, int]] = []
    query_parts: List[np.ndarray] = []
    for side, phase in schedule:
        if side == "recv":
            recv_segment[phase] = len(segments)
            segments.append(recv_values[phase])
        else:
            send_steps.append((phase, len(segments) - 1))
            query_parts.append(send_values[phase])
    seg_bounds = counts_to_displs([segment.size for segment in segments])
    stream = np.concatenate(segments)

    # -- held values: first occurrence per (holder, key) ---------------------
    key_sort = np.argsort(stream, kind="stable")
    stream_sorted = stream[key_sort]
    starts_mask = run_starts_mask(stream_sorted)
    group_of = np.empty(stream.size, dtype=INDEX_DTYPE)
    group_of[key_sort] = np.cumsum(starts_mask) - 1
    # The sort is stable, so the first row of each run is the smallest
    # stream position — the registration moment of that value.
    first_pos = key_sort[starts_mask]
    held = stream_sorted[starts_mask]
    held_step = (np.searchsorted(seg_bounds, first_pos, side="right")
                 - 1).astype(np.int8)
    n_held = int(held.size)

    # -- result view: per receiver, last-declaring source wins per item -----
    # The unique edge table is sorted by origin first, so a stable sort by
    # (receiver, item) leaves the highest declaring source last in each run.
    edge_origins, edge_dests, edge_items = pattern.unique_edge_table()
    low = int(edge_items.min(initial=0))
    by_receiver = argsort_packed(
        (edge_dests, edge_items - low),
        (n_ranks, int(edge_items.max(initial=0)) - low + 1))
    d_sorted, i_sorted = edge_dests[by_receiver], edge_items[by_receiver]
    run_start = run_starts_mask(d_sorted, i_sorted)
    run_end = np.empty_like(run_start)
    run_end[:-1], run_end[-1:] = run_start[1:], True
    run_last = by_receiver[run_end]
    result_holders = np.ascontiguousarray(d_sorted[run_start])
    result_items_all = np.ascontiguousarray(i_sorted[run_start])
    result_sources_all = np.ascontiguousarray(edge_origins[run_last])
    result_offsets = counts_to_displs(
        np.bincount(result_holders, minlength=n_ranks).astype(INDEX_DTYPE))

    # -- batched resolution: all send steps plus the result view ------------
    query_parts.append(result_holders * width + edge_keys[run_last])
    q_bounds = counts_to_displs([part.size for part in query_parts])
    queries = np.concatenate(query_parts)
    # (No value is held only when nothing is owned or packed: no queries.)
    hit = np.minimum(np.searchsorted(held, queries), n_held - 1)
    found = held[hit] == queries

    # -- availability errors, reproducing the per-rank compiler's checks ----
    for index, (phase, allowed) in enumerate(send_steps):
        lo, hi = int(q_bounds[index]), int(q_bounds[index + 1])
        bad = ~found[lo:hi] | (held_step[hit[lo:hi]] > allowed)
        if bad.any():
            position = int(np.argmax(bad))
            table, counts, send_order = phase_cols[phase]
            send_displs = counts_to_displs(counts[send_order])
            slot = int(np.searchsorted(send_displs, position,
                                       side="right")) - 1
            message = int(send_order[slot])
            packed = int(table.payload_offsets[message]) \
                + position - int(send_displs[slot])
            raise PlanError(
                f"phase-{phase.value} message {int(table.srcs[message])}->"
                f"{int(table.dests[message])} packs origin "
                f"{int(table.payload_origins[packed])}, item "
                f"{int(table.payload_items[packed])} which the "
                "sending rank neither owns nor received in an earlier phase"
            )
    undelivered = ~found[int(q_bounds[-2]):]
    if undelivered.any():
        position = int(np.argmax(undelivered))
        raise PlanError(
            f"rank {int(result_holders[position])} expects item "
            f"{int(result_items_all[position])} from rank "
            f"{int(result_sources_all[position])} but no phase of "
            "the plan delivers it"
        )

    # -- per receive step: the value each first delivery (a receive position
    # -- holding its value's first occurrence) copies -----------------------
    is_first = np.zeros(stream.size, dtype=bool)
    is_first[first_pos] = True
    sources = {}
    for index, (phase, _) in enumerate(send_steps):
        lo, wire_perm = int(seg_bounds[recv_segment[phase]]), wire_perms[phase]
        fresh = np.flatnonzero(is_first[lo:lo + wire_perm.size])
        sources[phase] = hit[q_bounds[index] + wire_perm[fresh]]

    # -- rows: [owned | blocks some first delivery reads | terminal blocks],
    # -- blocks in schedule order, rows in first-occurrence order -----------
    n_segments = len(segments)
    fresh_counts = np.bincount(held_step, minlength=n_segments)
    read = np.bincount(held_step[concatenate_or_empty(list(sources.values()))],
                       minlength=n_segments) > 0
    read[0] = True                  # the owned rows lead
    layout = np.concatenate([np.flatnonzero(read), np.flatnonzero(~read)])
    block_start = np.empty(n_segments, dtype=INDEX_DTYPE)
    block_start[layout] = counts_to_displs(fresh_counts[layout])[:-1]
    held_row = (np.cumsum(is_first) - 1)[first_pos] + (
        block_start - counts_to_displs(fresh_counts)[:-1])[held_step]
    q_rows = held_row[hit]
    stream_row = held_row[group_of]

    programs: Dict[Phase, WorldPhaseProgram] = {}
    for index, (phase, _) in enumerate(send_steps):
        table, counts, send_order = phase_cols[phase]
        segment = recv_segment[phase]
        a = int(block_start[segment])
        programs[phase] = WorldPhaseProgram(
            phase=phase,
            tag=PHASE_TAGS[phase],
            gather=np.ascontiguousarray(
                q_rows[q_bounds[index]:q_bounds[index + 1]]),
            scatter=np.ascontiguousarray(
                stream_row[seg_bounds[segment]:seg_bounds[segment + 1]]),
            wire_perm=wire_perms[phase],
            msg_sources=table.srcs[send_order],
            msg_dests=table.dests[send_order],
            msg_nbytes=counts[send_order] * spec.item_bytes,
            src=held_row[sources[phase]],
            a=a,
            b=a + int(fresh_counts[segment]),
        )

    return WorldExchange(
        variant=plan.variant,
        spec=spec,
        n_ranks=n_ranks,
        n_world_rows=n_held,
        n_unbound_rows=int(fresh_counts[read].sum()),
        owned_offsets=owned_offsets,
        result_rows=np.ascontiguousarray(q_rows[int(q_bounds[-2]):]),
        result_offsets=result_offsets,
        steps=schedule,
        programs=programs,
        owned_items_all=owned_items_all,
        result_items_all=result_items_all,
        result_sources_all=result_sources_all,
    )
