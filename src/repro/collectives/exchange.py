"""Compiled, array-native execution form of a collective plan.

A :class:`CollectivePlan` describes *what* moves (phase tables of slot and
payload columns); :func:`compile_world_exchange` compiles every rank's share
of a plan into *how* it moves on dense numpy buffers, as one *world
program*: every value any rank ever holds during one exchange — its owned
items plus everything it receives in any phase — is one row of a single world
work array, numbered in the layout the
:class:`~repro.simmpi.engine.ExchangeEngine` executes: rows
``[owned | blocks a later step reads | terminal blocks]``, and per receive
step one ``(src, a, b)`` — fill rows ``[a, b)`` from the earlier rows
``src``.  A round is then O(phases) numpy calls for the whole communicator —
no per-message or per-rank Python loop, and no renumbering at registration.

Compilation itself is columnar too: the compiler never looks at an
``(origin, item)`` pair — it reads the plan's phase tables, whose payload
rows carry the pattern's interned key ids, and sorts and joins on one packed
``holder * width + key`` int64.

The compilation is dtype-generic: an :class:`ExchangeSpec` carries the element
dtype and the number of components per item (``item_size`` — e.g. the
distribution set of a lattice-Boltzmann site, or the DOFs of a multi-component
unknown), and the work array has shape ``(n_rows, item_size)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.collectives.plan import (
    AGGREGATED_PHASES,
    CollectivePlan,
    Phase,
    PhaseTable,
    Variant,
)
from repro.utils.arrays import (
    INDEX_DTYPE,
    argsort_packed,
    concatenate_or_empty,
    counts_to_displs,
    gather_ranges,
    range_index,
    run_starts_mask,
)
from repro.utils.errors import PlanError, ValidationError
from repro.utils.validation import check_positive_int

#: Compile-time availability schedules, the order a round runs its steps in:
#: a ``("send", phase)`` step may only gather keys that are
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

#: Tag of each phase's messages in the engine's bulk traffic accounting.
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
        # A float, bool or string is rejected, never truncated.
        object.__setattr__(self, "item_size",
                           check_positive_int("item_size", self.item_size))

    @property
    def item_bytes(self) -> int:
        """Bytes of one item (all components)."""
        return self.item_size * self.dtype.itemsize


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
    packs phase ``p``'s wire, ``("recv", p)`` delivers it — in the order of
    the persistent protocol's Start/Wait (Algorithms 5-6).

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
        return self.owned_items_all[self._rank_slice(self.owned_offsets, rank)]

    def recv_item_ids(self, rank: int) -> np.ndarray:
        """Item ids of ``rank``'s dense output, in output order (ascending)."""
        return self.result_items_all[self._rank_slice(self.result_offsets, rank)]

    def recv_item_sources(self, rank: int) -> np.ndarray:
        """Owning rank of every entry of ``recv_item_ids(rank)``."""
        return self.result_sources_all[
            self._rank_slice(self.result_offsets, rank)]

    def _rank_slice(self, offsets: np.ndarray, rank: int) -> slice:
        """``rank``'s rows of an offsets-delimited column; a rank outside
        ``[0, n_ranks)`` raises instead of reading as empty or wrapping."""
        if not 0 <= rank < self.n_ranks:
            raise ValidationError(
                f"rank must be in [0, {self.n_ranks}), got {rank}")
        return slice(offsets[rank], offsets[rank + 1])


def compile_world_exchange(plan: CollectivePlan,
                           spec: ExchangeSpec | None = None) -> WorldExchange:
    """Compile all ranks' shares of ``plan`` in one world-level pass.

    No per-rank program and no per-message object is built: the pass reads
    the plan's phase tables and replays *every* rank's registration
    chronology at once.

    Every value a rank can hold is one int64, ``holder * width + key``; ``key``
    is the payload row's interned ``(origin, item)`` id
    (:meth:`CommPattern.owned_keys`, the table's ``payload_key_ids``) and
    ``width`` leaves one spare id, ``n_owned``, for keys nobody owns, which
    only phase tables built by hand can pack.  The *registration
    stream* holds all ranks' owned keys in (holder, item) order, then the
    payload of each ``("recv", phase)`` schedule step in (receiver, message,
    position) order.  A stable argsort keeps the first occurrence of every
    value — the moment its holder first has it.
    Sends and the result view resolve against the sorted survivors with one
    ``searchsorted`` each; a send may only use values first seen in an
    earlier schedule step, so a plan that forwards a value before it arrives
    is a :class:`PlanError` at compile time.  A value's row is its first
    occurrence's rank in the stream, with the blocks of steps whose first
    deliveries no later first delivery reads (one ``bincount`` of their
    sources' steps) moved to the end.

    Every intermediate is released after its last reader — the stream
    once sorted, the held values once every lookup ran, the lookups and the
    stream's value groups once the rows are out — so the pass peaks near
    twice the world it returns, which keeps only the per-phase wire
    permutations, the gather / scatter / source rows and the result view.
    """
    pattern = plan.pattern
    n_ranks = pattern.n_ranks
    if spec is None:
        spec = ExchangeSpec(dtype=pattern.dtype, item_size=pattern.item_size)
    if plan.variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        order, schedule = (Phase.DIRECT,), _DIRECT_SCHEDULE
    else:
        order, schedule = AGGREGATED_PHASES, _AGGREGATED_SCHEDULE

    owned_holders, owned_items_all, _ = pattern.owned_keys()
    width = int(owned_holders.size) + 1
    owned_offsets = counts_to_displs(
        np.bincount(owned_holders, minlength=n_ranks).astype(INDEX_DTYPE))

    # -- per phase: message orders and the wire permutation (receive
    # -- position -> wire position) -----------------------------------------
    tables, send_orders, recv_orders, wire_perms = {}, {}, {}, {}
    for phase in order:
        table = tables[phase] = plan.phases.get(phase) or PhaseTable.empty(phase)
        counts = table.payload_counts
        # Stable, so each rank keeps its per-message order and sender-side
        # position ``k`` of a ``(src, dest)`` stream still pairs with
        # receiver-side position ``k`` — the FIFO matching of the fabric.
        send_order = send_orders[phase] = np.argsort(table.srcs, kind="stable")
        recv_order = recv_orders[phase] = np.argsort(table.dests, kind="stable")
        wire_starts = np.empty(counts.size, dtype=INDEX_DTYPE)
        wire_starts[send_order] = counts_to_displs(counts[send_order])[:-1]
        wire_perms[phase] = range_index(wire_starts[recv_order],
                                        counts[recv_order])

    # -- the stream's segments: owned keys, then each recv step's payloads; a
    # -- send step may read what the segments up to ``allowed`` registered --
    recv_segment: Dict[Phase, int] = {}
    send_steps: List[Tuple[Phase, int]] = []
    for side, phase in schedule:
        if side == "recv":
            recv_segment[phase] = len(recv_segment) + 1
        else:
            send_steps.append((phase, len(recv_segment)))

    result_holders, result_items_all, result_sources_all, result_keys = \
        _result_view(pattern)
    result_offsets = counts_to_displs(
        np.bincount(result_holders, minlength=n_ranks).astype(INDEX_DTYPE))

    seg_bounds, group_of, first_pos, held = _held_values(
        owned_holders, width,
        [(tables[phase], recv_orders[phase]) for phase in recv_segment])
    held_step = (np.searchsorted(seg_bounds, first_pos, side="right")
                 - 1).astype(np.int8)
    is_first = np.zeros(group_of.size, dtype=bool)
    is_first[first_pos] = True

    # -- lookups: every send step, then the result view; per receive step,
    # -- the value each first delivery (a receive position holding its
    # -- value's first occurrence) copies ------------------------------------
    hits, sources = {}, {}
    for phase, allowed in send_steps:
        table, send_order = tables[phase], send_orders[phase]
        hit, found = _lookup(held, _packed_values(table, send_order,
                                                  table.srcs, width))
        # A send of a value its holder does not have yet.
        bad = ~found | (held_step[hit] > allowed)
        if bad.any():
            position = int(np.argmax(bad))
            counts = table.payload_counts
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
        lo, wire_perm = int(seg_bounds[recv_segment[phase]]), wire_perms[phase]
        fresh = np.flatnonzero(is_first[lo:lo + wire_perm.size])
        hits[phase], sources[phase] = hit, hit[wire_perm[fresh]]
    result_hit, found = _lookup(held, result_holders * width + result_keys)
    if not found.all():
        position = int(np.argmin(found))
        raise PlanError(
            f"rank {int(result_holders[position])} expects item "
            f"{int(result_items_all[position])} from rank "
            f"{int(result_sources_all[position])} but no phase of "
            "the plan delivers it"
        )
    del held

    # -- rows: [owned | blocks some first delivery reads | terminal blocks],
    # -- blocks in schedule order, rows in first-occurrence order -----------
    n_segments = seg_bounds.size - 1
    fresh_counts = np.bincount(held_step, minlength=n_segments)
    read = np.bincount(held_step[concatenate_or_empty(list(sources.values()))],
                       minlength=n_segments) > 0
    read[0] = True                  # the owned rows lead
    layout = np.concatenate([np.flatnonzero(read), np.flatnonzero(~read)])
    block_start = np.empty(n_segments, dtype=INDEX_DTYPE)
    block_start[layout] = counts_to_displs(fresh_counts[layout])[:-1]
    held_row = (np.cumsum(is_first) - 1)[first_pos] + (
        block_start - counts_to_displs(fresh_counts)[:-1])[held_step]
    del is_first, first_pos, held_step

    programs: Dict[Phase, WorldPhaseProgram] = {}
    for phase, _ in send_steps:
        table, send_order = tables[phase], send_orders[phase]
        segment = recv_segment[phase]
        a = int(block_start[segment])
        programs[phase] = WorldPhaseProgram(
            phase=phase,
            tag=PHASE_TAGS[phase],
            gather=held_row[hits.pop(phase)],
            scatter=held_row[
                group_of[seg_bounds[segment]:seg_bounds[segment + 1]]],
            wire_perm=wire_perms[phase],
            msg_sources=table.srcs[send_order],
            msg_dests=table.dests[send_order],
            msg_nbytes=table.payload_counts[send_order] * spec.item_bytes,
            src=held_row[sources[phase]],
            a=a,
            b=a + int(fresh_counts[segment]),
        )

    return WorldExchange(
        variant=plan.variant,
        spec=spec,
        n_ranks=n_ranks,
        n_world_rows=int(held_row.size),
        n_unbound_rows=int(fresh_counts[read].sum()),
        owned_offsets=owned_offsets,
        result_rows=held_row[result_hit],
        result_offsets=result_offsets,
        steps=schedule,
        programs=programs,
        owned_items_all=owned_items_all,
        result_items_all=result_items_all,
        result_sources_all=result_sources_all,
    )


def _packed_values(table: PhaseTable, message_order: np.ndarray,
                   holders: np.ndarray, width: int) -> np.ndarray:
    """Every payload row of ``table`` as ``holder * width + key``, messages
    in ``message_order``; ``holders`` (``srcs`` or ``dests``) names each
    message's holder."""
    counts = table.payload_counts
    return gather_ranges(np.repeat(holders, counts) * width
                         + table.payload_key_ids,
                         table.payload_offsets[:-1][message_order],
                         counts[message_order])


def _held_values(owned_holders: np.ndarray, width: int,
                 recv_steps: List[Tuple[PhaseTable, np.ndarray]]):
    """The registration stream's first occurrences.

    The stream is every owned value, then each receive step's payload in
    (receiver, message, position) order (``recv_steps`` gives each step's
    table and receive order).  Returns ``seg_bounds`` (the segments'
    stream offsets), ``group_of`` (each stream position's index into the
    held values), ``first_pos`` (each held value's first stream position)
    and ``held`` (the distinct values, ascending); the stream itself and
    its sort die here.
    """
    n_owned = int(owned_holders.size)
    seg_bounds = counts_to_displs(
        [n_owned] + [int(table.payload_counts.sum()) for table, _ in recv_steps])
    stream = np.empty(int(seg_bounds[-1]), dtype=INDEX_DTYPE)
    stream[:n_owned] = owned_holders * width + np.arange(n_owned,
                                                         dtype=INDEX_DTYPE)
    for segment, (table, recv_order) in enumerate(recv_steps, 1):
        stream[seg_bounds[segment]:seg_bounds[segment + 1]] = _packed_values(
            table, recv_order, table.dests, width)
    key_sort = np.argsort(stream, kind="stable")
    stream = stream[key_sort]
    starts_mask = run_starts_mask(stream)
    held = stream[starts_mask]
    del stream
    # The sort is stable, so the first row of each run is the smallest
    # stream position — the registration moment of that value.
    first_pos = key_sort[starts_mask]
    group_of = np.empty(key_sort.size, dtype=INDEX_DTYPE)
    group_of[key_sort] = np.cumsum(starts_mask) - 1
    return seg_bounds, group_of, first_pos, held


def _lookup(held: np.ndarray, values: np.ndarray):
    """Position of every value in the sorted ``held`` and whether it is
    there (nothing is held only when there are no values either)."""
    hit = np.searchsorted(held, values)
    np.minimum(hit, held.size - 1, out=hit)
    return hit, held[hit] == values


def _result_view(pattern):
    """Per receiver, the last-declaring source of every item it expects.

    Returns the ``(holder, item, source, key)`` columns of the result, in
    (receiver, item) order.  The unique edge table is sorted by origin
    first, so a stable sort by (receiver, item) leaves the highest declaring
    source last in each run.
    """
    edge_origins, edge_dests, edge_items = pattern.unique_edge_table()
    edge_keys = pattern.owned_keys()[2]
    low = int(edge_items.min(initial=0))
    by_receiver = argsort_packed(
        (edge_dests, edge_items - low),
        (pattern.n_ranks, int(edge_items.max(initial=0)) - low + 1))
    d_sorted, i_sorted = edge_dests[by_receiver], edge_items[by_receiver]
    run_start = run_starts_mask(d_sorted, i_sorted)
    run_end = np.empty_like(run_start)
    run_end[:-1], run_end[-1:] = run_start[1:], True
    run_last = by_receiver[run_end]
    return (d_sorted[run_start], i_sorted[run_start],
            edge_origins[run_last], edge_keys[run_last])
