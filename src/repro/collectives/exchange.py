"""Compiled, array-native execution form of a collective plan.

A :class:`CollectivePlan` describes *what* moves (phase tables of slot and
payload columns); :func:`compile_world_exchange` compiles every rank's share
of a plan into *how* it moves on dense numpy buffers, as one *world
program* for the :class:`~repro.simmpi.engine.ExchangeEngine`.

Every value an exchange delivers is a copy of some owned row, so the
compiler composes a plan's hops — up to three for the locality-aware
variants — into their end points: ``result_rows`` names the owned row of
every output entry, and a round is one gather from the owned rows, whatever
the variant.  In one address space the intermediate hops would only add
copies no network sees; the traffic they stand for is accounted in bulk from
each phase's message columns, which the compiler emits in wire order.  It
still checks every hop: a plan that forwards a value before its holder has
it, or never delivers a required one, is a :class:`PlanError` here.

Compilation itself is columnar too: the compiler never looks at an
``(origin, item)`` pair — it reads the plan's phase tables, whose payload
rows carry the pattern's interned key ids.  A planner-built plan carries the
planner's :class:`~repro.collectives.plan.Witness`, which names the receipt
that gives every holder its value; the compiler certifies it with one
gather-and-compare pass per hop, with no sort and no search.  Any other
plan — one with no witness, or whose witness fails anywhere — goes to the
hop-by-hop join (:func:`_replay_columns`), the only check that can say "not
held": it returns for a plan whose hops hold and raises the first failing
hop's :class:`PlanError` for any other.  The hops as written — the *replay
columns* ``gather`` / ``scatter`` / ``wire_perm`` on ``n_world_rows`` rows,
which only the kernel replay and the tests' reference executor read — are
not kept by the compile: a world derives them from its plan by the same
join when one is first read.

The compilation is dtype-generic: an :class:`ExchangeSpec` carries the element
dtype and the number of components per item (``item_size`` — e.g. the
distribution set of a lattice-Boltzmann site, or the DOFs of a multi-component
unknown), and the engine's work array has shape ``(n_rows, item_size)``.
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
    Variant,
)
from repro.utils.arrays import (
    INDEX_DTYPE,
    counts_to_displs,
    gather_ranges,
    lexsort_packed,
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


class _Replay:
    """A world's replay columns, derived from its compiling plan by
    :func:`_replay_columns` on first read and kept from then on.

    The world and each of its phase programs share one.
    """

    __slots__ = ("plan", "columns")

    def __init__(self, plan: CollectivePlan | None = None):
        self.plan, self.columns = plan, None

    def __call__(self):
        """``(n_world_rows, {phase: (gather, scatter, wire_perm)})``."""
        if self.columns is None:
            if self.plan is None:
                raise ValidationError(
                    "this world exchange holds no plan to derive its replay "
                    "columns from")
            self.columns = _replay_columns(self.plan)
        return self.columns


@dataclass
class WorldPhaseProgram:
    """All ranks' sends and receives of one phase.

    What the engine reads is ``msg_sources`` / ``msg_dests`` /
    ``msg_nbytes``: every message of the phase in wire order, handed to the
    profiler as one bulk record per round.

    ``gather`` / ``wire_perm`` / ``scatter`` are the phase as written, on
    the world's ``n_world_rows`` replay rows (owned rows first, then every
    delivered value in first-occurrence order) — ``wire = work[gather]``,
    then ``work[scatter] = wire[wire_perm]`` — for the kernel replay and the
    reference executor of the tests.  No engine code reads them, so the
    program does not store them: the first read derives every phase's from
    the compiling plan (``replay``, shared with the world) and keeps them.
    """

    phase: Phase
    tag: int
    msg_sources: np.ndarray
    msg_dests: np.ndarray
    msg_nbytes: np.ndarray
    replay: _Replay = field(default_factory=_Replay, repr=False,
                            compare=False)

    @property
    def gather(self) -> np.ndarray:
        """Replay row of every wire position, in wire order."""
        return self.replay()[1][self.phase][0]

    @property
    def scatter(self) -> np.ndarray:
        """Replay row every receive position lands on."""
        return self.replay()[1][self.phase][1]

    @property
    def wire_perm(self) -> np.ndarray:
        """Wire position of every receive position."""
        return self.replay()[1][self.phase][2]


@dataclass
class WorldExchange:
    """Every rank's compiled exchange, as one world program.

    Rows ``[0, n_owned)`` are every rank's owned items, in
    ``owned_items_all`` order.  ``result_rows`` is the owned row of every
    output entry — the value its source owns of the item — and
    ``owned_offsets`` / ``result_offsets`` delimit each rank's slice of the
    input and the output.  ``steps`` is the schedule the hops run in:
    ``("send", p)`` packs phase ``p``'s wire, ``("recv", p)`` delivers it —
    in the order of the persistent protocol's Start/Wait (Algorithms 5-6);
    the engine accounts the send phases' messages in that order.
    ``n_world_rows`` counts the replay rows of the programs' ``gather`` /
    ``scatter`` columns; like them it is derived from the compiling plan
    when first read (``replay``).

    The per-rank item metadata is stored columnar: ``owned_items_all`` /
    ``result_items_all`` / ``result_sources_all`` concatenate every rank's
    owned-input and result-output id columns, delimited by ``owned_offsets``
    and ``result_offsets`` — the accessors below slice them.
    """

    variant: Variant
    spec: ExchangeSpec
    n_ranks: int
    owned_offsets: np.ndarray
    result_rows: np.ndarray
    result_offsets: np.ndarray
    steps: Tuple[Tuple[str, Phase], ...]
    programs: Dict[Phase, WorldPhaseProgram]
    owned_items_all: np.ndarray
    result_items_all: np.ndarray
    result_sources_all: np.ndarray
    replay: _Replay = field(default_factory=_Replay, repr=False,
                            compare=False)

    @property
    def n_world_rows(self) -> int:
        """Replay rows of the programs' ``gather`` / ``scatter`` columns."""
        return self.replay()[0]

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
        ``[0, n_ranks)`` raises instead of reading as empty or wrapping, and
        a float, bool or string instead of being truncated or indexed."""
        if not isinstance(rank, (int, np.integer)) or isinstance(rank, bool):
            raise ValidationError(
                f"rank must be an int, got {type(rank).__name__}")
        if not 0 <= rank < self.n_ranks:
            raise ValidationError(
                f"rank must be in [0, {self.n_ranks}), got {rank}")
        return slice(offsets[rank], offsets[rank + 1])


def compile_world_exchange(plan: CollectivePlan,
                           spec: ExchangeSpec | None = None) -> WorldExchange:
    """Compile all ranks' shares of ``plan`` in one world-level pass.

    No per-rank program and no per-message object is built: the pass reads
    the plan's phase tables and checks *every* rank's hops at once.  A value
    a rank holds is its ``key`` — the payload row's interned ``(origin,
    item)`` id (:meth:`CommPattern.owned_keys`, the table's
    ``payload_key_ids``), which is also the value's owned row.  A holder
    has the keys it owns from the start and every other one from a
    *receipt*: a payload row of a receive step.  A send may only pack what
    its sender owns or received in an earlier schedule step, and every
    result entry's receiver must hold its value by the end of the round.

    A planner-built plan proves both with its witness (:func:`_certified`):
    every forwarded payload row and every result entry names its receipt
    row, or ``-1`` for an owned key, and one gather-and-compare pass per
    hop checks the named rows — in range, in a step the hop may use, and
    packing the entry's own holder and key.  That makes no sort and no
    ``searchsorted``.  A plan without a witness, or whose witness fails
    anywhere, goes to the hop-by-hop join (:func:`_replay_columns`), which
    returns where every hop holds and otherwise raises the first failing
    hop's :class:`PlanError`, whatever the witness says.  The join's
    columns are dropped: the world derives them again on first read.

    The world keeps what the engine runs — each phase's message columns in
    wire order, the result view (a result entry's row is its key) and the
    offsets — and the plan, from which the replay columns are derived on
    first read.  Every intermediate is dropped after its last reader, so
    on a planner-built plan the pass peaks under three times the world it
    returns.

    The element type is the pattern's; a ``spec`` naming another one
    raises :class:`ValidationError`, since the plan counts the pattern's
    bytes.

    >>> from repro.collectives import make_plan
    >>> from repro.pattern import halo_exchange_pattern
    >>> from repro.simmpi import ExchangeEngine
    >>> from repro.topology import paper_mapping
    >>> plan = make_plan(halo_exchange_pattern((4, 2)),
    ...                  paper_mapping(8, ranks_per_node=4), Variant.PARTIAL)
    >>> world = compile_world_exchange(plan)
    >>> [name for name in ("gather", "scatter", "wire_perm")
    ...  if name in vars(world.programs[Phase.GLOBAL])]
    []

    The engine's round is one gather from the owned rows.  Replayed hop by
    hop on the replay rows, the three phases deliver every output entry's
    value to its receiver:

    >>> values = 1.0 + np.arange(world.owned_items_all.size)
    >>> with ExchangeEngine(8) as engine:
    ...     out = engine.run(engine.register(world), values)
    >>> work = np.zeros(world.n_world_rows)
    >>> work[:values.size] = values
    >>> holder = np.zeros(world.n_world_rows, dtype=int)
    >>> holder[:values.size] = np.repeat(np.arange(8),
    ...                                  np.diff(world.owned_offsets))
    >>> wires = {}
    >>> for kind, phase in world.steps:
    ...     hop = world.programs[phase]
    ...     if kind == "send":
    ...         wires[phase] = work[hop.gather]
    ...     else:
    ...         work[hop.scatter] = wires[phase][hop.wire_perm]
    ...         holder[hop.scatter] = np.repeat(
    ...             hop.msg_dests, hop.msg_nbytes // 8)[hop.wire_perm]
    >>> receivers = np.repeat(np.arange(8), np.diff(world.result_offsets))
    >>> set(zip(receivers, out)) <= set(zip(holder, work))
    True
    """
    pattern = plan.pattern
    n_ranks = pattern.n_ranks
    own = ExchangeSpec(dtype=pattern.dtype, item_size=pattern.item_size)
    if spec is None:
        spec = own
    elif spec != own:
        raise ValidationError(
            f"the pattern sets the element type ({own.item_size}x"
            f"{own.dtype.name}); an exchange spec of {spec.item_size}x"
            f"{spec.dtype.name} would move other bytes than the plan counts")
    tables, schedule = _phase_tables(plan.variant, plan.phases)
    recv_step, send_steps = _step_numbers(schedule)

    owned_holders, owned_items_all, _ = pattern.owned_keys()
    owned_offsets = counts_to_displs(
        np.bincount(owned_holders, minlength=n_ranks).astype(INDEX_DTYPE))

    # -- the result view: each output entry is its value's owned row, which
    # -- its receiver must hold by the end of the round ------------------------
    (result_holders, result_items_all, result_sources_all, result_rows,
     result_edges) = _result_view(pattern)
    result_offsets = counts_to_displs(
        np.bincount(result_holders, minlength=n_ranks).astype(INDEX_DTYPE))
    del result_holders
    result_proof = _result_proof(plan.witness, pattern, result_edges)
    del result_edges

    # -- every send step packs only what its holder already has, and every
    # -- receiver holds its results: proved by the witness, else joined -------
    held = result_proof is not None and _certified(
        plan.witness.hops, result_proof, tables, recv_step, send_steps,
        owned_holders, result_offsets, result_rows)
    del result_proof
    if not held:
        _replay_columns(plan)       # raises the first failing hop's error

    replay = _Replay(plan)
    programs: Dict[Phase, WorldPhaseProgram] = {}
    for phase, _ in send_steps:
        table = tables[phase]
        send_order = lexsort_packed(table.srcs)
        programs[phase] = WorldPhaseProgram(
            phase=phase,
            tag=PHASE_TAGS[phase],
            msg_sources=table.srcs[send_order],
            msg_dests=table.dests[send_order],
            msg_nbytes=table.payload_counts[send_order] * spec.item_bytes,
            replay=replay,
        )

    return WorldExchange(
        variant=plan.variant,
        spec=spec,
        n_ranks=n_ranks,
        owned_offsets=owned_offsets,
        result_rows=result_rows,
        result_offsets=result_offsets,
        steps=schedule,
        programs=programs,
        owned_items_all=owned_items_all,
        result_items_all=result_items_all,
        result_sources_all=result_sources_all,
        replay=replay,
    )


def _phase_tables(variant: Variant, phases: Dict[Phase, PhaseTable]):
    """``(tables, schedule)``: the table in ``phases`` of every phase of
    ``variant``, in phase order and empty where there is none, and the
    schedule its steps run in."""
    if variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        order, schedule = (Phase.DIRECT,), _DIRECT_SCHEDULE
    else:
        order, schedule = AGGREGATED_PHASES, _AGGREGATED_SCHEDULE
    return {phase: phases.get(phase) or PhaseTable.empty(phase)
            for phase in order}, schedule


def _step_numbers(schedule):
    """``(recv_step, send_steps)``: the number ``1, 2, ...`` of every
    ``("recv", phase)`` step, and every ``("send", phase)`` step with the
    number of receive steps before it — what it may forward."""
    recv_step: Dict[Phase, int] = {}
    send_steps: List[Tuple[Phase, int]] = []
    for side, phase in schedule:
        if side == "recv":
            recv_step[phase] = len(recv_step) + 1
        else:
            send_steps.append((phase, len(recv_step)))
    return recv_step, send_steps


def _receipt_ends(tables, recv_step) -> np.ndarray:
    """``ends[s]``: the receipt rows of receive steps ``1..s``.  A receipt
    row indexes the receive steps' payload rows, concatenated in schedule
    order."""
    return counts_to_displs([int(tables[phase].payload_offsets[-1])
                             for phase in recv_step])


def receipt_starts(variant: Variant,
                   phases: Dict[Phase, PhaseTable]) -> Dict[Phase, int]:
    """The first receipt row of every receive step's payload, for a plan of
    ``variant`` with the tables ``phases`` — where the planner's
    :class:`~repro.collectives.plan.Witness` rows of each step begin."""
    tables, schedule = _phase_tables(variant, phases)
    recv_step = _step_numbers(schedule)[0]
    return dict(zip(recv_step,
                    _receipt_ends(tables, recv_step)[:-1].tolist()))


def _holders(result_offsets: np.ndarray) -> np.ndarray:
    """The receiver of every result entry, a fresh array."""
    return np.repeat(np.arange(result_offsets.size - 1, dtype=INDEX_DTYPE),
                     np.diff(result_offsets))


def _result_proof(witness, pattern, result_edges: np.ndarray):
    """The witness entry of every result entry — its unique edge row's — or
    ``None`` when there is no witness of the pattern's edges."""
    if witness is None or witness.edges.size != pattern.owned_keys()[2].size:
        return None
    return witness.edges.take(result_edges)


def _certified(hops, result_proof, tables, recv_step, send_steps,
               owned_holders: np.ndarray, result_offsets: np.ndarray,
               result_rows: np.ndarray) -> bool:
    """Whether a witness proves every hop held, with one gather-and-compare
    pass per hop and no sort or search.

    ``hops`` maps a send phase to the witness entry of every payload row,
    and ``result_proof`` gives every result entry's.  The *holding table*
    is every owned key ``k`` on row ``k`` as ``owner * width + k``, one
    row nobody holds, then every receipt row as ``receiver * width + key``.
    An entry ``-1`` reads the key's owned row, any other the receipt row
    it names, which must lie in a step no later than the hop may use; the
    row read must pack the entry's own holder and key.  A send phase with
    no witness entries has every payload row read as owned.  So a "yes" is
    a proof of holding; a "no" proves nothing and the plan goes to the
    join (:func:`_replay_columns`).
    """
    ends = _receipt_ends(tables, recv_step)
    spare = owned_holders.size
    width = spare + 1
    holding = np.empty(width + int(ends[-1]), dtype=INDEX_DTYPE)
    np.multiply(owned_holders, width, out=holding[:spare])
    holding[:spare] += np.arange(spare, dtype=INDEX_DTYPE)
    holding[spare] = -1
    for phase, start in zip(recv_step, ends[:-1] + width):
        table = tables[phase]
        rows = holding[start:start + table.payload_key_ids.size]
        np.multiply(np.repeat(table.dests, table.payload_counts), width,
                    out=rows)
        rows += np.minimum(table.payload_key_ids, spare)

    def proves(holders, keys, entries, allowed) -> bool:
        # ``holders`` is the caller's fresh buffer: it becomes the packing
        # every row read must equal.
        if not keys.size:
            return entries is None or not entries.size
        if int(keys.min()) < 0 or int(keys.max()) > spare:
            return False
        if entries is None:
            found = holding.take(keys)
        elif entries.size != keys.size:
            return False
        else:
            low = int(entries.min())
            if low < -1 or int(entries.max()) >= ends[allowed]:
                return False
            found = entries + np.int64(width)
            if low < 0:
                np.copyto(found, keys, where=entries < 0)
            holding.take(found, out=found, mode="clip")
        holders *= width
        holders += keys
        return np.array_equal(found, holders)

    if not proves(_holders(result_offsets), result_rows, result_proof,
                  len(recv_step)):
        return False
    return all(proves(np.repeat(tables[phase].srcs,
                                tables[phase].payload_counts),
                      tables[phase].payload_key_ids, hops.get(phase), allowed)
               for phase, allowed in send_steps)


# -- the replay columns: today's hop-by-hop join ---------------------------------


def _replay_columns(plan: CollectivePlan):
    """The replay columns of ``plan``'s world: ``(n_world_rows, {phase:
    (gather, scatter, wire_perm)})``, or the :class:`PlanError` of the
    first hop that fails.

    This replays *every* rank's registration chronology at once.  Every
    value a rank can hold is one packed int64 (:func:`_packing`) of its
    holder and its key.  The *registration stream* holds all ranks' owned
    keys in (holder, item) order, then the payload of each ``("recv",
    phase)`` schedule step in (receiver, message, position) order.  A
    stable sort keeps the first occurrence of every value — the moment
    its holder first has it.  Sends and the result view resolve against the
    sorted survivors with one ``searchsorted`` each; a send may only use
    values first seen in an earlier schedule step.  A replay row is its
    value's index among the sorted survivors, where the owned values come
    first, in key order.  The compiler certifies a planner-built plan
    from its witness without this join and runs it on every other plan,
    for the verdict alone: the columns are dropped, and nothing on the
    solve path reads them.
    """
    pattern = plan.pattern
    n_ranks = pattern.n_ranks
    tables, schedule = _phase_tables(plan.variant, plan.phases)
    recv_segment, send_steps = _step_numbers(schedule)
    owned_holders = pattern.owned_keys()[0]
    pack = _packing(owned_holders, n_ranks)

    # -- per phase: message orders and the wire permutation (receive
    # -- position -> wire position) -----------------------------------------
    send_orders, recv_orders, wire_perms = {}, {}, {}
    for phase, table in tables.items():
        counts = table.payload_counts
        # Stable, so each rank keeps its per-message order and sender-side
        # position ``k`` of a ``(src, dest)`` stream still pairs with
        # receiver-side position ``k`` — the FIFO matching of the fabric.
        send_order = send_orders[phase] = lexsort_packed(table.srcs)
        recv_order = recv_orders[phase] = lexsort_packed(table.dests)
        wire_starts = np.empty(counts.size, dtype=INDEX_DTYPE)
        wire_starts[send_order] = counts_to_displs(counts[send_order])[:-1]
        wire_perms[phase] = range_index(wire_starts[recv_order],
                                        counts[recv_order])

    seg_bounds, group_of, held_step, held = _held_values(
        owned_holders, pack,
        [(tables[phase], recv_orders[phase]) for phase in recv_segment])

    # -- every send step packs only what its holder already has; a held
    # -- value's replay row is its index in ``held`` ---------------------------
    columns = {}
    for phase, allowed in send_steps:
        table, send_order = tables[phase], send_orders[phase]
        hit, found = _lookup(held, _packed_values(table, send_order,
                                                  table.srcs, pack))
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
        segment = recv_segment[phase]
        lo, hi = seg_bounds[segment], seg_bounds[segment + 1]
        columns[phase] = (hit, group_of[lo:hi].copy(), wire_perms[phase])

    # -- the result view: each output entry's value must reach its holder ----
    result_holders, result_items_all, result_sources_all, result_rows, _ = \
        _result_view(pattern)
    found = _lookup(held, pack(result_holders, result_rows))[1]
    if not found.all():
        position = int(np.argmin(found))
        raise PlanError(
            f"rank {int(result_holders[position])} expects item "
            f"{int(result_items_all[position])} from rank "
            f"{int(result_sources_all[position])} but no phase of "
            "the plan delivers it"
        )
    return int(held.size), columns


def _packing(owned_holders: np.ndarray, n_ranks: int):
    """The packing of every value a rank can hold into one int64.

    ``pack(holders, keys)`` is ``holder * width + key`` — ``width`` leaves
    one spare key id, ``n_owned``, that nobody owns, and every id past it
    (a hand-built table's pair outside the pattern) packs as that spare —
    plus ``n_ranks * width`` where the holder does not own the key.  So the
    owned values sort first, in key order: owned key ``k`` is the ``k``-th
    smallest value any holder can have.
    """
    spare = owned_holders.size
    width = spare + 1
    owners = np.append(owned_holders, -1)

    def pack(holders: np.ndarray, keys: np.ndarray) -> np.ndarray:
        values = np.minimum(keys, spare)
        unowned = owners[values] != holders
        values += holders * width
        values[unowned] += n_ranks * width
        return values

    return pack


def _packed_values(table: PhaseTable, message_order: np.ndarray,
                   holders: np.ndarray, pack) -> np.ndarray:
    """Every payload row of ``table`` packed, messages in
    ``message_order``; ``holders`` (``srcs`` or ``dests``) names each
    message's holder."""
    counts = table.payload_counts
    return gather_ranges(pack(np.repeat(holders, counts),
                              table.payload_key_ids),
                         table.payload_offsets[:-1][message_order],
                         counts[message_order])


def _held_values(owned_holders: np.ndarray, pack,
                 recv_steps: List[Tuple[PhaseTable, np.ndarray]]):
    """The registration stream's first occurrences.

    The stream is every owned value, then each receive step's payload in
    (receiver, message, position) order (``recv_steps`` gives each step's
    table and receive order).  Returns ``seg_bounds`` (the segments'
    stream offsets), ``group_of`` (each stream position's index into the
    held values), ``held_step`` (the segment of each held value's first
    occurrence: the step that registered it) and ``held`` (the distinct
    values, ascending); the stream itself and its sort die here.
    """
    n_owned = int(owned_holders.size)
    seg_bounds = counts_to_displs(
        [n_owned] + [int(table.payload_counts.sum()) for table, _ in recv_steps])
    stream = np.empty(int(seg_bounds[-1]), dtype=INDEX_DTYPE)
    stream[:n_owned] = pack(owned_holders, np.arange(n_owned,
                                                     dtype=INDEX_DTYPE))
    for segment, (table, recv_order) in enumerate(recv_steps, 1):
        stream[seg_bounds[segment]:seg_bounds[segment + 1]] = _packed_values(
            table, recv_order, table.dests, pack)
    key_sort = lexsort_packed(stream)
    stream = stream[key_sort]
    starts_mask = run_starts_mask(stream)
    held = stream[starts_mask]
    # The sort is stable, so the first row of each run is the smallest
    # stream position — the registration moment of that value.
    held_step = (np.searchsorted(seg_bounds, key_sort[starts_mask],
                                 side="right") - 1).astype(np.int8)
    # The sorted stream's buffer becomes each sorted position's group.
    np.cumsum(starts_mask, out=stream)
    stream -= 1
    group_of = np.empty_like(key_sort)
    group_of[key_sort] = stream
    return seg_bounds, group_of, held_step, held


def _lookup(held: np.ndarray, values: np.ndarray):
    """Position of every value in the sorted ``held`` and whether it is
    there (nothing is held only when there are no values either)."""
    hit = np.searchsorted(held, values)
    np.minimum(hit, held.size - 1, out=hit)
    return hit, held[hit] == values


def _result_view(pattern):
    """Per receiver, the last-declaring source of every item it expects.

    Returns the ``(holder, item, source, key, edge row)`` columns of the
    result, in (receiver, item) order; the edge row is the entry's row of
    the unique edge table.  That table is sorted by origin first, so a
    stable sort by (receiver, item) leaves the highest declaring source
    last in each run.
    """
    edge_origins, edge_dests, edge_items = pattern.unique_edge_table()
    edge_keys = pattern.owned_keys()[2]
    by_receiver = lexsort_packed(edge_dests, edge_items)
    d_sorted, i_sorted = edge_dests[by_receiver], edge_items[by_receiver]
    run_start = run_starts_mask(d_sorted, i_sorted)
    run_end = np.empty_like(run_start)
    run_end[:-1], run_end[-1:] = run_start[1:], True
    run_last = by_receiver[run_end]
    del by_receiver, run_end
    holders = d_sorted[run_start]
    del d_sorted
    return (holders, i_sorted[run_start], edge_origins[run_last],
            edge_keys[run_last], run_last)
