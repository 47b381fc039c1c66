"""Collective plans: the explicit message schedules of each variant.

A :class:`CollectivePlan` is the planner's output and the common input of

* the statistics used by Figures 8-10 (message counts / sizes per process),
* the performance models that time an iteration (Figures 7, 11-13), and
* the functional executor in :mod:`repro.collectives.persistent` that moves
  real data over the simulated MPI runtime.

Plans are explicit: every message of every phase lists the *slots*
``(origin, item, final_dest)`` it carries, so a plan can be validated against
the original pattern (every required delivery happens exactly once) without
executing anything.

The stored form is **columnar** at both levels.  A :class:`SlotTable` holds
three parallel int64 arrays (``origin`` / ``item`` / ``final_dest``), and
``CollectivePlan.phases[phase]`` is one :class:`PhaseTable`: the endpoint,
slot and payload columns of every message of the phase, exactly as the
planner's sorts produced them.  Statistics, set-up costs, validation and the
world compiler read those columns; no per-message object exists until someone
indexes or iterates a table, which cuts a :class:`PlannedMessage` view (and,
below it, :class:`Slot` tuples) lazily for per-message callers.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.pattern.comm_pattern import CommPattern
from repro.pattern.statistics import PatternStatistics
from repro.perfmodel.base import CostModel, MessageCost
from repro.topology.mapping import RankMapping
from repro.utils.arrays import (
    INDEX_DTYPE,
    concatenate_or_empty,
    counts_to_displs,
    freeze_columns,
    frozen_copy_on_write,
    run_starts_mask,
)
from repro.utils.errors import PlanError


class Variant(str, enum.Enum):
    """The communication protocols compared throughout the paper."""

    #: Persistent point-to-point as in stock Hypre (reference protocol).
    POINT_TO_POINT = "point_to_point"
    #: Standard neighborhood collective: wraps point-to-point (Section 3.1).
    STANDARD = "standard"
    #: Locality-aware three-step aggregation (Section 3.2).
    PARTIAL = "partial"
    #: Aggregation plus duplicate removal via the index extension (Section 3.3).
    FULL = "full"


class Phase(str, enum.Enum):
    """Communication phases of Algorithm 4.

    ``DIRECT`` is the single phase of the unaggregated variants; the four
    aggregated phases follow the paper's naming: ``l`` fully local, ``s``
    initial intra-region redistribution, ``g`` inter-region, ``r`` final
    intra-region redistribution.
    """

    DIRECT = "direct"
    LOCAL = "l"
    SETUP_REDIST = "s"
    GLOBAL = "g"
    FINAL_REDIST = "r"


#: Phase execution structure: ``s`` must finish before ``g`` starts, ``g``
#: before ``r``; ``l`` overlaps the ``s``+``g`` window (Algorithms 5 and 6).
AGGREGATED_PHASES: Tuple[Phase, ...] = (
    Phase.LOCAL, Phase.SETUP_REDIST, Phase.GLOBAL, Phase.FINAL_REDIST,
)

#: Terminal phases per variant: the phases whose messages (plus
#: self-deliveries) realise the pattern's required deliveries.
TERMINAL_PHASES: Dict[Variant, Tuple[Phase, ...]] = {
    Variant.POINT_TO_POINT: (Phase.DIRECT,),
    Variant.STANDARD: (Phase.DIRECT,),
    Variant.PARTIAL: (Phase.LOCAL, Phase.FINAL_REDIST),
    Variant.FULL: (Phase.LOCAL, Phase.FINAL_REDIST),
}


class Slot(NamedTuple):
    """One routed data item: value ``item`` owned by ``origin`` bound for ``final_dest``."""

    origin: int
    item: int
    final_dest: int


def _index_column(values) -> np.ndarray:
    """Coerce one column to a read-only contiguous int64 array.

    Any result still sharing writable memory with a caller's array (including
    through reshapes or read-only views of writable buffers) is copied before
    freezing, so the stored column can neither mutate through the caller's
    reference nor freeze the caller's own array.  Arrays we created — or that
    are provably immutable — are frozen in place without a copy.
    """
    arr = np.asarray(values, dtype=INDEX_DTYPE)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return frozen_copy_on_write(np.ascontiguousarray(arr), values)


class SlotTable:
    """Columnar slot storage: parallel read-only int64 arrays.

    The table is the unit the planner, the statistics pass, and the validator
    operate on; per-slot access (iteration, indexing, ``to_slots``) exists only
    as a compatibility view and materialises :class:`Slot` tuples on demand.
    """

    __slots__ = ("origin", "item", "final_dest")

    def __init__(self, origin, item, final_dest):
        self.origin = _index_column(origin)
        self.item = _index_column(item)
        self.final_dest = _index_column(final_dest)
        if not (self.origin.size == self.item.size == self.final_dest.size):
            raise PlanError(
                f"slot table columns disagree in length: "
                f"{self.origin.size}/{self.item.size}/{self.final_dest.size}"
            )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _wrap(cls, origin: np.ndarray, item: np.ndarray,
              final_dest: np.ndarray) -> "SlotTable":
        """Trusted constructor: columns must already be parallel 1-D int64.

        The planners call this with slices of arrays they froze wholesale, so
        per-message construction does no validation or flag work.
        """
        table = cls.__new__(cls)
        table.origin = origin
        table.item = item
        table.final_dest = final_dest
        return table

    @classmethod
    def empty(cls) -> "SlotTable":
        """A table with no slots."""
        zero = np.empty(0, dtype=INDEX_DTYPE)
        return cls(zero, zero, zero)

    @classmethod
    def from_slots(cls, slots: Iterable[Tuple[int, int, int]]) -> "SlotTable":
        """Build a table from an iterable of ``Slot`` (or 3-tuples)."""
        slots = list(slots)
        if not slots:
            return cls.empty()
        triples = np.asarray(slots, dtype=INDEX_DTYPE)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise PlanError("slots must be (origin, item, final_dest) triples")
        return cls(triples[:, 0], triples[:, 1], triples[:, 2])

    @classmethod
    def concat(cls, tables: Sequence["SlotTable"]) -> "SlotTable":
        """Concatenate tables in order (zero-copy for a single table)."""
        tables = [t for t in tables if t.origin.size]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        columns = (np.concatenate([t.origin for t in tables]),
                   np.concatenate([t.item for t in tables]),
                   np.concatenate([t.final_dest for t in tables]))
        for column in columns:
            column.flags.writeable = False
        return cls._wrap(*columns)

    # -- array-level operations ------------------------------------------------

    def take(self, indices: np.ndarray) -> "SlotTable":
        """Rows selected by an index (or boolean mask) array."""
        columns = (self.origin[indices], self.item[indices],
                   self.final_dest[indices])
        for column in columns:
            column.flags.writeable = False
        return SlotTable._wrap(*columns)

    # -- compatibility views ---------------------------------------------------

    def to_slots(self) -> List[Slot]:
        """Materialise the per-slot view (compatibility; O(n) Python objects)."""
        return [Slot(o, i, d) for o, i, d in zip(self.origin.tolist(),
                                                 self.item.tolist(),
                                                 self.final_dest.tolist())]

    def __len__(self) -> int:
        return int(self.origin.size)

    def __iter__(self) -> Iterator[Slot]:
        return iter(self.to_slots())

    def __getitem__(self, index: int) -> Slot:
        return Slot(int(self.origin[index]), int(self.item[index]),
                    int(self.final_dest[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotTable):
            return NotImplemented
        return (np.array_equal(self.origin, other.origin)
                and np.array_equal(self.item, other.item)
                and np.array_equal(self.final_dest, other.final_dest))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotTable(n={len(self)})"


class PlannedMessage:
    """One message of a plan.

    The routing work lives in ``table`` (a :class:`SlotTable`); the
    ``(origin, item)`` values physically packed into the buffer live in the
    parallel ``payload_origins`` / ``payload_items`` arrays, in packing order.
    For deduplicated messages the payload is shorter than the table.

    ``slots`` and ``payload_keys`` are lazy per-element compatibility views;
    the constructor also accepts them in their legacy list forms.
    """

    __slots__ = ("phase", "src", "dest", "table",
                 "payload_origins", "payload_items",
                 "_slots_view", "_payload_view")

    def __init__(self, phase: Phase, src: int, dest: int,
                 slots=None, payload_keys=None):
        payload = (None, None)
        if payload_keys is not None:
            pairs = np.asarray(list(payload_keys), dtype=INDEX_DTYPE)
            if pairs.size == 0:
                raise PlanError("message carries no payload")
            payload = (_index_column(pairs[:, 0]), _index_column(pairs[:, 1]))
        table = slots if isinstance(slots, SlotTable) \
            else SlotTable.from_slots(slots or [])
        self._fill(phase, src, dest, table, *payload)

    @classmethod
    def from_table(cls, phase: Phase, src: int, dest: int, table: SlotTable,
                   payload_origins: np.ndarray | None = None,
                   payload_items: np.ndarray | None = None) -> "PlannedMessage":
        """Trusted columnar constructor (payload: parallel 1-D int64, if given)."""
        message = cls.__new__(cls)
        message._fill(phase, src, dest, table, payload_origins, payload_items)
        return message

    def _fill(self, phase, src, dest, table, payload_origins, payload_items):
        self.phase = phase
        self.src = int(src)
        self.dest = int(dest)
        if self.src == self.dest:
            raise PlanError(f"message with identical endpoints (rank {self.src})")
        self.table = table
        if not table.origin.size:
            raise PlanError(f"empty message {self.src}->{self.dest} in phase {phase}")
        if payload_origins is None:
            payload_origins, payload_items = table.origin, table.item
        self.payload_origins = payload_origins
        self.payload_items = payload_items
        if payload_origins.size == 0:
            raise PlanError("message carries no payload")
        self._slots_view = None
        self._payload_view = None

    # -- compatibility views ---------------------------------------------------

    @property
    def slots(self) -> List[Slot]:
        """Lazy per-slot view of ``table`` (kept for existing callers)."""
        if self._slots_view is None:
            self._slots_view = self.table.to_slots()
        return self._slots_view

    @property
    def payload_keys(self) -> List[Tuple[int, int]]:
        """Lazy ``(origin, item)`` pair view of the packed payload."""
        if self._payload_view is None:
            self._payload_view = list(zip(self.payload_origins.tolist(),
                                          self.payload_items.tolist()))
        return self._payload_view

    # -- sizes -----------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Routing entries the message performs."""
        return len(self.table)

    def payload_count(self) -> int:
        """Number of values physically transferred."""
        return int(self.payload_origins.size)

    def nbytes(self, item_bytes: int) -> int:
        """Payload size in bytes."""
        return self.payload_count() * item_bytes

    def __eq__(self, other: object) -> bool:
        """Field equality, matching the seed's dataclass semantics."""
        if not isinstance(other, PlannedMessage):
            return NotImplemented
        return (self.phase is other.phase
                and self.src == other.src and self.dest == other.dest
                and self.table == other.table
                and np.array_equal(self.payload_origins, other.payload_origins)
                and np.array_equal(self.payload_items, other.payload_items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlannedMessage({self.phase.value}, {self.src}->{self.dest}, "
                f"slots={self.n_slots}, payload={self.payload_count()})")


class PhaseTable(Sequence):
    """Every message of one phase, as read-only int64 columns.

    Message ``k`` travels ``srcs[k] -> dests[k]`` and routes slots
    ``offsets[k]:offsets[k + 1]`` of the parallel ``origins`` / ``items`` /
    ``final_dests`` columns.  Its packed payload is rows
    ``payload_offsets[k]:payload_offsets[k + 1]`` of ``payload_origins`` /
    ``payload_items`` — the slot columns themselves unless the phase is
    deduplicated.  ``payload_key_ids`` holds, per payload row, the dense id
    :meth:`CommPattern.owned_keys` gives its ``(origin, item)``; it is ``None``
    on tables converted from hand-built message lists.

    The table is a ``Sequence[PlannedMessage]``: indexing cuts a message view
    and hands out the same object for the same index ever after (the per-rank
    compiler pairs sender and receiver lists by identity); iteration streams
    views without retaining them.
    """

    __slots__ = ("phase", "srcs", "dests", "offsets", "origins", "items",
                 "final_dests", "payload_offsets", "payload_origins",
                 "payload_items", "payload_key_ids", "_views")

    def __init__(self, phase: Phase, srcs, dests, offsets, origins, items,
                 final_dests, payload=None, payload_key_ids=None):
        """Trusted constructor: parallel 1-D int64 columns the caller gives up.

        ``payload`` is ``(offsets, origins, items)`` of a deduplicated phase.
        """
        self.phase = phase
        self.srcs, self.dests, self.offsets = srcs, dests, offsets
        self.origins, self.items, self.final_dests = origins, items, final_dests
        self.payload_offsets, self.payload_origins, self.payload_items = \
            payload or (offsets, origins, items)
        self.payload_key_ids = payload_key_ids
        freeze_columns(srcs, dests, offsets, origins, items, final_dests,
                       *(payload or ()))
        if payload_key_ids is not None:
            freeze_columns(payload_key_ids)
        self._views: Dict[int, PlannedMessage] = {}

    @classmethod
    def from_messages(cls, phase: Phase,
                      messages: Iterable[PlannedMessage]) -> "PhaseTable":
        """Stack a hand-built message list into columns (one O(messages) pass)."""
        messages = list(messages)
        n = len(messages)

        def column(values):
            return np.fromiter(values, dtype=INDEX_DTYPE, count=n)

        payload = None
        if any(m.payload_origins is not m.table.origin for m in messages):
            payload = (
                counts_to_displs(column(m.payload_origins.size for m in messages)),
                concatenate_or_empty([m.payload_origins for m in messages]),
                concatenate_or_empty([m.payload_items for m in messages]))
        return cls(
            phase, column(m.src for m in messages),
            column(m.dest for m in messages),
            counts_to_displs(column(len(m.table) for m in messages)),
            concatenate_or_empty([m.table.origin for m in messages]),
            concatenate_or_empty([m.table.item for m in messages]),
            concatenate_or_empty([m.table.final_dest for m in messages]),
            payload)

    @property
    def slot_counts(self) -> np.ndarray:
        """Routing entries per message."""
        return np.diff(self.offsets)

    @property
    def payload_counts(self) -> np.ndarray:
        """Values physically packed per message."""
        return np.diff(self.payload_offsets)

    def _cut(self, index: int) -> PlannedMessage:
        begin, end = int(self.offsets[index]), int(self.offsets[index + 1])
        table = SlotTable._wrap(self.origins[begin:end], self.items[begin:end],
                                self.final_dests[begin:end])
        if self.payload_origins is self.origins:
            return PlannedMessage.from_table(
                self.phase, self.srcs[index], self.dests[index], table)
        begin, end = (int(self.payload_offsets[index]),
                      int(self.payload_offsets[index + 1]))
        return PlannedMessage.from_table(
            self.phase, self.srcs[index], self.dests[index], table,
            self.payload_origins[begin:end], self.payload_items[begin:end])

    def __len__(self) -> int:
        return int(self.srcs.size)

    def __getitem__(self, index: int) -> PlannedMessage:
        index = range(len(self))[index]      # normalises, raises IndexError
        view = self._views.get(index)
        if view is None:        # setdefault: racing rank threads share one view
            view = self._views.setdefault(index, self._cut(index))
        return view

    def __iter__(self) -> Iterator[PlannedMessage]:
        return (self._views.get(i) or self._cut(i) for i in range(len(self)))

    def __add__(self, other) -> List[PlannedMessage]:
        return list(self) + list(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseTable({self.phase.value}, messages={len(self)})"


#: Column triple ``(origins, items, final_dests)`` — the multiset element layout.
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _triple_groups(origins: np.ndarray, items: np.ndarray, dests: np.ndarray):
    """Lexicographic group ids of ``(origin, item, dest)`` triples.

    Returns ``(group_of, unique_columns)``: ``group_of[k]`` is the dense id of
    row ``k``'s triple, and ``unique_columns`` holds one representative triple
    per id, sorted lexicographically.  One int64 lexsort — far faster than
    ``np.unique(..., axis=0)``'s void-dtype sort.
    """
    order = np.lexsort((dests, items, origins))
    sorted_origins = origins[order]
    sorted_items = items[order]
    sorted_dests = dests[order]
    new_group = run_starts_mask(sorted_origins, sorted_items, sorted_dests)
    group_sorted = np.cumsum(new_group) - 1
    group_of = np.empty(order.size, dtype=INDEX_DTYPE)
    group_of[order] = group_sorted
    starts = np.flatnonzero(new_group)
    unique_columns = (sorted_origins[starts], sorted_items[starts],
                      sorted_dests[starts])
    return group_of, unique_columns


def _multiset_compare(required: _Columns, delivered: _Columns):
    """Compare two delivery multisets (column triples) with one lexsort pass.

    Returns ``(unique_columns, missing_ids, spurious_ids, duplicated_ids)``
    where the id arrays index into ``unique_columns`` (sorted
    lexicographically, so ids ascend in tuple order).
    """
    n_required = required[0].size
    origins = np.concatenate([required[0], delivered[0]])
    items = np.concatenate([required[1], delivered[1]])
    dests = np.concatenate([required[2], delivered[2]])
    if origins.size == 0:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return (empty, empty, empty), empty, empty, empty
    group_of, unique_columns = _triple_groups(origins, items, dests)
    n_groups = unique_columns[0].size
    required_counts = np.bincount(group_of[:n_required], minlength=n_groups)
    delivered_counts = np.bincount(group_of[n_required:], minlength=n_groups)
    missing = np.flatnonzero((required_counts > 0) & (delivered_counts == 0))
    spurious = np.flatnonzero((delivered_counts > 0) & (required_counts == 0))
    duplicated = np.flatnonzero(delivered_counts > 1)
    return unique_columns, missing, spurious, duplicated


def _example_rows(unique_columns: _Columns, ids: np.ndarray, limit: int = 3):
    """First few offending triples as plain tuples for error messages."""
    origins, items, dests = unique_columns
    return [(int(origins[i]), int(items[i]), int(dests[i]))
            for i in ids[:limit]]


@dataclass
class CollectivePlan:
    """Complete message schedule of one collective variant on one pattern."""

    variant: Variant
    pattern: CommPattern
    mapping: RankMapping
    #: One :class:`PhaseTable` per phase; a hand-built ``{phase: [messages]}``
    #: dict is stacked into tables once, on construction.
    phases: Dict[Phase, PhaseTable]
    #: Deliveries satisfied without any message (origin already at destination,
    #: or an aggregator that is itself the final destination).
    self_deliveries: SlotTable = field(default_factory=SlotTable.empty)
    #: Load-balancing strategy the planner used (``None`` for the unaggregated
    #: variants, whose plans are strategy-independent).  Provenance only — it
    #: completes the content key of the plan/exchange cache; two plans built
    #: with different strategies must never share a cache entry.
    strategy: object = field(default=None, compare=False)
    #: Content key stamped by :func:`~repro.collectives.planner.make_plan`
    #: (``None`` on hand-built plans).  The plan/exchange cache only serves
    #: entries for token-carrying plans: the token certifies the plan is the
    #: deterministic planner output for exactly that key, so two plans with
    #: equal tokens are interchangeable — a guarantee a hand-assembled
    #: ``phases`` dict cannot make.
    cache_token: object = field(default=None, init=False, compare=False)
    #: Instance memos of the derived analyses.  A plan is immutable, so
    #: statistics and modeled times are pure functions of it (and the cost
    #: model); neither memo is an ``__init__`` field, so a
    #: ``dataclasses.replace`` copy starts without them (and without a cache
    #: token).  Times are keyed by the *live model object*, weakly: a ``repr``
    #: key would serve a model whose repr omits behaviour-bearing state — any
    #: non-dataclass :class:`~repro.perfmodel.base.CostModel` with the default
    #: address-based repr — another model's time.  Frozen-dataclass models
    #: hash by content, so equal models still share entries.
    _statistics_memo: object = field(default=None, init=False, compare=False,
                                     repr=False)
    _modeled_time_memo: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary, init=False, compare=False,
        repr=False)

    def __post_init__(self):
        self.phases = {
            phase: messages if isinstance(messages, PhaseTable)
            else PhaseTable.from_messages(phase, messages)
            for phase, messages in self.phases.items()}
        if not isinstance(self.self_deliveries, SlotTable):
            self.self_deliveries = SlotTable.from_slots(self.self_deliveries)

    def __getstate__(self):
        # The memos are derived state: excluding them keeps pickles (the
        # disk tier of the plan cache) independent of what analyses happened
        # to run first, and the weak-keyed time memo cannot pickle anyway.
        state = self.__dict__.copy()
        state["_statistics_memo"] = None
        state["_modeled_time_memo"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__["_modeled_time_memo"] = weakref.WeakKeyDictionary()

    # -- iteration ------------------------------------------------------------

    def messages(self, phase: Phase | None = None) -> Iterator[PlannedMessage]:
        """Iterate over all messages, optionally restricted to one phase."""
        for table in self._tables(phase):
            yield from table

    def _tables(self, phase: Phase | None = None) -> List[PhaseTable]:
        if phase is None:
            return list(self.phases.values())
        return [self.phases[phase]] if phase in self.phases else []

    def _matching(self, column: str, rank: int,
                  phase: Phase | None) -> List[PlannedMessage]:
        """Views of the messages whose endpoint ``column`` equals ``rank``."""
        return [table[index] for table in self._tables(phase)
                for index in np.flatnonzero(
                    getattr(table, column) == rank).tolist()]

    def messages_from(self, rank: int, phase: Phase | None = None) -> List[PlannedMessage]:
        """Messages sent by ``rank`` (a mask over ``srcs``; only matches are cut)."""
        return self._matching("srcs", rank, phase)

    def messages_to(self, rank: int, phase: Phase | None = None) -> List[PlannedMessage]:
        """Messages received by ``rank`` (a mask over ``dests``)."""
        return self._matching("dests", rank, phase)

    @property
    def item_bytes(self) -> int:
        """Bytes per data item (taken from the pattern)."""
        return self.pattern.item_bytes

    @property
    def n_messages(self) -> int:
        """Total message count across all phases."""
        return sum(len(msgs) for msgs in self.phases.values())

    def _stacked(self, *names: str) -> List[np.ndarray]:
        """The named per-message columns of every phase, end to end."""
        return [concatenate_or_empty([getattr(table, name)
                                      for table in self.phases.values()])
                for name in names]

    # -- statistics (Figures 8-10) -----------------------------------------------

    def statistics(self) -> PatternStatistics:
        """Per-rank local / inter-region message and byte counts (sender side).

        Memoized on the plan: the counts are a pure function of the (frozen)
        message schedule, and the experiment drivers re-query them on every
        re-run of a figure sweep.  Treat the returned object as read-only.
        """
        if self._statistics_memo is None:
            stats = PatternStatistics(n_ranks=self.pattern.n_ranks)
            srcs, dests, payloads = self._stacked("srcs", "dests",
                                                  "payload_counts")
            if srcs.size:
                stats.add_messages(srcs,
                                   self.mapping.same_region_many(srcs, dests),
                                   payloads * self.item_bytes)
            self._statistics_memo = stats
        return self._statistics_memo

    def _global_payloads(self) -> np.ndarray:
        """Payload counts of the messages that cross a region boundary."""
        srcs, dests, payloads = self._stacked("srcs", "dests", "payload_counts")
        return payloads[~self.mapping.same_region_many(srcs, dests)]

    def max_global_message_bytes(self) -> int:
        """Largest single inter-region message (Figure 10 uses the per-process max)."""
        return int(self._global_payloads().max(initial=0)) * self.item_bytes

    def global_payload_items(self) -> int:
        """Total number of values crossing region boundaries."""
        return int(self._global_payloads().sum())

    # -- modeled time (Figures 7, 11-13) --------------------------------------------

    def _phase_time(self, model: CostModel, phase: Phase) -> float:
        table = self.phases.get(phase)
        if not table:
            return model.phase_time({})
        nbytes = table.payload_counts * self.item_bytes
        localities = self.mapping.locality_many(table.srcs, table.dests)
        per_process: Dict[int, List[MessageCost]] = {}
        for src, size, locality in zip(table.srcs.tolist(), nbytes.tolist(),
                                       localities):
            per_process.setdefault(src, []).append(
                MessageCost(nbytes=size, locality=locality))
        return model.phase_time(per_process)

    def modeled_time(self, model: CostModel) -> float:
        """Modeled Start+Wait time of one iteration of this plan.

        Unaggregated variants have a single phase.  Aggregated variants follow
        Algorithms 5-6: the initial redistribution ``s`` completes before the
        inter-region phase ``g`` starts, while the fully-local phase ``l``
        overlaps both; the final redistribution ``r`` runs after ``g``.

        Memoized per live model object (equal frozen-dataclass models share
        the entry); models that cannot be weakly referenced or hashed are
        computed uncached.
        """
        memo = self._modeled_time_memo
        try:
            cached = memo.get(model)
        except TypeError:
            memo = None
            cached = None
        if cached is not None:
            return cached
        if self.variant in (Variant.POINT_TO_POINT, Variant.STANDARD):
            time = self._phase_time(model, Phase.DIRECT)
        else:
            t_l = self._phase_time(model, Phase.LOCAL)
            t_s = self._phase_time(model, Phase.SETUP_REDIST)
            t_g = self._phase_time(model, Phase.GLOBAL)
            t_r = self._phase_time(model, Phase.FINAL_REDIST)
            time = max(t_l, t_s + t_g) + t_r
        if memo is not None:
            try:
                memo[model] = time
            except TypeError:
                pass
        return time

    def setup_costs(self) -> Tuple[int, int]:
        """(message count, byte volume) proxies for per-process initialisation work.

        Aggregated variants must discover and load-balance the aggregated
        pattern during ``*_init``; the work each process performs grows with
        the number of messages it participates in and with the routing
        metadata it must exchange (three integers per slot).  Initialisation
        happens in parallel, so the proxies are the *maximum over processes*,
        not totals.
        """
        srcs, dests, slot_counts = self._stacked("srcs", "dests", "slot_counts")
        if not srcs.size:
            return 0, 0
        endpoints = np.concatenate([srcs, dests])
        slot_bytes = np.concatenate([slot_counts, slot_counts]) * (3 * 8)
        length = int(endpoints.max()) + 1
        messages_per_rank = np.bincount(endpoints, minlength=length)
        slot_bytes_per_rank = np.bincount(endpoints, weights=slot_bytes,
                                          minlength=length)
        return int(messages_per_rank.max()), int(slot_bytes_per_rank.max())

    # -- validation -------------------------------------------------------------------

    def _required_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(origin, item, final_dest)`` columns the pattern requires."""
        origins, dests, items = self.pattern.edge_arrays()
        return origins, items, dests

    def _planned_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Delivery columns the plan performs (terminal phases plus self-deliveries).

        Raises :class:`PlanError` when a terminal message carries a slot whose
        final destination is not the message destination (one vectorized
        comparison over all terminal slots).
        """
        tables = [table for phase in TERMINAL_PHASES[self.variant]
                  for table in self._tables(phase)]
        for table in tables:
            stray_mask = table.final_dests != np.repeat(table.dests,
                                                        table.slot_counts)
            if stray_mask.any():
                position = int(np.argmax(stray_mask))
                index = int(np.searchsorted(table.offsets, position,
                                            side="right")) - 1
                raise PlanError(
                    f"terminal message {int(table.srcs[index])}->"
                    f"{int(table.dests[index])} carries a slot "
                    f"bound for rank {int(table.final_dests[position])}"
                )
        own = self.self_deliveries
        return (concatenate_or_empty([t.origins for t in tables] + [own.origin]),
                concatenate_or_empty([t.items for t in tables] + [own.item]),
                concatenate_or_empty([t.final_dests for t in tables]
                                     + [own.final_dest]))

    def required_deliveries(self) -> Dict[Tuple[int, int, int], int]:
        """Multiset of ``(origin, item, final_dest)`` required by the pattern."""
        return self._columns_to_multiset(self._required_columns())

    def planned_deliveries(self) -> Dict[Tuple[int, int, int], int]:
        """Multiset of deliveries the plan performs (terminal phases only)."""
        return self._columns_to_multiset(self._planned_columns())

    @staticmethod
    def _columns_to_multiset(columns) -> Dict[Tuple[int, int, int], int]:
        origins, items, dests = columns
        if origins.size == 0:
            return {}
        group_of, (unique_origins, unique_items, unique_dests) = \
            _triple_groups(origins, items, dests)
        counts = np.bincount(group_of)
        return {key: int(count) for key, count in zip(
            zip(unique_origins.tolist(), unique_items.tolist(),
                unique_dests.tolist()), counts.tolist())}

    def _check_message_structure(self) -> None:
        """Vectorized endpoint-range and phase-locality checks."""
        n = self.pattern.n_ranks
        for phase, table in self.phases.items():
            if not table:
                continue
            srcs, dests = table.srcs, table.dests
            out_of_range = (srcs < 0) | (srcs >= n) | (dests < 0) | (dests >= n)
            if out_of_range.any():
                index = int(np.argmax(out_of_range))
                raise PlanError(
                    f"message endpoints ({int(srcs[index])}, {int(dests[index])}) "
                    "out of range"
                )
            same_region = self.mapping.same_region_many(srcs, dests)
            if phase is Phase.GLOBAL and same_region.any():
                index = int(np.argmax(same_region))
                raise PlanError(
                    f"inter-region phase message {int(srcs[index])}->"
                    f"{int(dests[index])} stays inside a region"
                )
            if phase in (Phase.LOCAL, Phase.SETUP_REDIST, Phase.FINAL_REDIST) \
                    and not same_region.all():
                index = int(np.argmax(~same_region))
                raise PlanError(
                    f"intra-region phase {phase.value} message "
                    f"{int(srcs[index])}->{int(dests[index])} crosses regions"
                )

    def validate(self) -> None:
        """Check the plan delivers exactly what the pattern requires.

        Raises :class:`PlanError` on missing, duplicated, or spurious
        deliveries, on messages whose endpoints are out of range, and on
        inter-region messages appearing in intra-region phases (and vice
        versa).  The delivery check is a single ``np.unique`` multiset
        comparison over the columnar slot tables.
        """
        self._check_message_structure()
        required = self._required_columns()
        delivered = self._planned_columns()
        # The pattern may list the same (origin, item, dest) more than once
        # (duplicate entries in a send list); a single delivery satisfies them.
        unique_rows, missing, spurious, duplicated = _multiset_compare(
            required, delivered)
        if missing.size:
            example = _example_rows(unique_rows, missing)
            raise PlanError(f"plan misses {missing.size} deliveries, e.g. {example}")
        if spurious.size:
            example = _example_rows(unique_rows, spurious)
            raise PlanError(
                f"plan performs {spurious.size} spurious deliveries, e.g. {example}")
        if duplicated.size:
            example = _example_rows(unique_rows, duplicated)
            raise PlanError(
                f"plan delivers {duplicated.size} items more than once, "
                f"e.g. {example}"
            )

    def describe(self) -> str:
        """One-line summary used by examples and reports."""
        phase_counts = ", ".join(
            f"{phase.value}:{len(msgs)}" for phase, msgs in sorted(
                self.phases.items(), key=lambda kv: kv[0].value)
            if msgs
        )
        return (f"{self.variant.value} plan: {self.n_messages} messages "
                f"({phase_counts or 'none'})")
