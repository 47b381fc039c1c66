"""Collective plans: the explicit message schedules of each variant.

A :class:`CollectivePlan` is the planner's output and the common input of

* the statistics used by Figures 8-10 (message counts / sizes per process),
* the performance models that time an iteration (Figures 7, 11-13), and
* the world compiler in :mod:`repro.collectives.exchange`, whose program
  the :class:`~repro.simmpi.engine.ExchangeEngine` runs.

Plans are explicit: every message of every phase lists the *slots*
``(origin, item, final_dest)`` it carries, so a plan can be validated against
the original pattern (every required delivery happens exactly once) without
executing anything.

A plan is only columns.  ``CollectivePlan.phases[phase]`` is one
:class:`PhaseTable`: the endpoint, slot and payload columns of every message
of the phase, exactly as the planner's sorts produced them, and the
self-deliveries are one :class:`SlotTable`.  Statistics, set-up costs,
validation and the world compiler read those columns;
:meth:`CollectivePlan.messages` cuts a read-only :class:`PlannedMessage`
record per message for callers that count messages one by one.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.pattern.comm_pattern import CommPattern
from repro.pattern.statistics import PatternStatistics
from repro.perfmodel.base import CostModel
from repro.topology.mapping import RankMapping
from repro.utils.arrays import (
    INDEX_DTYPE,
    concatenate_or_empty,
    freeze_columns,
    frozen_copy_on_write,
    lexsort_packed,
    run_starts_mask,
)
from repro.utils.errors import PlanError, ValidationError


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

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(
            f"variant must be one of {tuple(v.value for v in cls)}, "
            f"got {value!r}")


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

    Row ``k`` is value ``item[k]`` owned by ``origin[k]`` bound for
    ``final_dest[k]``; the table types ``CollectivePlan.self_deliveries``.
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

    @classmethod
    def _wrap(cls, origin: np.ndarray, item: np.ndarray,
              final_dest: np.ndarray) -> "SlotTable":
        """Trusted constructor: columns must already be parallel 1-D int64."""
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
        freeze_columns(*columns)
        return cls._wrap(*columns)

    def __len__(self) -> int:
        return int(self.origin.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotTable):
            return NotImplemented
        return (np.array_equal(self.origin, other.origin)
                and np.array_equal(self.item, other.item)
                and np.array_equal(self.final_dest, other.final_dest))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotTable(n={len(self)})"


class PlannedMessage(NamedTuple):
    """One message of a plan, as :meth:`CollectivePlan.messages` reports it.

    A read-only record cut from the phase columns on every call: endpoints,
    routing entries and packed payload size.  The plan stores no such record.
    """

    phase: Phase
    src: int
    dest: int
    #: Routing entries the message performs.
    n_slots: int
    #: Values physically transferred (fewer than ``n_slots`` when deduplicated).
    n_payload: int

    def payload_count(self) -> int:
        """Number of values physically transferred."""
        return self.n_payload


def _gathered(column: np.ndarray, key_ids: np.ndarray) -> np.ndarray:
    """``column[key_ids]``, read-only: a derived phase column."""
    values = column[key_ids]
    values.flags.writeable = False
    return values


class PhaseTable:
    """Every message of one phase, as read-only int64 columns of ids.

    Message ``k`` travels ``srcs[k] -> dests[k]`` and routes slots
    ``offsets[k]:offsets[k + 1]`` of the parallel ``slot_key_ids`` /
    ``final_dests`` columns.  Its packed payload is rows
    ``payload_offsets[k]:payload_offsets[k + 1]`` of ``payload_key_ids`` —
    the slot columns themselves unless the phase is deduplicated.  A key id
    names an ``(origin, item)`` pair: row ``id`` of the shared, read-only key
    table ``(key_holders, key_items)``, the pattern's
    :meth:`CommPattern.owned_keys` columns.  ``origins`` / ``items`` /
    ``payload_origins`` / ``payload_items`` are gathered through that table
    on every read; the table stores no ``(origin, item)`` column of its own.
    """

    __slots__ = ("phase", "srcs", "dests", "offsets", "slot_key_ids",
                 "final_dests", "payload_offsets", "payload_key_ids",
                 "key_holders", "key_items")

    #: Every column, in the order :meth:`__eq__` compares them.
    COLUMNS = ("srcs", "dests", "offsets", "origins", "items", "final_dests",
               "payload_offsets", "payload_origins", "payload_items",
               "payload_key_ids")

    def __init__(self, phase: Phase, srcs, dests, offsets, slot_key_ids,
                 final_dests, key_table, payload=None):
        """Trusted constructor: parallel 1-D int64 columns the caller gives up.

        ``key_table`` is ``(holders, items)``, shared, not copied;
        ``payload`` is ``(offsets, key_ids)`` of a deduplicated phase.
        """
        self.phase = phase
        self.srcs, self.dests, self.offsets = srcs, dests, offsets
        self.slot_key_ids, self.final_dests = slot_key_ids, final_dests
        self.payload_offsets, self.payload_key_ids = \
            payload or (offsets, slot_key_ids)
        self.key_holders, self.key_items = key_table
        freeze_columns(srcs, dests, offsets, slot_key_ids, final_dests,
                       *(payload or ()))

    @classmethod
    def empty(cls, phase: Phase) -> "PhaseTable":
        """A phase with no message."""
        zero = np.empty(0, dtype=INDEX_DTYPE)
        return cls(phase, zero, zero, np.zeros(1, dtype=INDEX_DTYPE), zero,
                   zero, (zero, zero))

    @property
    def origins(self) -> np.ndarray:
        """Holder of every slot's value, gathered from the key table."""
        return _gathered(self.key_holders, self.slot_key_ids)

    @property
    def items(self) -> np.ndarray:
        """Item id of every slot's value, gathered from the key table."""
        return _gathered(self.key_items, self.slot_key_ids)

    @property
    def payload_origins(self) -> np.ndarray:
        """Holder of every packed value, gathered from the key table."""
        return _gathered(self.key_holders, self.payload_key_ids)

    @property
    def payload_items(self) -> np.ndarray:
        """Item id of every packed value, gathered from the key table."""
        return _gathered(self.key_items, self.payload_key_ids)

    @property
    def slot_counts(self) -> np.ndarray:
        """Routing entries per message."""
        return np.diff(self.offsets)

    @property
    def payload_counts(self) -> np.ndarray:
        """Values physically packed per message."""
        return np.diff(self.payload_offsets)

    def __len__(self) -> int:
        return int(self.srcs.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseTable):
            return NotImplemented
        return self.phase is other.phase and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.COLUMNS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseTable({self.phase.value}, messages={len(self)})"


class Witness(NamedTuple):
    """The planner's proof that every value of its plan is held in time.

    A *receipt row* indexes the receive steps' payload rows, concatenated in
    the world compiler's schedule order
    (:func:`~repro.collectives.exchange.receipt_starts`).  Each entry names
    the receipt row that gives a holder its value, or is ``-1`` where the
    holder owns it.  The compiler checks every entry with one
    gather-and-compare pass per hop; a witness that fails anywhere proves
    nothing, and the plan goes to the hop-by-hop join.
    """

    #: Entry of every row of the pattern's unique edge table: the receipt
    #: that gives the row's destination its value.
    edges: np.ndarray
    #: Entry of every payload row of each forwarding phase (``g``, ``r``):
    #: the receipt that gives the message's sender the value it packs.
    hops: Dict[Phase, np.ndarray]


#: Column triple ``(origins, items, final_dests)`` — the multiset element layout.
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _multiset_compare(required: _Columns, delivered: _Columns):
    """Compare two delivery multisets (column triples) with one sort pass.

    Returns ``(unique_columns, missing_ids, spurious_ids, duplicated_ids)``
    where the id arrays index into ``unique_columns`` (one row per distinct
    triple, sorted lexicographically, so ids ascend in tuple order).
    """
    n_required = required[0].size
    origins, items, dests = (np.concatenate(pair)
                             for pair in zip(required, delivered))
    order = lexsort_packed(origins, items, dests)
    columns = (origins[order], items[order], dests[order])
    new_group = run_starts_mask(*columns)
    group_of = np.empty(order.size, dtype=INDEX_DTYPE)
    group_of[order] = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    required_counts = np.bincount(group_of[:n_required], minlength=starts.size)
    delivered_counts = np.bincount(group_of[n_required:], minlength=starts.size)
    missing = np.flatnonzero((required_counts > 0) & (delivered_counts == 0))
    spurious = np.flatnonzero((delivered_counts > 0) & (required_counts == 0))
    duplicated = np.flatnonzero(delivered_counts > 1)
    return (tuple(column[starts] for column in columns), missing, spurious,
            duplicated)


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
    #: One :class:`PhaseTable` per phase.
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
    #: equal tokens are interchangeable — a guarantee hand-assembled phase
    #: tables cannot make.
    cache_token: object = field(default=None, init=False, compare=False)
    #: The planner's :class:`Witness`: int32 receipt rows, 4 bytes per
    #: forwarded payload row and per unique edge row, from which the world
    #: compiler certifies every hop without a sort or a search.  ``None`` on
    #: hand-built plans; like the cache token it is no ``__init__`` field,
    #: so a ``dataclasses.replace`` copy has none and is checked by the
    #: hop-by-hop join.
    witness: object = field(default=None, init=False, compare=False,
                            repr=False)
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

    # -- iteration ------------------------------------------------------------

    def messages(self, phase: Phase | None = None) -> Iterator[PlannedMessage]:
        """Records of all messages, optionally restricted to one phase.

        Each record is cut from the columns on this call; none is kept.
        """
        for table in self._tables(phase):
            for row in zip(table.srcs.tolist(), table.dests.tolist(),
                           table.slot_counts.tolist(),
                           table.payload_counts.tolist()):
                yield PlannedMessage(table.phase, *row)

    def _tables(self, phase: Phase | None = None) -> List[PhaseTable]:
        if phase is None:
            return list(self.phases.values())
        return [self.phases[phase]] if phase in self.phases else []

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

    def global_payload_items(self) -> int:
        """Total number of values crossing region boundaries."""
        return int(self._global_payloads().sum())

    # -- modeled time (Figures 7, 11-13) --------------------------------------------

    def _phase_time(self, model: CostModel, phase: Phase) -> float:
        table = self.phases.get(phase) or PhaseTable.empty(phase)
        return model.phase_time(
            table.srcs, table.payload_counts * self.item_bytes,
            self.mapping.locality_codes(table.srcs, table.dests))

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

    def _check_message_structure(self) -> None:
        """Vectorized per-message checks over every phase table.

        Every message has two distinct endpoints in range, routes at least
        one slot, packs at least one value, and respects its phase's
        locality.
        """
        n = self.pattern.n_ranks
        for phase, table in self.phases.items():
            if not table:
                continue
            srcs, dests = table.srcs, table.dests
            self_addressed = srcs == dests
            if self_addressed.any():
                index = int(np.argmax(self_addressed))
                raise PlanError(
                    f"message with identical endpoints (rank {int(srcs[index])})")
            empty = table.slot_counts <= 0
            if empty.any():
                index = int(np.argmax(empty))
                raise PlanError(f"empty message {int(srcs[index])}->"
                                f"{int(dests[index])} in phase {phase}")
            if (table.payload_counts <= 0).any():
                raise PlanError("message carries no payload")
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
        deliveries, on self-addressed or empty messages, on messages whose
        endpoints are out of range, and on inter-region messages appearing in
        intra-region phases (and vice versa).  The delivery check is one
        lexsort multiset comparison over the phase and self-delivery columns.
        """
        self._check_message_structure()
        origins, dests, items = self.pattern.edge_arrays()
        required = (origins, items, dests)
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
