"""The seed's Slot-list planner, kept verbatim as a golden baseline.

The production planner (:mod:`repro.collectives.planner`) compiles patterns
into columnar :class:`~repro.collectives.plan.PhaseTable` plans.  This module
preserves the original per-slot implementation — one Python ``Slot`` NamedTuple
per routed item, dict-of-list grouping, per-slot statistics and validation —
so the golden-equivalence tests (``test_plan_equivalence.py``) can assert
that the columnar planner produces byte-identical phases, payload keys, and
statistics for every variant.

It is a test oracle, not library code.  Do not "optimise" it: its value is
being a faithful copy of the seed semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.collectives.aggregation import (
    AggregationAssignment,
    BalanceStrategy,
    setup_aggregation,
)
from repro.collectives.plan import Phase, Variant
from repro.pattern.comm_pattern import CommPattern
from repro.pattern.statistics import PatternStatistics
from repro.topology.mapping import RankMapping
from repro.utils.errors import PlanError


@dataclass
class RegionTraffic:
    """All inter-region traffic originating in one region, grouped by destination region.

    ``per_pair[dest_region]`` lists ``(src_rank, dest_rank, items)`` triples.
    """

    region: int
    per_pair: Dict[int, List[Tuple[int, int, np.ndarray]]] = field(default_factory=dict)

    def dest_regions(self) -> List[int]:
        """Destination regions with any traffic, sorted."""
        return sorted(self.per_pair.keys())

    def pair_items(self, dest_region: int) -> int:
        """Total item count (duplicates included) bound for ``dest_region``."""
        return sum(int(items.size) for _, _, items in self.per_pair.get(dest_region, []))


def collect_region_traffic(pattern: CommPattern, mapping: RankMapping
                           ) -> Dict[int, RegionTraffic]:
    """Group the inter-region edges of ``pattern`` by (source region, dest region).

    Region membership is resolved with one vectorized lookup over the per-edge
    endpoint arrays instead of two mapping queries per edge.
    """
    srcs, dests, item_arrays = pattern.edge_lists()
    traffic: Dict[int, RegionTraffic] = {}
    if srcs.size == 0:
        return traffic
    src_regions = mapping.region_of_many(srcs)
    dest_regions = mapping.region_of_many(dests)
    inter = (srcs != dests) & (src_regions != dest_regions)
    for index in np.flatnonzero(inter):
        src_region = int(src_regions[index])
        bucket = traffic.setdefault(src_region, RegionTraffic(region=src_region))
        bucket.per_pair.setdefault(int(dest_regions[index]), []).append(
            (int(srcs[index]), int(dests[index]), item_arrays[index]))
    return traffic


class Slot(NamedTuple):
    """One routed data item: value ``item`` owned by ``origin`` bound for ``final_dest``."""

    origin: int
    item: int
    final_dest: int


def reference_unique_payload_keys(slots: Sequence[Slot]) -> List[Tuple[int, int]]:
    """Seed deduplication: first-appearance dict loop over slot objects."""
    seen: Dict[Tuple[int, int], None] = {}
    for slot in slots:
        seen.setdefault((slot.origin, slot.item), None)
    return list(seen.keys())


@dataclass
class ReferenceMessage:
    """Seed ``PlannedMessage``: slot list plus explicit payload-key list."""

    phase: Phase
    src: int
    dest: int
    slots: List[Slot]
    payload_keys: List[Tuple[int, int]] = field(default=None)

    def __post_init__(self):
        if self.src == self.dest:
            raise PlanError(f"message with identical endpoints (rank {self.src})")
        if not self.slots:
            raise PlanError(f"empty message {self.src}->{self.dest} in phase {self.phase}")
        if self.payload_keys is None:
            self.payload_keys = [(slot.origin, slot.item) for slot in self.slots]
        if not self.payload_keys:
            raise PlanError("message carries no payload")

    def payload_count(self) -> int:
        return len(self.payload_keys)

    def nbytes(self, item_bytes: int) -> int:
        return self.payload_count() * item_bytes


@dataclass
class ReferencePlan:
    """Seed ``CollectivePlan``: dict-loop statistics and per-slot validation."""

    variant: Variant
    pattern: CommPattern
    mapping: RankMapping
    phases: Dict[Phase, List[ReferenceMessage]]
    self_deliveries: List[Slot] = field(default_factory=list)

    def messages(self, phase: Phase | None = None):
        if phase is not None:
            yield from self.phases.get(phase, [])
            return
        for messages in self.phases.values():
            yield from messages

    @property
    def item_bytes(self) -> int:
        return self.pattern.item_bytes

    @property
    def n_messages(self) -> int:
        return sum(len(msgs) for msgs in self.phases.values())

    def statistics(self) -> PatternStatistics:
        stats = PatternStatistics(n_ranks=self.pattern.n_ranks)
        for message in self.messages():
            is_local = self.mapping.same_region(message.src, message.dest)
            stats.add_message(message.src, is_local, message.nbytes(self.item_bytes))
        return stats

    def required_deliveries(self) -> Dict[Tuple[int, int, int], int]:
        required: Dict[Tuple[int, int, int], int] = {}
        for src, dest, items in self.pattern.edges():
            for item in items.tolist():
                key = (src, int(item), dest)
                required[key] = required.get(key, 0) + 1
        return required

    def planned_deliveries(self) -> Dict[Tuple[int, int, int], int]:
        terminal = {
            Variant.POINT_TO_POINT: (Phase.DIRECT,),
            Variant.STANDARD: (Phase.DIRECT,),
            Variant.PARTIAL: (Phase.LOCAL, Phase.FINAL_REDIST),
            Variant.FULL: (Phase.LOCAL, Phase.FINAL_REDIST),
        }[self.variant]
        delivered: Dict[Tuple[int, int, int], int] = {}
        for phase in terminal:
            for message in self.phases.get(phase, []):
                for slot in message.slots:
                    if slot.final_dest != message.dest:
                        raise PlanError(
                            f"terminal message {message.src}->{message.dest} carries a slot "
                            f"bound for rank {slot.final_dest}"
                        )
                    key = (slot.origin, slot.item, slot.final_dest)
                    delivered[key] = delivered.get(key, 0) + 1
        for slot in self.self_deliveries:
            key = (slot.origin, slot.item, slot.final_dest)
            delivered[key] = delivered.get(key, 0) + 1
        return delivered

    def validate(self) -> None:
        n = self.pattern.n_ranks
        for message in self.messages():
            if not (0 <= message.src < n and 0 <= message.dest < n):
                raise PlanError(
                    f"message endpoints ({message.src}, {message.dest}) out of range"
                )
            same_region = self.mapping.same_region(message.src, message.dest)
            if message.phase is Phase.GLOBAL and same_region:
                raise PlanError(
                    f"inter-region phase message {message.src}->{message.dest} stays "
                    "inside a region"
                )
            if message.phase in (Phase.LOCAL, Phase.SETUP_REDIST, Phase.FINAL_REDIST) \
                    and not same_region:
                raise PlanError(
                    f"intra-region phase {message.phase.value} message "
                    f"{message.src}->{message.dest} crosses regions"
                )
        required = self.required_deliveries()
        required_set = set(required)
        delivered = self.planned_deliveries()
        delivered_set = set(delivered)
        missing = required_set - delivered_set
        if missing:
            example = sorted(missing)[:3]
            raise PlanError(f"plan misses {len(missing)} deliveries, e.g. {example}")
        spurious = delivered_set - required_set
        if spurious:
            example = sorted(spurious)[:3]
            raise PlanError(f"plan performs {len(spurious)} spurious deliveries, e.g. {example}")
        duplicated = [key for key, count in delivered.items() if count > 1]
        if duplicated:
            raise PlanError(
                f"plan delivers {len(duplicated)} items more than once, "
                f"e.g. {sorted(duplicated)[:3]}"
            )


def _edge_slots(src: int, dest: int, items: np.ndarray) -> List[Slot]:
    """Slots of one pattern edge, with within-edge duplicates removed."""
    unique_items = np.unique(items)
    return [Slot(origin=src, item=int(item), final_dest=dest) for item in unique_items]


def reference_plan_standard(pattern: CommPattern, mapping: RankMapping, *,
                            variant: Variant = Variant.STANDARD) -> ReferencePlan:
    """Seed ``plan_standard``: one message per edge, per-slot accumulation."""
    if variant not in (Variant.STANDARD, Variant.POINT_TO_POINT):
        raise PlanError(f"plan_standard cannot build variant {variant}")
    direct: List[ReferenceMessage] = []
    self_deliveries: List[Slot] = []
    for src, dest, items in pattern.edges():
        slots = _edge_slots(src, dest, items)
        if src == dest:
            self_deliveries.extend(slots)
            continue
        direct.append(ReferenceMessage(phase=Phase.DIRECT, src=src, dest=dest,
                                       slots=slots))
    return ReferencePlan(variant=variant, pattern=pattern, mapping=mapping,
                         phases={Phase.DIRECT: direct},
                         self_deliveries=self_deliveries)


def reference_aggregated_plan(pattern: CommPattern, mapping: RankMapping, *,
                              deduplicate: bool,
                              strategy: BalanceStrategy,
                              assignment: AggregationAssignment | None = None
                              ) -> ReferencePlan:
    """Seed ``_aggregated_plan``: dict-of-list accumulation per phase."""
    variant = Variant.FULL if deduplicate else Variant.PARTIAL
    if assignment is None:
        assignment = setup_aggregation(pattern, mapping, strategy=strategy)
    traffic = collect_region_traffic(pattern, mapping)

    local: List[ReferenceMessage] = []
    self_deliveries: List[Slot] = []

    for src, dest, items in pattern.edges():
        if src != dest and not mapping.same_region(src, dest):
            continue
        slots = _edge_slots(src, dest, items)
        if src == dest:
            self_deliveries.extend(slots)
        else:
            local.append(ReferenceMessage(phase=Phase.LOCAL, src=src, dest=dest,
                                          slots=slots))

    setup_slots: Dict[Tuple[int, int], List[Slot]] = {}
    global_slots: Dict[Tuple[int, int], List[Slot]] = {}
    final_slots: Dict[Tuple[int, int], List[Slot]] = {}

    for src_region, region_traffic in sorted(traffic.items()):
        for dest_region in region_traffic.dest_regions():
            send_leader, recv_leader = assignment.leaders_for(src_region, dest_region)
            pair_slots: List[Slot] = []
            for src, dest, items in region_traffic.per_pair[dest_region]:
                pair_slots.extend(_edge_slots(src, dest, items))
            if not pair_slots:
                continue

            by_origin: Dict[int, List[Slot]] = {}
            for slot in pair_slots:
                by_origin.setdefault(slot.origin, []).append(slot)
            for origin in sorted(by_origin):
                if origin == send_leader:
                    continue
                setup_slots.setdefault((origin, send_leader), []).extend(by_origin[origin])

            if mapping.same_region(send_leader, recv_leader):
                raise PlanError(
                    f"leaders for region pair ({src_region}, {dest_region}) share a region"
                )
            global_slots.setdefault((send_leader, recv_leader), []).extend(pair_slots)

            by_dest: Dict[int, List[Slot]] = {}
            for slot in pair_slots:
                by_dest.setdefault(slot.final_dest, []).append(slot)
            for dest in sorted(by_dest):
                if dest == recv_leader:
                    self_deliveries.extend(by_dest[dest])
                    continue
                final_slots.setdefault((recv_leader, dest), []).extend(by_dest[dest])

    def build(phase: Phase, grouped: Dict[Tuple[int, int], List[Slot]]
              ) -> List[ReferenceMessage]:
        messages = []
        for (src, dest), slots in sorted(grouped.items()):
            payload = reference_unique_payload_keys(slots) if deduplicate else \
                [(slot.origin, slot.item) for slot in slots]
            messages.append(ReferenceMessage(phase=phase, src=src, dest=dest,
                                             slots=slots, payload_keys=payload))
        return messages

    phases = {
        Phase.LOCAL: local,
        Phase.SETUP_REDIST: build(Phase.SETUP_REDIST, setup_slots),
        Phase.GLOBAL: build(Phase.GLOBAL, global_slots),
        Phase.FINAL_REDIST: build(Phase.FINAL_REDIST, final_slots),
    }
    return ReferencePlan(variant=variant, pattern=pattern, mapping=mapping,
                         phases=phases, self_deliveries=self_deliveries)


def reference_make_plan(pattern: CommPattern, mapping: RankMapping,
                        variant: Variant | str, *,
                        strategy: BalanceStrategy = BalanceStrategy.BYTES,
                        assignment: AggregationAssignment | None = None
                        ) -> ReferencePlan:
    """Seed ``make_plan`` over the reference builders."""
    variant = Variant(variant)
    if variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        return reference_plan_standard(pattern, mapping, variant=variant)
    if variant is Variant.PARTIAL:
        return reference_aggregated_plan(pattern, mapping, deduplicate=False,
                                         strategy=strategy, assignment=assignment)
    if variant is Variant.FULL:
        return reference_aggregated_plan(pattern, mapping, deduplicate=True,
                                         strategy=strategy, assignment=assignment)
    raise PlanError(f"unknown variant {variant!r}")


def reference_all_plans(pattern: CommPattern, mapping: RankMapping, *,
                        strategy: BalanceStrategy = BalanceStrategy.BYTES
                        ) -> Dict[Variant, ReferencePlan]:
    """Seed ``all_plans``: every variant over one shared leader assignment."""
    assignment = setup_aggregation(pattern, mapping, strategy=strategy)
    return {
        variant: reference_make_plan(pattern, mapping, variant,
                                     strategy=strategy, assignment=assignment)
        for variant in (Variant.POINT_TO_POINT, Variant.STANDARD,
                        Variant.PARTIAL, Variant.FULL)
    }
