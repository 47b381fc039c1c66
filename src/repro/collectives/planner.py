"""Planners: from a communication pattern to a message schedule per variant.

``plan_standard`` reproduces Section 3.1 (one persistent message per neighbor,
regardless of locality).  ``plan_partial`` implements the three-step
locality-aware aggregation of Section 3.2, and ``plan_full`` adds the
duplicate-value removal of Section 3.3.  All planners are pure functions of the
pattern and the rank mapping, which is what lets the experiment harness compute
Figures 8-13 for thousands of simulated ranks without executing any
communication.

Planning is columnar end to end: the pattern's unique edge table (three
parallel int64 arrays plus the interned key of every row) is routed with one
sort per phase, and the sorted columns *are* the phase — a
:class:`~repro.collectives.plan.PhaseTable` keeps them and finds the message
runs by boundary detection, so planning cost scales with neither routed items
nor messages.  The slot-list implementation this replaced is preserved
verbatim as a test oracle (``tests/collectives/reference_planner.py``) and
pinned to this planner by the golden-equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.collectives.aggregation import (
    AggregationAssignment,
    BalanceStrategy,
    setup_aggregation,
)
from repro.collectives.dedup import unique_keys_segmented
from repro.collectives.plan import (
    AGGREGATED_PHASES,
    CollectivePlan,
    Phase,
    PhaseTable,
    SlotTable,
    Variant,
)
from repro.collectives import plan_cache
from repro.pattern.comm_pattern import CommPattern
from repro.topology.mapping import RankMapping, check_mapping_covers
from repro.utils.arrays import (
    INDEX_DTYPE,
    freeze_columns,
    lexsort_packed,
    run_starts_mask,
)
from repro.utils.errors import PlanError


def _self_delivery_table(origins: np.ndarray, items: np.ndarray,
                         dests: np.ndarray) -> SlotTable:
    """Wrap freshly-masked planner columns as a SlotTable without re-copying."""
    freeze_columns(origins, items, dests)
    return SlotTable._wrap(origins, items, dests)


def _phase_table(phase: Phase, srcs: np.ndarray, dests: np.ndarray,
                 final_dests: np.ndarray, keys: np.ndarray,
                 key_table, *, deduplicate: bool = False) -> PhaseTable:
    """One message per ``(src, dest)`` run of pre-sorted per-row endpoint columns.

    ``srcs``/``dests`` give every row's message endpoints and must be the
    primary sort keys of all the columns; ``keys`` are the rows' interned
    ``(origin, item)`` ids, rows of ``key_table`` (the pattern's
    ``(holders, items)`` key columns, shared by the table).  With
    ``deduplicate`` the payload unique of every message of the phase runs as
    one segmented sort.
    """
    starts = np.flatnonzero(run_starts_mask(srcs, dests))
    bounds = np.append(starts, srcs.size).astype(INDEX_DTYPE, copy=False)
    payload = None
    if deduplicate:
        firsts, payload_offsets = unique_keys_segmented(bounds, keys)
        payload = (payload_offsets, keys[firsts])
    return PhaseTable(phase, srcs[starts], dests[starts], bounds, keys,
                      final_dests, key_table, payload)


def plan_standard(pattern: CommPattern, mapping: RankMapping, *,
                  variant: Variant = Variant.STANDARD) -> CollectivePlan:
    """One direct message per (source, destination) pair — Algorithms 1-3."""
    if variant not in (Variant.STANDARD, Variant.POINT_TO_POINT):
        raise PlanError(f"plan_standard cannot build variant {variant}")
    origins, dests, items = pattern.unique_edge_table()
    key_holders, key_items, keys = pattern.owned_keys()
    self_mask = origins == dests
    self_deliveries = _self_delivery_table(origins[self_mask], items[self_mask],
                                           dests[self_mask])
    # Without a self-edge the direct phase is the pattern's own read-only
    # columns, shared rather than copied.
    if len(self_deliveries):
        keep = ~self_mask
        origins, dests, keys = origins[keep], dests[keep], keys[keep]
    direct = _phase_table(Phase.DIRECT, origins, dests, dests, keys,
                          (key_holders, key_items))
    return CollectivePlan(variant=variant, pattern=pattern, mapping=mapping,
                          phases={Phase.DIRECT: direct},
                          self_deliveries=self_deliveries)


def _aggregated_plan(pattern: CommPattern, mapping: RankMapping, *,
                     deduplicate: bool,
                     strategy: BalanceStrategy,
                     assignment: AggregationAssignment | None = None) -> CollectivePlan:
    variant = Variant.FULL if deduplicate else Variant.PARTIAL
    if assignment is None:
        assignment = setup_aggregation(pattern, mapping, strategy=strategy)

    origins, dests, items = pattern.unique_edge_table()
    key_holders, key_items, keys = pattern.owned_keys()
    key_table = (key_holders, key_items)
    regions = mapping.regions_array()
    origin_regions = mapping.region_of_many(origins)
    dest_region_ids = mapping.region_of_many(dests)
    self_mask = origins == dests
    same_region = origin_regions == dest_region_ids

    # Phase l: messages that never leave the region go directly to their
    # destination, exactly as in the standard plan; self-edges are satisfied
    # without any message.
    self_parts: List[SlotTable] = [
        _self_delivery_table(origins[self_mask], items[self_mask],
                             dests[self_mask])]
    local_mask = same_region & ~self_mask
    local_origins, local_dests = origins[local_mask], dests[local_mask]
    local = _phase_table(Phase.LOCAL, local_origins, local_dests, local_dests,
                         keys[local_mask], key_table)
    # Each per-row column is released after its last reader: the planner's
    # transient peak is the high-water mark of a collective's set-up.
    del self_mask, local_mask, local_origins, local_dests

    # Inter-region traffic: the three aggregated phases.  The leaders of each
    # (source region, destination region) pair fan out to per-row arrays, and
    # each phase is then a single packed-key sort + boundary grouping:
    #
    # * phase s groups by (origin, send leader), skipping rows the leader
    #   already holds,
    # * phase g groups by the leader pair (one aggregated message per region
    #   pair), and
    # * phase r groups by (receive leader, final destination); rows whose
    #   destination *is* the receive leader become self-deliveries.
    #
    # Messages sharing endpoints within a phase merge automatically (one
    # buffer per pair of ranks per phase), which is what a real implementation
    # posts.
    phases = {phase: PhaseTable.empty(phase) for phase in AGGREGATED_PHASES}
    phases[Phase.LOCAL] = local

    inter_mask = ~same_region
    if inter_mask.any():
        row_origins = origins[inter_mask]
        row_dests = dests[inter_mask]
        row_keys = keys[inter_mask]
        row_src_regions = origin_regions[inter_mask]
        row_dest_regions = dest_region_ids[inter_mask]
        del origin_regions, dest_region_ids, same_region, inter_mask

        # Per-row leaders read off the assignment's dense (src_region,
        # dest_region) tables — no pre-sort by region pair needed.
        row_send = assignment.send[row_src_regions, row_dest_regions]
        row_recv = assignment.recv[row_src_regions, row_dest_regions]
        unassigned = (row_send < 0) | (row_recv < 0)
        if unassigned.any():
            index = int(np.argmax(unassigned))
            key = (int(row_src_regions[index]), int(row_dest_regions[index]))
            raise PlanError(f"no aggregation leaders assigned for region pair {key}")
        shared = regions[row_send] == regions[row_recv]
        if shared.any():
            index = int(np.argmax(shared))
            raise PlanError(
                f"leaders for region pair ({int(row_src_regions[index])}, "
                f"{int(row_dest_regions[index])}) share a region"
            )
        del unassigned, shared

        # The rows arrive sorted by (origin, dest, item) and every sort below
        # is stable, so each names only the keys ahead of that order (phases
        # g and r leave out the origin, which leads it).

        # Phase s: every rank forwards its contribution to the send leader.
        # Sorting with the skip flag as the most significant key puts the
        # leader's own rows last, so the forwarded block is one slice.
        skip = row_origins == row_send
        order = lexsort_packed(skip, row_origins, row_send, row_dest_regions)
        selection = order[:order.size - int(np.count_nonzero(skip))]
        phases[Phase.SETUP_REDIST] = _phase_table(
            Phase.SETUP_REDIST, row_origins[selection], row_send[selection],
            row_dests[selection], row_keys[selection], key_table,
            deduplicate=deduplicate)
        del skip, order, selection

        # Phase g: one aggregated message between the leaders of each pair.
        order = lexsort_packed(row_send, row_recv)
        phases[Phase.GLOBAL] = _phase_table(
            Phase.GLOBAL, row_send[order], row_recv[order], row_dests[order],
            row_keys[order], key_table, deduplicate=deduplicate)
        del order, row_send

        # Phase r: the receive leader forwards to final destinations.  The
        # few rows it keeps for itself (no message) sort on their own; the
        # flag trick puts them last in the forwarding sort.  Not deduplicated:
        # a message has one destination and the edge rows are distinct.
        keep_self = row_dests == row_recv
        kept = np.flatnonzero(keep_self)
        if kept.size:
            kept = kept[lexsort_packed(row_src_regions[kept],
                                       row_dest_regions[kept], row_dests[kept])]
            self_parts.append(_self_delivery_table(
                row_origins[kept], key_items[row_keys[kept]], row_dests[kept]))
        order = lexsort_packed(keep_self, row_recv, row_dests,
                               row_src_regions)
        selection = order[:order.size - kept.size]
        final_dests = row_dests[selection]
        phases[Phase.FINAL_REDIST] = _phase_table(
            Phase.FINAL_REDIST, row_recv[selection], final_dests, final_dests,
            row_keys[selection], key_table)

    return CollectivePlan(variant=variant, pattern=pattern, mapping=mapping,
                          phases=phases,
                          self_deliveries=SlotTable.concat(self_parts),
                          strategy=strategy)


def plan_partial(pattern: CommPattern, mapping: RankMapping, *,
                 strategy: BalanceStrategy = BalanceStrategy.BYTES,
                 assignment: AggregationAssignment | None = None) -> CollectivePlan:
    """Three-step locality-aware aggregation without duplicate removal (Section 3.2)."""
    return _aggregated_plan(pattern, mapping, deduplicate=False, strategy=strategy,
                            assignment=assignment)


def plan_full(pattern: CommPattern, mapping: RankMapping, *,
              strategy: BalanceStrategy = BalanceStrategy.BYTES,
              assignment: AggregationAssignment | None = None) -> CollectivePlan:
    """Aggregation plus duplicate-value removal via the index extension (Section 3.3)."""
    return _aggregated_plan(pattern, mapping, deduplicate=True, strategy=strategy,
                            assignment=assignment)


_ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                 Variant.PARTIAL, Variant.FULL)


def _plan_and_store(pattern: CommPattern, mapping: RankMapping,
                    variant: Variant, strategy: BalanceStrategy,
                    assignment: AggregationAssignment | None = None
                    ) -> CollectivePlan:
    """Cold-build the plan of ``variant``, stamp its cache token, cache it."""
    if variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        plan = plan_standard(pattern, mapping, variant=variant)
    else:
        plan = _aggregated_plan(pattern, mapping, strategy=strategy,
                                deduplicate=variant is Variant.FULL,
                                assignment=assignment)
    plan.cache_token = plan_cache.plan_key(pattern, mapping, variant, strategy)
    plan_cache.store_plan(plan)
    return plan


def make_plan(pattern: CommPattern, mapping: RankMapping, variant: Variant | str, *,
              strategy: BalanceStrategy = BalanceStrategy.BYTES,
              use_cache: bool = True) -> CollectivePlan:
    """Dispatch to the planner for ``variant``.

    Results are served from the content-addressed plan cache when possible
    (see :mod:`repro.collectives.plan_cache`): planning is deterministic in
    ``(pattern, mapping, variant, strategy)``, so a hit is the same plan a
    cold build would produce.  Pass ``use_cache=False`` to force a cold
    build (the cold plan is still stored for later callers).  A mapping
    that places fewer ranks than the pattern spans raises
    :class:`ValidationError` up front, for every variant.
    """
    variant = Variant(variant)
    check_mapping_covers(mapping, pattern.n_ranks)
    if use_cache:
        cached = plan_cache.fetch_plan(pattern, mapping, variant, strategy)
        if cached is not None:
            return cached
    return _plan_and_store(pattern, mapping, variant, strategy)


def all_plans(pattern: CommPattern, mapping: RankMapping, *,
              strategy: BalanceStrategy = BalanceStrategy.BYTES,
              use_cache: bool = True) -> Dict[Variant, CollectivePlan]:
    """Plans for every variant, sharing one aggregation assignment.

    Sharing the assignment mirrors the paper's note that the partially
    optimized implementation "simply wraps" the fully optimized one, and keeps
    the partial/full comparison (Figure 10) apples-to-apples.  Variants
    already in the plan cache are served from it — ``setup_aggregation`` is
    deterministic in ``(pattern, mapping, strategy)``, so a shared and a
    per-plan assignment produce the same plan and may share cache entries.
    The aggregation setup only runs when an aggregated variant misses.
    """
    check_mapping_covers(mapping, pattern.n_ranks)
    plans: Dict[Variant, CollectivePlan] = {}
    assignment = None
    for variant in _ALL_VARIANTS:
        plan = plan_cache.fetch_plan(pattern, mapping, variant, strategy) \
            if use_cache else None
        if plan is None:
            if variant in (Variant.PARTIAL, Variant.FULL) and assignment is None:
                assignment = setup_aggregation(pattern, mapping,
                                               strategy=strategy)
            plan = _plan_and_store(pattern, mapping, variant, strategy,
                                   assignment)
        plans[variant] = plan
    return plans
