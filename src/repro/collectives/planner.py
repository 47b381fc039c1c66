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
from repro.topology.mapping import RankMapping
from repro.utils.arrays import (
    INDEX_DTYPE,
    argsort_packed,
    counts_to_displs,
    freeze_columns,
    run_starts_mask,
)
from repro.utils.errors import PlanError


def _self_delivery_table(origins: np.ndarray, items: np.ndarray,
                         dests: np.ndarray) -> SlotTable:
    """Wrap freshly-masked planner columns as a SlotTable without re-copying."""
    freeze_columns(origins, items, dests)
    return SlotTable._wrap(origins, items, dests)


def _phase_table(phase: Phase, srcs: np.ndarray, dests: np.ndarray,
                 origins: np.ndarray, items: np.ndarray,
                 final_dests: np.ndarray, keys: np.ndarray, *,
                 dedup_keys: int | None = None) -> PhaseTable:
    """One message per ``(src, dest)`` run of pre-sorted per-row endpoint columns.

    ``srcs``/``dests`` give every row's message endpoints and must be the
    primary sort keys of all the columns; ``keys`` are the rows' interned
    ``(origin, item)`` ids.  With ``dedup_keys`` (the pattern's key count) the
    payload unique of every message of the phase runs as one segmented sort.
    """
    starts = np.flatnonzero(run_starts_mask(srcs, dests))
    bounds = np.append(starts, srcs.size).astype(INDEX_DTYPE, copy=False)
    payload = None
    if dedup_keys is not None:
        n_messages = starts.size
        segments = np.repeat(np.arange(n_messages, dtype=INDEX_DTYPE),
                             np.diff(bounds))
        firsts, counts = unique_keys_segmented(segments, keys, dedup_keys,
                                               n_messages)
        payload = (counts_to_displs(counts), origins[firsts], items[firsts])
        keys = keys[firsts]
    return PhaseTable(phase, srcs[starts], dests[starts], bounds, origins,
                      items, final_dests, payload, keys)


def plan_standard(pattern: CommPattern, mapping: RankMapping, *,
                  variant: Variant = Variant.STANDARD) -> CollectivePlan:
    """One direct message per (source, destination) pair — Algorithms 1-3."""
    if variant not in (Variant.STANDARD, Variant.POINT_TO_POINT):
        raise PlanError(f"plan_standard cannot build variant {variant}")
    origins, dests, items = pattern.unique_edge_table()
    keys = pattern.owned_keys()[2]
    self_mask = origins == dests
    self_deliveries = _self_delivery_table(origins[self_mask], items[self_mask],
                                           dests[self_mask])
    keep = ~self_mask
    origins, dests, items = origins[keep], dests[keep], items[keep]
    direct = _phase_table(Phase.DIRECT, origins, dests,
                          origins, items, dests, keys[keep])
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
    owned_holders, _, keys = pattern.owned_keys()
    dedup_keys = int(owned_holders.size) if deduplicate else None
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
    local = _phase_table(Phase.LOCAL, local_origins, local_dests, local_origins,
                         items[local_mask], local_dests, keys[local_mask])

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
    phases: Dict[Phase, PhaseTable | tuple] = dict.fromkeys(AGGREGATED_PHASES, ())
    phases[Phase.LOCAL] = local

    inter_mask = ~same_region
    if inter_mask.any():
        row_origins = origins[inter_mask]
        row_dests = dests[inter_mask]
        row_items = items[inter_mask]
        row_keys = keys[inter_mask]
        row_src_regions = origin_regions[inter_mask]
        row_dest_regions = dest_region_ids[inter_mask]

        # Per-row leaders via dense (src_region, dest_region) lookup tables —
        # no pre-sort by region pair needed.
        n_regions = mapping.n_regions

        def row_leaders(leader_of_pair) -> np.ndarray:
            table = np.full((n_regions, n_regions), -1, dtype=INDEX_DTYPE)
            for (src_region, dest_region), rank in leader_of_pair.items():
                table[src_region, dest_region] = rank
            return table[row_src_regions, row_dest_regions]

        row_send = row_leaders(assignment.send_leader)
        row_recv = row_leaders(assignment.recv_leader)
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

        # The rows arrive sorted by (origin, dest, item) and every sort below
        # is stable, so each names only the keys ahead of that tail: ties
        # share an origin (and in phase r a dest) and keep their input order.
        n_ranks = mapping.n_ranks

        # Phase s: every rank forwards its contribution to the send leader.
        # Sorting with the skip flag as the most significant key puts the
        # leader's own rows last, so the forwarded block is one slice.
        skip = row_origins == row_send
        order = argsort_packed(
            (skip, row_origins, row_send, row_dest_regions),
            (2, n_ranks, n_ranks, n_regions))
        selection = order[:order.size - int(np.count_nonzero(skip))]
        setup_origins = row_origins[selection]
        phases[Phase.SETUP_REDIST] = _phase_table(
            Phase.SETUP_REDIST, setup_origins, row_send[selection],
            setup_origins, row_items[selection], row_dests[selection],
            row_keys[selection], dedup_keys=dedup_keys)

        # Phase g: one aggregated message between the leaders of each pair.
        order = argsort_packed((row_send, row_recv, row_origins),
                               (n_ranks, n_ranks, n_ranks))
        phases[Phase.GLOBAL] = _phase_table(
            Phase.GLOBAL, row_send[order], row_recv[order],
            row_origins[order], row_items[order], row_dests[order],
            row_keys[order], dedup_keys=dedup_keys)

        # Phase r: the receive leader forwards to final destinations; rows it
        # keeps for itself are satisfied without a message (same flag trick,
        # self-kept rows sorted into the tail in self-delivery order).
        keep_self = row_dests == row_recv
        n_kept = int(np.count_nonzero(keep_self))
        if n_kept:
            order = argsort_packed(
                (keep_self, row_src_regions, row_dest_regions, row_dests,
                 row_origins),
                (2, n_regions, n_regions, n_ranks, n_ranks))
            selection = order[order.size - n_kept:]
            self_parts.append(_self_delivery_table(row_origins[selection],
                                                   row_items[selection],
                                                   row_dests[selection]))
        order = argsort_packed(
            (keep_self, row_recv, row_dests, row_src_regions, row_origins),
            (2, n_ranks, n_ranks, n_regions, n_ranks))
        selection = order[:order.size - n_kept]
        final_dests = row_dests[selection]
        phases[Phase.FINAL_REDIST] = _phase_table(
            Phase.FINAL_REDIST, row_recv[selection], final_dests,
            row_origins[selection], row_items[selection], final_dests,
            row_keys[selection], dedup_keys=dedup_keys)

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
    build (the cold plan is still stored for later callers).
    """
    variant = Variant(variant)
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
