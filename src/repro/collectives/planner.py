"""Planners: from a communication pattern to a message schedule per variant.

``plan_standard`` reproduces Section 3.1 (one persistent message per neighbor,
regardless of locality).  ``plan_partial`` implements the three-step
locality-aware aggregation of Section 3.2, and ``plan_full`` adds the
duplicate-value removal of Section 3.3.  All planners are pure functions of the
pattern and the rank mapping, which is what lets the experiment harness compute
Figures 8-13 for thousands of simulated ranks without executing any
communication.

Planning is columnar end to end.  The pattern's unique edge table (three
parallel int64 arrays plus the interned key of every row) is sorted by
``(origin, dest, item)``, so each edge of the pattern — one standard-scheme
message — is one run of its rows, and every key an aggregated phase routes
or orders by is constant over a run.  Each of those phases is therefore one
stable sort of the edges, expanded to the edges' rows once, and the
expanded columns *are* the phase: a
:class:`~repro.collectives.plan.PhaseTable` keeps them, with the message
runs found by boundary detection on the sorted edges.  The direct phase of
``plan_standard`` is the table's own rows.  The number of numpy calls grows
with neither routed items nor messages, and the phase sorts grow with the
edges, not the rows.  The slot-list implementation this replaced is
preserved verbatim as a test oracle (``tests/collectives/reference_planner.py``)
and pinned to this planner by the golden-equivalence tests.

Every plan leaves with a :class:`~repro.collectives.plan.Witness`: the
receipt that gives each holder the value it forwards or keeps, read off
what the planner already holds (each phase's rows of the edge table, and
:func:`~repro.collectives.dedup.unique_keys_segmented`'s payload row of
every row).  The world compiler certifies the plan from it without sorting
or searching anything; the witness only speeds that check up and never
decides it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.collectives.aggregation import (
    AggregationAssignment,
    BalanceStrategy,
    setup_aggregation,
)
from repro.collectives.dedup import unique_keys_segmented
from repro.collectives.exchange import receipt_starts
from repro.collectives.plan import (
    AGGREGATED_PHASES,
    CollectivePlan,
    Phase,
    PhaseTable,
    SlotTable,
    Variant,
    Witness,
)
from repro.collectives import plan_cache
from repro.pattern.comm_pattern import CommPattern
from repro.topology.mapping import RankMapping, check_mapping_covers
from repro.utils.arrays import (
    INDEX_DTYPE,
    expand_ranges,
    freeze_columns,
    lexsort_packed,
    run_starts_mask,
)
from repro.utils.errors import PlanError

#: Dtype of a witness row: 4 bytes per forwarded payload row and edge row.
WITNESS_DTYPE = np.int32


def _self_delivery_table(origins: np.ndarray, items: np.ndarray,
                         dests: np.ndarray) -> SlotTable:
    """Wrap freshly-masked planner columns as a SlotTable without re-copying."""
    freeze_columns(origins, items, dests)
    return SlotTable._wrap(origins, items, dests)


def _phase_table(phase: Phase, srcs: np.ndarray, dests: np.ndarray,
                 final_dests: np.ndarray, keys: np.ndarray,
                 key_table) -> PhaseTable:
    """One message per ``(src, dest)`` run of pre-sorted per-row endpoint columns.

    ``srcs``/``dests`` give every row's message endpoints and must be the
    primary sort keys of all the columns; ``keys`` are the rows' interned
    ``(origin, item)`` ids, rows of ``key_table`` (the pattern's
    ``(holders, items)`` key columns, shared by the table).
    """
    starts = np.flatnonzero(run_starts_mask(srcs, dests))
    bounds = np.append(starts, srcs.size).astype(INDEX_DTYPE, copy=False)
    return PhaseTable(phase, srcs[starts], dests[starts], bounds, keys,
                      final_dests, key_table)


def _payload_rows(rows, size: int) -> np.ndarray:
    """Each of ``size`` rows' payload row: ``rows``, or the row itself when
    ``rows`` is ``None`` (the rows are the payload)."""
    return np.arange(size, dtype=INDEX_DTYPE) if rows is None else rows


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
    plan = CollectivePlan(variant=variant, pattern=pattern, mapping=mapping,
                          phases={Phase.DIRECT: direct},
                          self_deliveries=self_deliveries)
    # The direct phase's payload rows are the edge rows without the
    # self-edges, which their destinations own.
    edges = np.arange(self_mask.size, dtype=WITNESS_DTYPE)
    if len(self_deliveries):
        edges -= np.cumsum(self_mask, dtype=WITNESS_DTYPE)
        edges[self_mask] = -1
    plan.witness = _frozen_witness(edges, {})
    return plan


def _frozen_witness(edges: np.ndarray, hops) -> Witness:
    """A read-only :class:`Witness` of ``edges`` and ``hops``."""
    freeze_columns(edges, *hops.values())
    return Witness(edges, hops)


class _EdgeRuns(NamedTuple):
    """A pattern's unique edge table, cut into its edges.

    The table is sorted by ``(origin, dest, item)``, so edge ``e`` is one
    run of rows, ``offsets[e]:offsets[e] + lengths[e]``, never empty
    (:meth:`CommPattern.unique_edge_offsets`); every phase key is constant
    over it, so a phase orders edges and expands them to rows once.
    """

    origins: np.ndarray
    dests: np.ndarray
    items: np.ndarray
    #: Every row's interned ``(origin, item)`` id.
    keys: np.ndarray
    #: The ids' ``(holders, items)`` columns, shared by every phase table.
    key_table: Tuple[np.ndarray, np.ndarray]
    offsets: np.ndarray
    lengths: np.ndarray


def _run_rows(table: _EdgeRuns, runs: np.ndarray):
    """The rows of the edges ``runs``, in that order, and where each edge's
    rows begin among them.  Where every edge is one row, the rows are the
    edges themselves."""
    if table.lengths.size == table.origins.size:
        return runs, np.arange(runs.size + 1, dtype=INDEX_DTYPE)
    return expand_ranges(table.offsets[runs], table.lengths[runs])


def _run_phase(phase: Phase, srcs: np.ndarray, dests: np.ndarray,
               runs: np.ndarray, table: _EdgeRuns, *, spans_by=None):
    """One message per ``(src, dest)`` run of the edges ``runs``.

    ``srcs`` / ``dests`` are the edges' message endpoints, parallel to
    ``runs`` and sorted so each message's edges are adjacent.  With
    ``spans_by`` (a tuple of per-edge columns, possibly empty) the phase is
    deduplicated: a key repeats only within a span, the edges of one
    message that agree on those columns, and only spans of two or more
    edges are sorted (:func:`~repro.collectives.dedup.unique_keys_segmented`).
    Returns the :class:`PhaseTable`, its rows of the edge table and every
    row's payload row (``None`` when the rows are the payload).
    """
    rows, run_bounds = _run_rows(table, runs)
    starts_mask = run_starts_mask(srcs, dests)
    starts = starts_mask.nonzero()[0]
    bounds = np.concatenate((run_bounds[starts], run_bounds[-1:]))
    srcs, dests = srcs[starts], dests[starts]
    keys = table.keys[rows]
    payload = payload_rows = None
    if spans_by is not None:
        for column in spans_by:
            starts_mask |= run_starts_mask(column)
        cuts = np.append(starts_mask.nonzero()[0], runs.size)
        several = np.diff(cuts) > 1
        spans = (run_bounds[cuts[:-1][several]], run_bounds[cuts[1:][several]])
        firsts, payload_offsets, payload_rows = unique_keys_segmented(
            bounds, keys, spans)
        payload = (payload_offsets, keys[firsts])
    return PhaseTable(phase, srcs, dests, bounds, keys, table.dests[rows],
                      table.key_table, payload), rows, payload_rows


def _run_self_deliveries(table: _EdgeRuns, runs: np.ndarray) -> SlotTable:
    """The self-delivery table of the edges ``runs``' rows, in that order."""
    rows = _run_rows(table, runs)[0]
    return _self_delivery_table(table.origins[rows], table.items[rows],
                                table.dests[rows])


def _aggregated_plan(pattern: CommPattern, mapping: RankMapping, *,
                     deduplicate: bool,
                     strategy: BalanceStrategy,
                     assignment: AggregationAssignment | None = None) -> CollectivePlan:
    variant = Variant.FULL if deduplicate else Variant.PARTIAL
    if assignment is None:
        assignment = setup_aggregation(pattern, mapping, strategy=strategy)

    # Every phase is planned on the pattern's edges (see _EdgeRuns).
    offsets = pattern.unique_edge_offsets()
    key_holders, key_items, keys = pattern.owned_keys()
    table = _EdgeRuns(*pattern.unique_edge_table(), keys,
                      (key_holders, key_items), offsets,
                      offsets[1:] - offsets[:-1])
    edge_origins, edge_dests = pattern.edge_sources(), pattern.csr()[1]
    src_regions = mapping.region_of_many(edge_origins)
    dest_regions = mapping.region_of_many(edge_dests)
    same_region = src_regions == dest_regions
    self_edges = edge_origins == edge_dests

    # Phase l: messages that never leave the region go directly to their
    # destination, exactly as in the standard plan; self-edges are satisfied
    # without any message.
    self_parts: List[SlotTable] = []
    if self_edges.any():
        self_parts.append(_run_self_deliveries(table,
                                               np.flatnonzero(self_edges)))
    local = np.flatnonzero(same_region & ~self_edges)
    phases: Dict[Phase, PhaseTable] = {}
    phases[Phase.LOCAL], local_rows, _ = _run_phase(
        Phase.LOCAL, edge_origins[local], edge_dests[local], local, table)

    # Inter-region traffic: the three aggregated phases.  The leaders of each
    # (source region, destination region) pair fan out to the edges, and each
    # phase is then a single packed-key sort of the edges + boundary grouping:
    #
    # * phase s groups by (origin, send leader), skipping edges the leader
    #   already holds,
    # * phase g groups by the leader pair (one aggregated message per region
    #   pair), and
    # * phase r groups by (receive leader, final destination); edges whose
    #   destination *is* the receive leader become self-deliveries.
    #
    # Messages sharing endpoints within a phase merge automatically (one
    # buffer per pair of ranks per phase), which is what a real implementation
    # posts.
    #
    # The witness (see Witness) is built from the phases' rows and dedup
    # groups, relative to the first receipt row of the phase it names until
    # every phase is sized: ``sender_rows`` is each phase-g payload row's
    # phase-s payload row (-1 where the send leader is the origin) and
    # ``global_rows`` each phase-g row's payload row.
    inter = np.flatnonzero(~same_region)
    inter_rows = sender_rows = global_rows = final_rows = None
    if inter.size:
        inter_origins, inter_dests = edge_origins[inter], edge_dests[inter]
        inter_src_regions = src_regions[inter]
        inter_dest_regions = dest_regions[inter]

        # Edge leaders read off the assignment's dense (src_region,
        # dest_region) tables — no pre-sort by region pair needed.  The
        # first offending edge holds the first offending row.
        send = assignment.send[inter_src_regions, inter_dest_regions]
        recv = assignment.recv[inter_src_regions, inter_dest_regions]
        unassigned = (send < 0) | (recv < 0)
        if unassigned.any():
            index = int(np.argmax(unassigned))
            key = (int(inter_src_regions[index]),
                   int(inter_dest_regions[index]))
            raise PlanError(f"no aggregation leaders assigned for region pair {key}")
        regions = mapping.regions_array()
        shared = regions[send] == regions[recv]
        if shared.any():
            index = int(np.argmax(shared))
            raise PlanError(
                f"leaders for region pair ({int(inter_src_regions[index])}, "
                f"{int(inter_dest_regions[index])}) share a region"
            )

        # The edges arrive sorted by (origin, dest) and every sort below is
        # stable, so each names only the keys ahead of that order (phases g
        # and r leave out the origin, which leads it).

        # Phase s: every rank forwards its contribution to the send leader.
        # Sorting with the skip flag as the most significant key puts the
        # leader's own edges last, so the forwarded block is one slice.  A
        # message has one origin, so any two of its edges may share a key.
        skip = inter_origins == send
        order = lexsort_packed(skip, inter_origins, send, inter_dest_regions)
        forward = order[:order.size - int(np.count_nonzero(skip))]
        phases[Phase.SETUP_REDIST], rows, payload_rows = _run_phase(
            Phase.SETUP_REDIST, inter_origins[forward], send[forward],
            inter[forward], table, spans_by=() if deduplicate else None)
        setup_rows = np.full(keys.size, -1, dtype=WITNESS_DTYPE)
        setup_rows[rows] = _payload_rows(payload_rows, rows.size)
        # The per-row columns are released after their last reader: the
        # planner's transient peak is the high-water mark of a set-up.
        del rows, payload_rows

        # Phase g: one aggregated message between the leaders of each pair.
        # A message holds each origin's edges next to each other, and a key
        # names its origin, so a key repeats only within them.  A payload
        # row's rows share its key and send leader, so they share the
        # phase-s row that brought the key to the leader.
        order = lexsort_packed(send, recv)
        phases[Phase.GLOBAL], inter_rows, global_rows = _run_phase(
            Phase.GLOBAL, send[order], recv[order], inter[order], table,
            spans_by=(inter_origins[order],) if deduplicate else None)
        global_rows = _payload_rows(global_rows, inter_rows.size)
        sender_rows = np.empty(phases[Phase.GLOBAL].payload_key_ids.size,
                               dtype=WITNESS_DTYPE)
        sender_rows[global_rows] = setup_rows[inter_rows]
        del setup_rows

        # Phase r: the receive leader forwards to final destinations.  The
        # few edges it keeps for itself (no message) sort on their own; the
        # flag trick puts them last in the forwarding sort.  Not
        # deduplicated: a message has one destination and the edge rows are
        # distinct.
        keep_self = inter_dests == recv
        kept = np.flatnonzero(keep_self)
        if kept.size:
            kept = kept[lexsort_packed(inter_src_regions[kept],
                                       inter_dest_regions[kept],
                                       inter_dests[kept])]
            self_parts.append(_run_self_deliveries(table, inter[kept]))
        order = lexsort_packed(keep_self, recv, inter_dests, inter_src_regions)
        forward = order[:order.size - kept.size]
        phases[Phase.FINAL_REDIST], final_rows, _ = _run_phase(
            Phase.FINAL_REDIST, recv[forward], inter_dests[forward],
            inter[forward], table)

    phases = {phase: phases[phase] if phase in phases
              else PhaseTable.empty(phase) for phase in AGGREGATED_PHASES}
    plan = CollectivePlan(variant=variant, pattern=pattern, mapping=mapping,
                          phases=phases,
                          self_deliveries=SlotTable.concat(self_parts),
                          strategy=strategy)
    plan.witness = _aggregated_witness(variant, phases, keys.size,
                                       local_rows, sender_rows, inter_rows,
                                       global_rows, final_rows)
    return plan


def _aggregated_witness(variant: Variant, phases: Dict[Phase, PhaseTable],
                        n_rows: int, local_rows: np.ndarray, sender_rows,
                        inter_rows, global_rows, final_rows) -> Witness:
    """The witness of an aggregated plan, from the planner's relative rows
    (see :func:`_aggregated_plan`), the edge table's rows of phases l, g
    and r, and every phase's first receipt row.

    A phase-g payload row's sender got its key in phase s, or owns it; a
    phase-r payload row's sender, the receive leader, got it in phase g.
    An edge row's destination gets its value in phase l, in phase g when it
    is the receive leader itself, and in phase r otherwise; a self-edge's
    destination owns it.
    """
    start = receipt_starts(variant, phases)
    edges = np.full(n_rows, -1, dtype=WITNESS_DTYPE)
    first = start[Phase.LOCAL]
    edges[local_rows] = np.arange(first, first + local_rows.size,
                                  dtype=WITNESS_DTYPE)
    hops = {}
    if inter_rows is not None:
        np.add(sender_rows, start[Phase.SETUP_REDIST], out=sender_rows,
               where=sender_rows >= 0)
        global_rows += start[Phase.GLOBAL]
        edges[inter_rows] = global_rows
        hops = {Phase.GLOBAL: sender_rows,
                Phase.FINAL_REDIST: edges[final_rows]}
        first = start[Phase.FINAL_REDIST]
        edges[final_rows] = np.arange(first, first + final_rows.size,
                                      dtype=WITNESS_DTYPE)
    return _frozen_witness(edges, hops)


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
