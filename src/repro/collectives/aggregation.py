"""Aggregation set-up: which process of a region talks to each other region.

This module implements the ``setup_aggregation`` step of Algorithm 4.  Every
(source region, destination region) pair with traffic gets a *send leader*,
the rank inside the source region that sends the pair's one aggregated
message, and a *receive leader*, the rank inside the destination region that
receives it.  Each region spreads the regions it talks to over its ranks; how
it spreads them is the load-balancing knob the paper mentions ("load balancing
while determining which intra-region process communicates with each region"),
and the two :class:`BalanceStrategy` values are compared in the balance
ablation.

The outcome is two dense ``(n_regions, n_regions)`` leader tables, with -1
where a pair has no traffic, computed for every region at once: one
``bincount`` over pair keys gives the pair loads, one sort orders every
region's targets, and the greedy balance takes one ``argmin`` step per target
beyond a region's rank count.  The work grows with the number of regions,
never with ranks, edges or items.

>>> from repro.pattern.builders import pattern_from_edges
>>> from repro.topology import paper_mapping
>>> mapping = paper_mapping(4, ranks_per_node=2)     # regions {0, 1} and {2, 3}
>>> pattern = pattern_from_edges(4, [(0, 2, [5]), (1, 3, [6, 7]), (3, 1, [8])])
>>> assignment = setup_aggregation(pattern, mapping)
>>> assignment.send
array([[-1,  0],
       [ 2, -1]])
>>> assignment.recv
array([[-1,  2],
       [ 0, -1]])
>>> assignment.leaders_for(0, 1)
(0, 2)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.pattern.comm_pattern import CommPattern
from repro.topology.mapping import RankMapping
from repro.utils.arrays import (
    INDEX_DTYPE,
    counts_to_displs,
    freeze_columns,
    lexsort_packed,
    run_starts_mask,
)
from repro.utils.errors import PlanError


class BalanceStrategy(str, enum.Enum):
    """How destination regions are distributed over a region's processes."""

    #: Destination region ``i`` (in sorted order) goes to local process ``i % size``.
    ROUND_ROBIN = "round_robin"
    #: Greedy longest-processing-time assignment by byte volume.
    BYTES = "bytes"


@dataclass(frozen=True, eq=False)
class AggregationAssignment:
    """The outcome of ``setup_aggregation``: two ``(n_regions, n_regions)`` tables.

    ``send[src_region, dest_region]`` is the rank inside ``src_region`` that
    sends the aggregated message to ``dest_region``;
    ``recv[src_region, dest_region]`` is the rank inside ``dest_region`` that
    receives it.  -1 marks a pair without traffic.
    """

    send: np.ndarray
    recv: np.ndarray

    def leaders_for(self, src_region: int, dest_region: int) -> Tuple[int, int]:
        """Return ``(sending rank, receiving rank)`` for a region pair."""
        n_regions = self.send.shape[0]
        if 0 <= src_region < n_regions and 0 <= dest_region < n_regions:
            send = int(self.send[src_region, dest_region])
            recv = int(self.recv[src_region, dest_region])
            if send >= 0 and recv >= 0:
                return send, recv
        raise PlanError("no aggregation leaders assigned for region pair "
                        f"{(src_region, dest_region)}")


def _pair_loads(pattern: CommPattern,
                mapping: RankMapping) -> Tuple[np.ndarray, np.ndarray]:
    """``(pairs, loads)``: the keys ``src_region * n_regions + dest_region`` of
    the inter-region pairs with traffic, ascending, and the items (duplicates
    included) each carries.  One ``bincount`` over the edges' pair keys."""
    n_regions = mapping.n_regions
    src_regions = mapping.region_of_many(pattern.edge_sources())
    dest_regions = mapping.region_of_many(pattern.csr()[1])
    inter = src_regions != dest_regions
    keys = src_regions[inter] * n_regions + dest_regions[inter]
    loads = np.bincount(keys, weights=pattern.edge_item_counts()[inter],
                        minlength=n_regions * n_regions).astype(INDEX_DTYPE)
    pairs = np.flatnonzero(loads)     # every edge carries at least one item
    return pairs, loads[pairs]


def _leaders(owners: np.ndarray, targets: np.ndarray, loads: np.ndarray,
             mapping: RankMapping, strategy: BalanceStrategy) -> np.ndarray:
    """The rank of region ``owners[p]`` that handles pair ``p``'s traffic with
    region ``targets[p]``, for every pair at once.

    ``ROUND_ROBIN`` gives an owner's k-th target (ascending id) its member
    ``k % size``.  ``BYTES`` is the longest-processing-time greedy: targets
    heaviest first (ties on id), each onto the member with the least load so
    far (ties on rank).  While a member is still idle the least loaded one is
    the next idle rank, so an owner's first ``size`` targets go to its members
    in rank order in one step; every later step places the k-th target of
    every owner that has one with one ``argmin`` over the members' loads.
    """
    members, sizes = mapping.member_table()
    n_regions = mapping.n_regions
    leaders = np.empty(owners.size, dtype=INDEX_DTYPE)
    if owners.size == 0:
        return leaders
    if strategy is BalanceStrategy.ROUND_ROBIN:
        order = lexsort_packed(owners, targets)
    else:
        order = lexsort_packed(owners, -loads, targets)
    owners = owners[order]
    nth = (np.arange(order.size, dtype=INDEX_DTYPE)
           - counts_to_displs(np.bincount(owners, minlength=n_regions))[owners])
    if strategy is BalanceStrategy.ROUND_ROBIN:
        leaders[order] = members[owners, nth % sizes[owners]]
        return leaders

    loads = loads[order]
    first = nth < sizes[owners]
    rows, slots = owners[first], nth[first]
    leaders[order[first]] = members[rows, slots]
    # Padding slots start at the largest load, so ``argmin`` never picks one.
    member_loads = np.where(members >= 0, 0, np.iinfo(INDEX_DTYPE).max)
    member_loads[rows, slots] = loads[first]
    later = np.flatnonzero(~first)
    later = later[lexsort_packed(nth[later])]
    bounds = np.append(np.flatnonzero(run_starts_mask(nth[later])), later.size)
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        step = later[start:stop]
        rows = owners[step]
        slots = np.argmin(member_loads[rows], axis=1)
        leaders[order[step]] = members[rows, slots]
        member_loads[rows, slots] += loads[step]
    return leaders


def setup_aggregation(pattern: CommPattern, mapping: RankMapping, *,
                      strategy: BalanceStrategy = BalanceStrategy.BYTES
                      ) -> AggregationAssignment:
    """Compute send- and receive-side leader tables for three-step aggregation.

    On the send side, each region distributes its destination regions over its
    processes; on the receive side, each region distributes its *source*
    regions over its processes, balancing the same pair loads.  Both sides are
    computed from the same global pattern, so they are mutually consistent by
    construction — exactly what a real implementation achieves with an
    intra-region exchange during ``MPI_Neighbor_alltoallv_init``.
    """
    strategy = BalanceStrategy(strategy)
    n_regions = mapping.n_regions
    pairs, loads = _pair_loads(pattern, mapping)
    src_regions, dest_regions = np.divmod(pairs, n_regions)
    send = np.full((n_regions, n_regions), -1, dtype=INDEX_DTYPE)
    recv = np.full((n_regions, n_regions), -1, dtype=INDEX_DTYPE)
    send[src_regions, dest_regions] = _leaders(src_regions, dest_regions, loads,
                                               mapping, strategy)
    recv[src_regions, dest_regions] = _leaders(dest_regions, src_regions, loads,
                                               mapping, strategy)
    freeze_columns(send, recv)
    return AggregationAssignment(send=send, recv=recv)
