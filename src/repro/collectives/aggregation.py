"""Aggregation setup: assigning inter-region traffic to processes.

This module implements the ``setup_aggregation`` step of Algorithm 4: for each
(source region, destination region) pair with traffic, pick the process inside
the source region that will send the single aggregated inter-region message,
and the process inside the destination region that will receive it.  The
assignment is the load-balancing knob the paper mentions ("load balancing while
determining which intra-region process communicates with each region"); two
strategies are provided and compared in the ablation benchmarks.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.pattern.comm_pattern import CommPattern
from repro.topology.mapping import RankMapping
from repro.utils.errors import PlanError


class BalanceStrategy(str, enum.Enum):
    """How destination regions are distributed over a region's processes."""

    #: Destination region ``i`` (in sorted order) goes to local process ``i % size``.
    ROUND_ROBIN = "round_robin"
    #: Greedy longest-processing-time assignment by byte volume.
    BYTES = "bytes"


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


@dataclass(frozen=True)
class AggregationAssignment:
    """The outcome of ``setup_aggregation``.

    ``send_leader[(src_region, dest_region)]`` is the rank inside ``src_region``
    that sends the aggregated message to ``dest_region``;
    ``recv_leader[(src_region, dest_region)]`` is the rank inside ``dest_region``
    that receives it.
    """

    send_leader: Dict[Tuple[int, int], int]
    recv_leader: Dict[Tuple[int, int], int]

    def leaders_for(self, src_region: int, dest_region: int) -> Tuple[int, int]:
        """Return ``(sending rank, receiving rank)`` for a region pair."""
        key = (src_region, dest_region)
        if key not in self.send_leader or key not in self.recv_leader:
            raise PlanError(f"no aggregation leaders assigned for region pair {key}")
        return self.send_leader[key], self.recv_leader[key]

    def sender_load(self) -> Dict[int, int]:
        """Number of region pairs each rank sends for (load-balance diagnostics)."""
        load: Dict[int, int] = {}
        for rank in self.send_leader.values():
            load[rank] = load.get(rank, 0) + 1
        return load


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


def _pair_loads(pattern: CommPattern, mapping: RankMapping) -> Dict[int, Dict[int, float]]:
    """``loads[src_region][dest_region]``: items (duplicates included) per
    inter-region pair, regions ascending.  One ``unique`` + ``bincount`` over the
    pattern's edge columns: Python objects are made per pair, never per edge."""
    src_regions = mapping.region_of_many(pattern.edge_sources())
    dest_regions = mapping.region_of_many(pattern.csr()[1])
    inter = src_regions != dest_regions
    keys = src_regions[inter] * mapping.n_regions + dest_regions[inter]
    pair_keys, pair_of_edge = np.unique(keys, return_inverse=True)
    pair_items = np.bincount(pair_of_edge, weights=pattern.edge_item_counts()[inter])
    loads: Dict[int, Dict[int, float]] = {}
    for key, items in zip(pair_keys.tolist(), pair_items.tolist()):
        src_region, dest_region = divmod(key, mapping.n_regions)
        loads.setdefault(src_region, {})[dest_region] = items
    return loads


def _assign(members: np.ndarray, targets: Sequence[int], loads: Dict[int, float],
            strategy: BalanceStrategy) -> Dict[int, int]:
    """Assign each target id to one member rank according to ``strategy``."""
    members = members.tolist()
    if not members:
        raise PlanError("cannot assign aggregation leaders in an empty region")
    assignment: Dict[int, int] = {}
    if strategy is BalanceStrategy.ROUND_ROBIN:
        for index, target in enumerate(sorted(targets)):
            assignment[int(target)] = members[index % len(members)]
        return assignment
    if strategy is BalanceStrategy.BYTES:
        # Longest-processing-time greedy: heaviest target first onto the member
        # with the smallest accumulated load (ties broken by rank for determinism).
        heap = [(0.0, member) for member in sorted(members)]
        ordered = sorted(targets, key=lambda t: (-loads.get(int(t), 0.0), int(t)))
        for target in ordered:
            load, chosen = heap[0]
            assignment[int(target)] = chosen
            heapq.heapreplace(heap, (load + loads.get(int(target), 0.0), chosen))
        return assignment
    raise PlanError(f"unknown balance strategy {strategy!r}")


def setup_aggregation(pattern: CommPattern, mapping: RankMapping, *,
                      strategy: BalanceStrategy = BalanceStrategy.BYTES
                      ) -> AggregationAssignment:
    """Compute send- and receive-side leader assignments for three-step aggregation.

    On the send side, each region distributes its destination regions over its
    processes; on the receive side, each region distributes its *source*
    regions over its processes.  Both sides are computed from the same global
    pattern, so they are mutually consistent by construction — exactly what a
    real implementation achieves with an intra-region exchange during
    ``MPI_Neighbor_alltoallv_init``.
    """
    strategy = BalanceStrategy(strategy)
    send_leader: Dict[Tuple[int, int], int] = {}
    recv_pairs: Dict[int, Dict[int, float]] = {}
    for src_region, loads in _pair_loads(pattern, mapping).items():
        members = mapping.ranks_in_region(src_region)
        assignment = _assign(members, list(loads), loads, strategy)
        for dest_region, rank in assignment.items():
            send_leader[(src_region, dest_region)] = rank
            recv_pairs.setdefault(dest_region, {})[src_region] = loads[dest_region]

    recv_leader: Dict[Tuple[int, int], int] = {}
    for dest_region, sources in recv_pairs.items():
        members = mapping.ranks_in_region(dest_region)
        assignment = _assign(members, sorted(sources.keys()), sources, strategy)
        for src_region, rank in assignment.items():
            recv_leader[(src_region, dest_region)] = rank
    return AggregationAssignment(send_leader=send_leader, recv_leader=recv_leader)
