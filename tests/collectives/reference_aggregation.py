"""The per-region leader assignment, kept as the oracle of the leader tables.

``repro.collectives.aggregation.setup_aggregation`` computes every region's
leaders at once as two dense tables.  This module keeps the implementation it
replaced — a dict of pair loads, one ``heapq`` longest-processing-time loop
(or one round-robin loop) per region, a sort key per target — so the property
tests can assert the tables equal its dicts for both strategies.

It is a test oracle, not library code.  Do not "optimise" it.
"""

from __future__ import annotations

import heapq
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from repro.collectives.aggregation import BalanceStrategy
from repro.pattern.comm_pattern import CommPattern
from repro.topology.mapping import RankMapping
from repro.utils.errors import PlanError


class LeaderDicts(NamedTuple):
    """``send_leader[(src_region, dest_region)]`` is the rank inside
    ``src_region`` that sends the pair's aggregated message;
    ``recv_leader[(src_region, dest_region)]`` the rank inside ``dest_region``
    that receives it."""

    send_leader: Dict[Tuple[int, int], int]
    recv_leader: Dict[Tuple[int, int], int]


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
                      ) -> LeaderDicts:
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
    return LeaderDicts(send_leader=send_leader, recv_leader=recv_leader)


def leader_table(leader_of_pair: Dict[Tuple[int, int], int],
                 n_regions: int) -> np.ndarray:
    """One of the oracle's dicts as a dense table, -1 where a pair is absent."""
    table = np.full((n_regions, n_regions), -1, dtype=np.int64)
    for (src_region, dest_region), rank in leader_of_pair.items():
        table[src_region, dest_region] = rank
    return table
