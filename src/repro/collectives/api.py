"""MPI-Advance-style user API for persistent neighborhood collectives.

The entry point mirrors how an application uses MPI Advance:

1. build a distributed-graph communicator from its neighbor lists
   (:func:`repro.simmpi.dist_graph_create_adjacent`),
2. call :func:`neighbor_alltoallv_init` with its send/receive maps (and, for
   the fully optimized variant, the item indices — the paper's proposed API
   extension), obtaining a persistent collective,
3. call ``start``/``wait`` every iteration with a dense value array.

``neighbor_alltoallv_init`` is a *collective* call: every rank of the
communicator must call it with its own local arguments.  The implementation
gathers the per-rank maps (the information a real library already holds inside
the topology communicator), builds the global pattern, runs the planner, and
returns a per-rank :class:`PersistentNeighborCollective` executing the plan.

The exchange is dtype-generic: ``dtype`` and ``item_size`` describe the
element type (e.g. ``dtype=np.float32, item_size=9`` for a D2Q9 lattice
Boltzmann distribution halo) and determine the wire size of every message;
the legacy ``item_bytes`` argument is only needed to model hypothetical sizes.

For analysis and large-scale simulation there is also the *world-stepped*
entry point :func:`neighbor_alltoallv_init_world`: it takes the global
pattern directly and executes whole iterations for all ranks through the
batched :class:`~repro.simmpi.engine.ExchangeEngine` — same results, same
profiler totals, no threads.

Example (doctest): rank 0 sends items 0 and 1 to rank 1, rank 1 sends item 5
back, world-stepped.

>>> import numpy as np
>>> from repro.collectives import neighbor_alltoallv_init_world
>>> from repro.pattern import CommPattern
>>> from repro.topology import paper_mapping
>>> pattern = CommPattern(2, {0: {1: [0, 1]}, 1: {0: [5]}})
>>> mapping = paper_mapping(2, ranks_per_node=2)
>>> collective = neighbor_alltoallv_init_world(pattern, mapping,
...                                            variant="standard")
>>> collective.owned_item_ids(0)
array([0, 1])
>>> halos = collective.exchange([np.array([10.0, 11.0]), np.array([50.0])])
>>> halos[1]
array([10., 11.])
>>> halos[0]
array([50.])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.persistent import (
    PersistentNeighborCollective,
    WorldNeighborCollective,
)
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.comm_pattern import CommPattern
from repro.simmpi.comm import SimComm
from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.profiler import TrafficProfiler
from repro.simmpi.topo_comm import DistGraphComm
from repro.topology.mapping import RankMapping
from repro.utils.arrays import (
    INDEX_DTYPE,
    as_index_array,
    counts_to_displs,
    freeze_columns,
    gather_ranges,
)
from repro.utils.errors import CommunicationError, ValidationError


def _pack_send_map(send_items: Mapping[int, Sequence[int]]) -> np.ndarray:
    """Flatten one rank's ``{dest: items}`` map into an int64 wire packet.

    Layout: ``[n_edges, dests..., counts..., items...]`` with destinations in
    ascending order and empty item lists dropped — the per-rank slice of the
    global CSR build.
    """
    edges = sorted((int(dest), as_index_array(items))
                   for dest, items in send_items.items())
    edges = [(dest, items) for dest, items in edges if items.size]
    n_edges = len(edges)
    header = np.empty(1 + 2 * n_edges, dtype=INDEX_DTYPE)
    header[0] = n_edges
    header[1:1 + n_edges] = [dest for dest, _ in edges]
    header[1 + n_edges:] = [items.size for _, items in edges]
    return np.concatenate([header] + [items for _, items in edges]) \
        if n_edges else header


def _pattern_from_packets(n_ranks: int, flat: np.ndarray, sizes: np.ndarray,
                          *, dtype: np.dtype, item_size: int,
                          item_bytes: int | None) -> CommPattern:
    """Assemble the global pattern from gathered per-rank wire packets.

    ``flat`` concatenates one :func:`_pack_send_map` packet per rank
    (``sizes[r]`` long).  The parse is fully vectorized: edge counts are one
    fancy index of the packet heads, and the destination/count/item sections
    are three :func:`gather_ranges` passes — O(total) numpy work with no
    O(ranks) Python loop.
    """
    packet_starts = counts_to_displs(sizes)[:-1]
    edges_per_src = np.ascontiguousarray(flat[packet_starts])
    columns = (counts_to_displs(edges_per_src),
               gather_ranges(flat, packet_starts + 1, edges_per_src),
               counts_to_displs(gather_ranges(flat, packet_starts + 1 + edges_per_src,
                                              edges_per_src)),
               gather_ranges(flat, packet_starts + 1 + 2 * edges_per_src,
                             sizes - 1 - 2 * edges_per_src))
    freeze_columns(*columns)
    return CommPattern.from_csr(n_ranks, *columns, item_bytes=item_bytes,
                                dtype=dtype, item_size=item_size)


def _gather_pattern(graph_comm: DistGraphComm,
                    send_items: Mapping[int, Sequence[int]],
                    *, dtype: np.dtype, item_size: int,
                    item_bytes: int | None) -> CommPattern:
    """Collectively assemble the global pattern from per-rank send maps.

    Every rank contributes one packed int64 array (edge count, destinations,
    item counts, item ids); a single count/displacement array allgather
    replaces the object allgather of per-rank dicts, and the received packets
    are spliced straight into the pattern's CSR columns.
    """
    flat, sizes = graph_comm.comm.allgatherv_array(_pack_send_map(send_items))
    return _pattern_from_packets(graph_comm.size, flat, sizes, dtype=dtype,
                                 item_size=item_size, item_bytes=item_bytes)


def _check_recv_side(rank: int, recv_items: Mapping[int, Sequence[int]],
                     pattern: CommPattern) -> None:
    """Cross-check a rank's receive side against the globally assembled pattern.

    The items a rank expects must be exactly the items its sources declared
    (duplicate-insensitive set comparison, vectorized per source).
    """
    for src, items in recv_items.items():
        declared = np.unique(pattern.send_items(int(src), rank))
        wanted = np.unique(as_index_array(items))
        if not np.array_equal(wanted, declared):
            raise CommunicationError(
                f"rank {rank} expects items {wanted[:5].tolist()}... from rank "
                f"{src} but that rank declared {declared[:5].tolist()}..."
            )


def neighbor_alltoallv_init(graph_comm: DistGraphComm,
                            send_items: Mapping[int, Sequence[int]],
                            recv_items: Mapping[int, Sequence[int]],
                            mapping: RankMapping,
                            *,
                            variant: Variant | str = Variant.PARTIAL,
                            strategy: BalanceStrategy = BalanceStrategy.BYTES,
                            dtype: np.dtype | type | str = np.float64,
                            item_size: int = 1,
                            item_bytes: int | None = None
                            ) -> PersistentNeighborCollective:
    """Initialise a persistent neighborhood all-to-all-v (collective call).

    Parameters
    ----------
    graph_comm:
        Topology communicator created with ``dist_graph_create_adjacent``.
    send_items:
        ``{destination rank: item ids}`` this rank sends.  For the standard and
        partially optimized variants only the *lengths* of the item lists are
        semantically required (as in the MPI-4 API); the fully optimized
        variant uses the ids themselves — this is the paper's API extension.
    recv_items:
        ``{source rank: item ids}`` this rank expects.  Must be consistent
        with the neighbor lists of ``graph_comm``.
    mapping:
        Rank placement defining locality regions.
    variant:
        Which implementation to build (standard / partial / full or
        point_to_point for the Hypre-style reference).
    strategy:
        Load-balancing strategy for the aggregated variants.
    dtype, item_size:
        Element dtype and components per item of the exchanged values; the
        wire size of every message is ``count * item_size * dtype.itemsize``.
    item_bytes:
        Override of the modeled per-item wire size (defaults to the real one).
    """
    variant = Variant(variant)
    dtype = np.dtype(dtype)
    destination_set = {int(d) for d in graph_comm.destinations}
    for dest in send_items:
        if int(dest) not in destination_set:
            raise ValidationError(
                f"rank {graph_comm.rank} sends to rank {dest} which is not among its "
                "graph destinations"
            )
    source_set = {int(s) for s in graph_comm.sources}
    for src in recv_items:
        if int(src) not in source_set:
            raise ValidationError(
                f"rank {graph_comm.rank} receives from rank {src} which is not among "
                "its graph sources"
            )
    pattern = _gather_pattern(graph_comm, send_items, dtype=dtype,
                              item_size=item_size, item_bytes=item_bytes)
    _check_recv_side(graph_comm.rank, recv_items, pattern)
    plan = make_plan(pattern, mapping, variant, strategy=strategy)
    return PersistentNeighborCollective(graph_comm.comm, plan,
                                        dtype=dtype, item_size=item_size)


@dataclass(frozen=True)
class CollectiveRequest:
    """One collective's arguments inside a batched :func:`neighbor_alltoallv_init_many`.

    ``send_items`` / ``recv_items`` are this rank's maps, exactly as passed to
    :func:`neighbor_alltoallv_init`.  ``comm`` optionally names the
    communicator the returned collective executes on (e.g. a per-level
    duplicate carrying its own traffic callback); when ``None`` the batched
    init duplicates the gather communicator.
    """

    send_items: Mapping[int, Sequence[int]]
    recv_items: Mapping[int, Sequence[int]]
    dtype: np.dtype | type | str = np.float64
    item_size: int = 1
    item_bytes: int | None = None
    comm: SimComm | None = None


def neighbor_alltoallv_init_many(comm: SimComm,
                                 requests: Sequence[CollectiveRequest],
                                 mapping: RankMapping,
                                 *,
                                 variant: Variant | str = Variant.PARTIAL,
                                 strategy: BalanceStrategy = BalanceStrategy.BYTES
                                 ) -> list[PersistentNeighborCollective]:
    """Initialise many persistent collectives with ONE setup gather (collective call).

    Every rank calls this with the same number of requests in the same order
    (like any collective).  Instead of one ``allgatherv_array`` round per
    collective — the O(collectives) synchronisation a distributed V-cycle
    setup pays when each level's SpMV and grid transfers initialise
    separately — all requests' packed send maps travel in a single gather:
    per rank the wire packet is ``[len_0 .. len_{N-1}, packet_0 ..
    packet_{N-1}]``, and the decode back into per-request per-rank packets is
    two vectorized :func:`gather_ranges` passes.  Each request then builds
    its pattern, plan, and :class:`PersistentNeighborCollective` exactly as
    the one-at-a-time init does — the resulting collectives are
    byte-identical to individually initialised ones.
    """
    requests = list(requests)
    if not requests:
        return []
    n_requests = len(requests)
    packets = [_pack_send_map(request.send_items) for request in requests]
    lengths = np.array([packet.size for packet in packets], dtype=INDEX_DTYPE)
    flat, sizes = comm.allgatherv_array(np.concatenate([lengths] + packets))
    n_ranks = comm.size
    rank_starts = counts_to_displs(sizes)[:-1]
    if np.any(sizes < n_requests):
        raise CommunicationError(
            f"batched init expected {n_requests} packed requests from every rank"
        )
    # Per-(rank, request) packet lengths, then start offsets inside ``flat``:
    # each rank's slice leads with its N packet lengths, packets follow.
    length_table = gather_ranges(
        flat, rank_starts,
        np.full(n_ranks, n_requests, dtype=INDEX_DTYPE)).reshape(n_ranks,
                                                                 n_requests)
    packet_ends = np.cumsum(length_table, axis=1)
    packet_starts = (rank_starts[:, None] + n_requests
                     + packet_ends - length_table)
    collectives: list[PersistentNeighborCollective] = []
    for index, request in enumerate(requests):
        dtype = np.dtype(request.dtype)
        pattern = _pattern_from_packets(
            n_ranks,
            gather_ranges(flat, packet_starts[:, index], length_table[:, index]),
            np.ascontiguousarray(length_table[:, index]),
            dtype=dtype, item_size=request.item_size,
            item_bytes=request.item_bytes)
        _check_recv_side(comm.rank, request.recv_items, pattern)
        plan = make_plan(pattern, mapping, Variant(variant), strategy=strategy)
        run_comm = request.comm if request.comm is not None else comm.dup()
        collectives.append(PersistentNeighborCollective(
            run_comm, plan, dtype=dtype, item_size=request.item_size))
    return collectives


def neighbor_alltoallv_init_world(pattern: CommPattern,
                                  mapping: RankMapping,
                                  *,
                                  variant: Variant | str = Variant.PARTIAL,
                                  strategy: BalanceStrategy = BalanceStrategy.BYTES,
                                  dtype: np.dtype | type | str | None = None,
                                  item_size: int | None = None,
                                  engine: ExchangeEngine | None = None,
                                  profiler: TrafficProfiler | None = None,
                                  runtime: str | None = None,
                                  n_workers: int | None = None,
                                  vector_length: int | None = None
                                  ) -> WorldNeighborCollective:
    """Initialise a world-stepped persistent neighborhood all-to-all-v.

    The batched counterpart of :func:`neighbor_alltoallv_init`: instead of one
    per-rank handle built collectively over the simulated runtime, this takes
    the already-global ``pattern`` (what the per-rank path assembles with its
    setup gather), plans it once, compiles *every* rank's gather/scatter index
    arrays, and registers them with a world
    :class:`~repro.simmpi.engine.ExchangeEngine` — so one ``exchange`` call
    moves a whole iteration for all ranks with O(phases) numpy calls.

    ``dtype`` / ``item_size`` default to the pattern's element type.  Pass an
    ``engine`` to share one engine (and its profiler) across collectives, or a
    ``profiler`` to let the collective create a private engine around it;
    ``runtime`` / ``n_workers`` select the private engine's backend
    (``"engine"`` staged single-process, ``"procs"`` shared-memory worker
    pool); ``vector_length`` registers the exchange on the caller's vector.
    """
    plan = make_plan(pattern, mapping, Variant(variant), strategy=strategy)
    return WorldNeighborCollective(plan, dtype=dtype, item_size=item_size,
                                   engine=engine, profiler=profiler,
                                   runtime=runtime, n_workers=n_workers,
                                   vector_length=vector_length)


def neighbor_alltoallv(graph_comm: DistGraphComm,
                       send_items: Mapping[int, Sequence[int]],
                       recv_items: Mapping[int, Sequence[int]],
                       values: np.ndarray,
                       mapping: RankMapping,
                       *,
                       variant: Variant | str = Variant.PARTIAL,
                       strategy: BalanceStrategy = BalanceStrategy.BYTES,
                       dtype: np.dtype | type | str = np.float64,
                       item_size: int = 1,
                       item_bytes: int | None = None
                       ) -> np.ndarray:
    """Non-persistent convenience wrapper: init, one exchange, done.

    ``values`` is a dense array over this rank's owned items in ascending item
    id order; the result is in ascending received-item id order.
    """
    collective = neighbor_alltoallv_init(graph_comm, send_items, recv_items, mapping,
                                         variant=variant, strategy=strategy,
                                         dtype=dtype, item_size=item_size,
                                         item_bytes=item_bytes)
    return collective.exchange(values)
