"""Sparse matrix-vector multiplication, sequential and distributed.

``sequential_spmv`` is the reference answer.  :class:`DistributedSpMV` is the
functional distributed version: one instance per rank, exchanging halo entries
through a persistent neighborhood collective (any variant) on the simulated MPI
runtime, exactly the structure of ``hypre_ParCSRMatrixMatvec`` — and, like
it, the one product for every operator of the solve phase: the input vector
lives on the matrix's column partition and the output on its row partition,
so a level operator ``A`` (one partition) and the grid transfers ``P`` /
``Pᵀ`` (two) run through the same code.  The
integration tests run it at small rank counts and check the result against the
sequential product to machine precision; that is the correctness argument for
replacing Hypre's point-to-point communication with the optimized collectives.

:class:`WorldSpMV` is the world-stepped form of the same computation, for
all ranks at once: one flat halo exchange through the batched
:class:`~repro.simmpi.engine.ExchangeEngine`, then ``D @ x + O @ halo`` over
the matrix's stacked ``diag``/``offd`` operators — no threads, no envelopes,
no per-rank loop.  ``distributed_spmv_results`` executes through it by
default and keeps the envelope-routed thread-per-rank path as the pinned
reference (``runtime="threads"``); the two are byte-identical.

Example (doctest): distribute a tiny matrix over 4 simulated ranks and check
the world-stepped product against the sequential reference.

>>> import numpy as np
>>> from repro.sparse import ParCSRMatrix, RowPartition, poisson_2d
>>> from repro.sparse.spmv import WorldSpMV, distributed_spmv_results, sequential_spmv
>>> from repro.topology import paper_mapping
>>> matrix = ParCSRMatrix(poisson_2d((6, 6)), RowPartition.even(36, 4))
>>> mapping = paper_mapping(4, ranks_per_node=2)
>>> x = np.arange(36, dtype=np.float64)
>>> spmv = WorldSpMV(matrix, mapping, variant="full")
>>> np.allclose(spmv.multiply(x), sequential_spmv(matrix, x))
True
>>> np.array_equal(distributed_spmv_results(matrix, mapping, x),
...                spmv.multiply(x))
True
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.api import neighbor_alltoallv_init, neighbor_alltoallv_init_world
from repro.collectives.plan import Variant
from repro.pattern.builders import neighbor_lists
from repro.pattern.comm_pattern import CommPattern
from repro.simmpi.comm import SimComm
from repro.simmpi.engine import ENGINE_RUNTIMES, ExchangeEngine, default_runtime
from repro.simmpi.profiler import TrafficProfiler
from repro.simmpi.topo_comm import dist_graph_create_adjacent
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix, StackedBlocks
from repro.topology.mapping import RankMapping
from repro.utils.errors import ValidationError


def sequential_spmv(matrix: ParCSRMatrix, x: np.ndarray) -> np.ndarray:
    """Reference product ``A @ x`` computed on the global matrix."""
    return matrix.spmv(x)


def check_mapping_covers(mapping: RankMapping, n_ranks: int) -> None:
    """Reject a rank mapping smaller than the matrix partition up front.

    Without this guard the mismatch surfaces only deep inside the planner
    (an out-of-range region lookup) once an aggregated variant is selected.
    """
    if mapping.n_ranks < n_ranks:
        raise ValidationError(
            f"mapping covers {mapping.n_ranks} ranks but the matrix is "
            f"partitioned over {n_ranks}"
        )


def _halo_positions(col_map_offd: np.ndarray, recv_ids: np.ndarray) -> np.ndarray:
    """Positions of the received halo ids inside a rank's (sorted) ``col_map_offd``."""
    return np.searchsorted(col_map_offd, recv_ids)


def _init_rank_collective(comm: SimComm, pattern: CommPattern,
                          mapping: RankMapping, variant: Variant | str,
                          strategy: BalanceStrategy):
    """One rank's persistent collective from the matrix's pattern (collective call).

    Take this rank's send/recv maps from the pattern, create the graph
    communicator over their peers, and initialise the persistent collective.
    """
    graph_comm = dist_graph_create_adjacent(
        comm, *neighbor_lists(pattern, comm.rank), validate=False)
    return neighbor_alltoallv_init(graph_comm, pattern.send_map(comm.rank),
                                   pattern.recv_map(comm.rank), mapping,
                                   variant=variant, strategy=strategy,
                                   dtype=np.float64)


def _offd_on_halo(stacked: StackedBlocks, world) -> sp.csr_matrix:
    """``stacked.offd`` with its columns indexing the engine's flat result.

    Delivery (``world.result_items_all``) and ``col_map_offd`` both ascend per
    rank for a pattern derived from this matrix, so this is normally
    ``stacked.offd`` itself.  Any other order is folded into the column
    indices once (entry order untouched); a rank whose delivered ids are not
    exactly its column map raises instead of hitting a neighbouring column.
    """
    offsets, ids = world.result_offsets, world.result_items_all
    if np.array_equal(offsets, stacked.offd_offsets) \
            and np.array_equal(ids, stacked.col_map_offd):
        return stacked.offd
    counts, expected = np.diff(offsets), np.diff(stacked.offd_offsets)
    rank_of = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((ids, rank_of))      # halo position of each map entry
    if np.array_equal(counts, expected):
        wrong = rank_of[ids[order] != stacked.col_map_offd]
    else:
        wrong = np.flatnonzero(counts != expected)
    if wrong.size:
        raise ValidationError(
            f"rank {int(wrong[0])} receives halo ids that differ from its "
            "col_map_offd; the exchange was not built for this matrix")
    offd = stacked.offd
    return sp.csr_matrix((offd.data, order[offd.indices], offd.indptr),
                         shape=offd.shape)


class DistributedSpMV:
    """One rank's persistent distributed SpMV.

    Construction is collective: every rank of the communicator builds its own
    instance with the same matrix and mapping.  ``multiply`` takes the rank's
    slice of the input vector (column partition), performs the halo exchange
    through the configured neighborhood-collective variant and then the local
    ``diag``/``offd`` products, and returns its slice of the output vector
    (row partition).
    """

    def __init__(self, comm: SimComm, matrix: ParCSRMatrix, mapping: RankMapping, *,
                 variant: Variant | str = Variant.PARTIAL,
                 strategy: BalanceStrategy = BalanceStrategy.BYTES,
                 collective=None):
        if comm.size < matrix.n_ranks:
            raise ValidationError(
                f"communicator has {comm.size} ranks but the matrix is partitioned "
                f"over {matrix.n_ranks}"
            )
        check_mapping_covers(mapping, matrix.n_ranks)
        self.comm = comm
        self.matrix = matrix
        self.mapping = mapping
        self.rank = comm.rank
        self.blocks = matrix.local_blocks(self.rank)
        self.diag = self.blocks.diag
        self.row_range = self.blocks.row_range
        self.col_range = self.blocks.col_range

        # The collective is built from the pattern's index arrays directly —
        # no per-item list conversion at the boundary.  An injected
        # ``collective`` (e.g. from a batched ``neighbor_alltoallv_init_many``
        # covering a whole hierarchy's setup) skips the per-instance gather.
        if collective is None:
            collective = _init_rank_collective(comm, pattern_from_parcsr(matrix),
                                               mapping, variant, strategy)
        self.collective = collective
        # The halo exchange is array-native: precompute the index arrays that
        # connect the local vector to the dense exchange input and the dense
        # halo output to the offd product input — the per-iteration path is
        # then three fancy indexes and no per-item Python work.
        self._owned_positions = self.collective.owned_item_ids - self.col_range[0]
        self._halo_positions = _halo_positions(self.blocks.col_map_offd,
                                               self.collective.recv_item_ids)

    @property
    def n_local_rows(self) -> int:
        """Output-vector entries owned by this rank."""
        return self.blocks.n_local_rows

    @property
    def n_local_cols(self) -> int:
        """Input-vector entries owned by this rank."""
        return self.blocks.n_local_cols

    def multiply(self, x_local: np.ndarray) -> np.ndarray:
        """Compute the local rows of ``A @ x``.

        ``x_local`` holds this rank's owned entries of the global input
        vector; the returned array holds the owned entries of the product.
        """
        x_local = np.asarray(x_local, dtype=np.float64)
        if x_local.shape != (self.n_local_cols,):
            raise ValidationError(
                f"x_local must have shape ({self.n_local_cols},), got {x_local.shape}"
            )
        halo = self.collective.exchange(x_local[self._owned_positions])

        result = self.diag @ x_local
        if self.blocks.n_offd_cols:
            x_offd = np.zeros(self.blocks.n_offd_cols, dtype=np.float64)
            x_offd[self._halo_positions] = halo
            result = result + self.blocks.offd @ x_offd
        return result


class WorldSpMV:
    """World-stepped distributed SpMV: all ranks advance in lockstep.

    Holds the matrix's :class:`~repro.sparse.parcsr.StackedBlocks` — a
    block-diagonal ``diag`` over the global input vector and an ``offd``
    whose columns index the flat halo buffer — plus one world collective, so
    ``multiply`` is what hypre runs per process, once for all ranks:
    ``halo = exchange_flat(x[owned])`` then ``diag @ x + offd @ halo``.  Rows
    sum in the per-rank blocks' stored order, so the result is byte-identical
    to :class:`DistributedSpMV` on every rank of the envelope-routed runtime.
    """

    def __init__(self, matrix: ParCSRMatrix, mapping: RankMapping, *,
                 variant: Variant | str = Variant.PARTIAL,
                 strategy: BalanceStrategy = BalanceStrategy.BYTES,
                 engine: ExchangeEngine | None = None,
                 profiler: TrafficProfiler | None = None,
                 runtime: str | None = None,
                 n_workers: int | None = None):
        check_mapping_covers(mapping, matrix.n_ranks)
        self.matrix = matrix
        self.mapping = mapping
        self.n_ranks = matrix.n_ranks
        self.collective = neighbor_alltoallv_init_world(
            pattern_from_parcsr(matrix), mapping, variant=variant,
            strategy=strategy, engine=engine, profiler=profiler,
            runtime=runtime, n_workers=n_workers)
        stacked = matrix.stacked_blocks()
        world = self.collective.world
        self.diag = stacked.diag
        self.offd = _offd_on_halo(stacked, world)
        # Item ids are global input-vector indices: the input is ``x[owned]``.
        self._owned = world.owned_items_all

    @property
    def n_rows(self) -> int:
        """Global output-vector length."""
        return self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        """Global input-vector length."""
        return self.matrix.n_cols

    def close(self) -> None:
        """Release the halo collective's private engine (workers, segments)."""
        self.collective.close()

    def __enter__(self) -> "WorldSpMV":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for the *global* input vector (one call, all ranks)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValidationError(
                f"x must have shape ({self.n_cols},), got {x.shape}"
            )
        halo = self.collective.exchange_flat(x[self._owned])
        return self.diag @ x + self.offd @ halo


def distributed_spmv_results(matrix: ParCSRMatrix, mapping: RankMapping,
                             x: np.ndarray, *,
                             variant: Variant | str = Variant.PARTIAL,
                             strategy: BalanceStrategy = BalanceStrategy.BYTES,
                             timeout: float = 120.0,
                             runtime: str | None = None) -> np.ndarray:
    """Run a full distributed SpMV and assemble ``A @ x``.

    This is the one-call form used by tests and examples; ``x`` is the global
    input vector (``matrix.n_cols`` entries).  With the default
    ``runtime="engine"`` the product runs world-stepped through
    :class:`WorldSpMV` (single process, fused batched exchange);
    ``runtime="procs"`` executes the same world program on the shared-memory
    worker pool.  ``runtime="threads"`` launches one simulated-rank thread
    per partition entry on the envelope-routed runtime — the pinned
    reference path, byte-identical to both engine runtimes.  ``runtime=None``
    resolves through the ``REPRO_RUNTIME`` environment variable (falling
    back to ``"engine"``).  ``timeout`` bounds only the threaded run (the
    engine paths never block, so they have no deadline to enforce).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.n_cols,):
        raise ValidationError(f"x must have shape ({matrix.n_cols},), got {x.shape}")
    check_mapping_covers(mapping, matrix.n_ranks)
    if runtime is None:
        runtime = default_runtime()
    if runtime in ENGINE_RUNTIMES:
        with WorldSpMV(matrix, mapping, variant=variant,
                       strategy=strategy, runtime=runtime) as spmv:
            return spmv.multiply(x)
    if runtime != "threads":
        raise ValidationError(
            f"runtime must be 'engine', 'threads' or 'procs', got {runtime!r}"
        )

    from repro.simmpi.world import run_spmd  # local import to avoid cycles at import time

    def program(comm: SimComm) -> List[float]:
        spmv = DistributedSpMV(comm, matrix, mapping, variant=variant, strategy=strategy)
        col_first, col_last = spmv.col_range
        return spmv.multiply(x[col_first:col_last]).tolist()

    per_rank = run_spmd(matrix.n_ranks, program, timeout=timeout)
    result = np.empty(matrix.n_rows, dtype=np.float64)
    for rank, values in enumerate(per_rank):
        first, last = matrix.partition.row_range(rank)
        result[first:last] = values
    return result
