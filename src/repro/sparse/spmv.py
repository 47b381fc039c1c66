"""Sparse matrix-vector multiplication, sequential and distributed.

``sequential_spmv`` is the reference answer.  :class:`DistributedSpMV` is the
functional distributed version: one instance per rank, exchanging halo entries
through a persistent neighborhood collective (any variant) on the simulated MPI
runtime, exactly the structure of ``hypre_ParCSRMatrixMatvec`` — and, like
it, the one product for every operator of the solve phase: the input vector
lives on the matrix's column partition and the output on its row partition,
so a level operator ``A`` (one partition) and the grid transfers ``P`` /
``Pᵀ`` (two) run through the same code.

:class:`WorldSpMV` is the world-stepped form, for all ranks at once: the halo
exchange is registered on the input vector itself, so one round through the
batched :class:`~repro.simmpi.engine.ExchangeEngine` turns ``x`` into the
engine's ``[x | halo]`` work array, and the product is one CSR — the assembled
matrix with its column indices rewritten onto that array — times it.  No
pack, no unpack, no diag/offd split, no threads, no per-rank loop.
``distributed_spmv_results`` executes through it by default and keeps the
envelope-routed thread-per-rank path as the pinned reference
(``runtime="threads"``).  Every path sums a row in the assembled matrix's
stored order, so all of them equal ``matrix.matrix @ x`` to the bit: the
correctness argument for replacing Hypre's point-to-point communication with
the optimized collectives.

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
>>> np.array_equal(spmv.multiply(x), sequential_spmv(matrix, x))
True
>>> np.array_equal(distributed_spmv_results(matrix, mapping, x),
...                spmv.multiply(x))
True
"""

from __future__ import annotations

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


def _init_rank_collective(comm: SimComm, pattern: CommPattern,
                          mapping: RankMapping, variant: Variant | str,
                          strategy: BalanceStrategy):
    """One rank's persistent collective from the matrix's pattern (collective
    call): its send/recv maps, a graph communicator over their peers, the init."""
    graph_comm = dist_graph_create_adjacent(
        comm, *neighbor_lists(pattern, comm.rank), validate=False)
    return neighbor_alltoallv_init(graph_comm, pattern.send_map(comm.rank),
                                   pattern.recv_map(comm.rank), mapping,
                                   variant=variant, strategy=strategy,
                                   dtype=np.float64)


def _operator_on_buffer(stacked: StackedBlocks, world, halo_rows: np.ndarray,
                        length: int) -> sp.csr_matrix:
    """``stacked.operator`` with its halo columns on the engine's round buffer.

    ``halo_rows[k]`` is the buffer row of ``world.result_items_all[k]``.
    Delivery and ``col_map_offd`` both ascend per rank for a pattern derived
    from this matrix; any other order is folded into the column indices
    (entry order untouched), and a rank whose delivered ids are not exactly
    its column map raises instead of hitting a neighbouring column.  A halo
    right behind ``x`` in map order returns the cached operator itself.
    """
    offsets, ids = world.result_offsets, world.result_items_all
    if not (np.array_equal(offsets, stacked.offd_offsets)
            and np.array_equal(ids, stacked.col_map_offd)):
        counts, expected = np.diff(offsets), np.diff(stacked.offd_offsets)
        rank_of = np.repeat(np.arange(counts.size), counts)
        order = np.lexsort((ids, rank_of))  # delivery position of each map entry
        if np.array_equal(counts, expected):
            wrong = rank_of[ids[order] != stacked.col_map_offd]
        else:
            wrong = np.flatnonzero(counts != expected)
        if wrong.size:
            raise ValidationError(
                f"rank {int(wrong[0])} receives halo ids that differ from its "
                "col_map_offd; the exchange was not built for this matrix")
        halo_rows = halo_rows[order]
    operator = stacked.operator
    n_rows, width = operator.shape
    n_cols = width - halo_rows.size
    if length == width and np.array_equal(halo_rows, np.arange(n_cols, width)):
        return operator
    columns = np.concatenate([np.arange(n_cols), halo_rows]).astype(
        np.result_type(operator.indices.dtype, sp.get_index_dtype(maxval=length)))
    return sp.csr_matrix((operator.data, columns[operator.indices],
                          operator.indptr), shape=(n_rows, length))


class DistributedSpMV:
    """One rank's persistent distributed SpMV.

    Construction is collective: every rank of the communicator builds its own
    instance with the same matrix and mapping.  ``multiply`` takes the rank's
    slice of the input vector (column partition), performs the halo exchange
    through the configured neighborhood-collective variant, multiplies the
    rank's rows of the stacked operator by ``[x_local | halo]``, and returns
    its slice of the output vector (row partition) — bit for bit the rows
    :class:`WorldSpMV` and ``matrix.matrix @ x`` compute.
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
        self.row_range = self.blocks.row_range
        self.col_range = self.blocks.col_range
        self.n_local_rows = self.blocks.n_local_rows    # output entries owned
        self.n_local_cols = self.blocks.n_local_cols    # input entries owned

        # The collective is built from the pattern's index arrays directly —
        # no per-item list conversion at the boundary.  An injected
        # ``collective`` (e.g. from a batched ``neighbor_alltoallv_init_many``
        # covering a whole hierarchy's setup) skips the per-instance gather.
        if collective is None:
            collective = _init_rank_collective(comm, pattern_from_parcsr(matrix),
                                               mapping, variant, strategy)
        self.collective = collective
        # Index arrays from the local vector to the dense exchange input, and
        # from the dense halo output to its place behind ``x_local``.
        self._buffer = np.zeros(self.blocks.operator.shape[1], dtype=np.float64)
        self._owned_positions = self.collective.owned_item_ids - self.col_range[0]
        self._halo_positions = self.n_local_cols + np.searchsorted(
            self.blocks.col_map_offd, self.collective.recv_item_ids)

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
        self._buffer[:x_local.size] = x_local
        self._buffer[self._halo_positions] = \
            self.collective.exchange(x_local[self._owned_positions])
        return self.blocks.operator @ self._buffer


class WorldSpMV:
    """World-stepped distributed SpMV: all ranks advance in lockstep.

    One world collective registered on the input vector, plus the matrix's
    :class:`~repro.sparse.parcsr.StackedBlocks` operator with its halo
    columns rewritten once onto the engine's round buffer, so ``multiply`` is
    what hypre runs per process, once for all ranks: one engine round — every
    receive step run, every message accounted — then one product, equal bit
    for bit to ``matrix.matrix @ x`` and to :class:`DistributedSpMV` on every
    rank of the envelope-routed runtime.
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
        self.n_rows, self.n_cols = matrix.matrix.shape  # output / input lengths
        self.row_range = (0, self.n_rows)
        # Item ids are global input-vector indices: the exchange runs on ``x``.
        self.collective = collective = neighbor_alltoallv_init_world(
            pattern_from_parcsr(matrix), mapping, variant=variant,
            strategy=strategy, engine=engine, profiler=profiler,
            runtime=runtime, n_workers=n_workers, vector_length=matrix.n_cols)
        self._handle = handle = collective.handle
        self._operator = _operator_on_buffer(
            matrix.stacked_blocks(), collective.world,
            collective.engine.halo_rows(handle),
            collective.engine.buffer_length(handle))

    def close(self) -> None:
        """Release the halo collective's private engine (workers, segments)."""
        self.collective.close()

    def __enter__(self) -> "WorldSpMV":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for the *global* ``(n_cols,)`` input array (the engine
        validates it): one engine round, one product over its round buffer."""
        return self._operator @ self.collective.engine.run(self._handle, x)


def distributed_spmv_results(matrix: ParCSRMatrix, mapping: RankMapping,
                             x: np.ndarray, *,
                             variant: Variant | str = Variant.PARTIAL,
                             strategy: BalanceStrategy = BalanceStrategy.BYTES,
                             timeout: float = 120.0,
                             runtime: str | None = None) -> np.ndarray:
    """Run a full distributed SpMV and assemble ``A @ x``.

    This is the one-call form used by tests and examples; ``x`` is the global
    input vector (``matrix.n_cols`` entries).  ``runtime="engine"`` (default)
    and ``"procs"`` run world-stepped through :class:`WorldSpMV`, single
    process or shared-memory worker pool; ``"threads"`` launches one
    simulated-rank thread per partition entry on the envelope-routed runtime
    — the pinned reference path, byte-identical to both.  ``None`` resolves
    through ``REPRO_RUNTIME``.  ``timeout`` bounds only the threaded run (the
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

    def program(comm: SimComm) -> np.ndarray:
        spmv = DistributedSpMV(comm, matrix, mapping, variant=variant, strategy=strategy)
        return spmv.multiply(x[slice(*spmv.col_range)])

    # Ranks own consecutive row ranges, in rank order.
    return np.concatenate(run_spmd(matrix.n_ranks, program, timeout=timeout))
