"""Sparse matrix-vector multiplication, sequential and distributed.

``sequential_spmv`` is the reference answer.  :class:`WorldSpMV` is the
distributed product for all ranks at once, the structure of
``hypre_ParCSRMatrixMatvec`` with its point-to-point halo replaced by a
neighborhood collective (any variant).  It is the one product for every
operator of the solve phase: the input vector lives on the matrix's column
partition and the output on its row partition, so a level operator ``A``
(one partition) and the grid transfers ``P`` / ``Pᵀ`` (two) run through the
same code.

The halo exchange is registered on the input vector itself, so one round
through the batched :class:`~repro.simmpi.engine.ExchangeEngine` turns ``x``
into the engine's ``[x | halo]`` work array, and the product is one CSR — the
assembled matrix with its column indices rewritten onto that array — times
it.  No pack, no unpack, no diag/offd split, no per-rank loop.  A row sums in
the assembled matrix's stored order, so every product equals
``matrix.matrix @ x`` to the bit: the correctness argument for replacing
Hypre's point-to-point communication with the optimized collectives.

Example (doctest): distribute a tiny matrix over 4 simulated ranks and check
the world-stepped product against the sequential reference.

>>> import numpy as np
>>> from repro.sparse import ParCSRMatrix, RowPartition, poisson_2d
>>> from repro.sparse.spmv import WorldSpMV, sequential_spmv
>>> from repro.topology import paper_mapping
>>> matrix = ParCSRMatrix(poisson_2d((6, 6)), RowPartition.even(36, 4))
>>> mapping = paper_mapping(4, ranks_per_node=2)
>>> x = np.arange(36, dtype=np.float64)
>>> with WorldSpMV(matrix, mapping, variant="full") as spmv:
...     product = spmv.multiply(x)
>>> product.tobytes() == sequential_spmv(matrix, x).tobytes()
True
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
# The kernel ``csr_matrix @ vector`` ends in; public ``@`` has no ``out=``.
from scipy.sparse._sparsetools import csr_matvec

from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.plan import Variant
from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.profiler import TrafficProfiler
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


class WorldSpMV:
    """World-stepped distributed SpMV: all ranks advance in lockstep.

    One world collective registered on the input vector, plus the matrix's
    :class:`~repro.sparse.parcsr.StackedBlocks` operator with its halo
    columns rewritten once onto the engine's round buffer, so ``multiply`` is
    what hypre runs per process, once for all ranks: one engine round — every
    receive step run, every message accounted — then one product, equal bit
    for bit to ``matrix.matrix @ x``.  The product is the ``csr_matvec``
    call ``operator @ buffer`` itself makes, so it can be written into a
    caller's ``out`` array instead of a new one.
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
        # Item ids are global input-vector indices: the exchange runs on ``x``.
        self.collective = collective = neighbor_alltoallv_init_world(
            pattern_from_parcsr(matrix), mapping, variant=variant,
            strategy=strategy, engine=engine, profiler=profiler,
            runtime=runtime, n_workers=n_workers, vector_length=matrix.n_cols)
        self._handle = handle = collective.handle
        self._operator = operator = _operator_on_buffer(
            matrix.stacked_blocks(), collective.world,
            collective.engine.halo_rows(handle),
            collective.engine.buffer_length(handle))
        # What ``operator @ buffer`` passes to ``csr_matvec``, and the dtype
        # of the product it allocates.
        self._matvec_args = (operator.shape[0], operator.shape[1],
                             operator.indptr, operator.indices, operator.data)
        self._dtype = np.result_type(operator.dtype, collective.world.spec.dtype)

    def close(self) -> None:
        """Release the halo collective's private engine (workers, segments)."""
        self.collective.close()

    def __enter__(self) -> "WorldSpMV":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def multiply(self, x: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """``A @ x`` for the *global* ``(n_cols,)`` input array (the engine
        validates it): one engine round, one product over its round buffer.

        The product goes into ``out`` when given — a writeable contiguous
        ``(n_rows,)`` array of the product's dtype (float64 for a real
        operator) other than ``x``, overwritten — and into a new array
        otherwise; either way it is returned.
        """
        if out is None:
            out = np.zeros(self.n_rows, dtype=self._dtype)
        elif not isinstance(out, np.ndarray) or out is x \
                or out.shape != (self.n_rows,) or out.dtype != self._dtype \
                or not (out.flags.c_contiguous and out.flags.writeable):
            raise ValidationError(
                f"out must be a writeable contiguous {self._dtype} array of "
                f"shape ({self.n_rows},) other than x, got "
                f"{getattr(out, 'dtype', type(out))} "
                f"{getattr(out, 'shape', '')}")
        else:
            out.fill(0)
        csr_matvec(*self._matvec_args,
                   self.collective.engine.run(self._handle, x), out)
        return out
