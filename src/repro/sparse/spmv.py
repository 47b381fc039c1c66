"""Distributed sparse matrix-vector multiplication.

``matrix.spmv(x)`` on the assembled matrix is the reference answer.
:class:`WorldSpMV` is the distributed product for all ranks at once, the
structure of ``hypre_ParCSRMatrixMatvec`` with its point-to-point halo
replaced by a neighborhood collective (any variant).  It is the one
product for every operator of the solve phase: the input vector lives on the
matrix's column partition and the output on its row partition, so a level
operator ``A`` (one partition) and the grid transfers ``P`` / ``Pᵀ`` (two)
run through the same code.

The halo exchange is registered on the input vector itself, so one round
through the batched :class:`~repro.simmpi.engine.ExchangeEngine` turns ``x``
into the engine's ``[x | halo]`` work array, the halo in ``col_map_offd``
order, and the product is one kernel call over the matrix's cached stacked
operator, whose columns are that array.  No pack, no unpack, no diag/offd
split, no per-rank loop.  The kernel is picked once per operator from its
row structure: regular rows run SciPy's row loop ``csr_matvec``; rows whose
entry counts keep changing (an AMG prolongation mixes one-entry C rows with
two-entry F rows) run ``coo_matvec``, a branch-free stream over the same
entries with a row index per entry.  Either way a row sums in the assembled
matrix's stored order, so every product equals ``matrix.matrix @ x`` to the
bit (on NaN input, up to the sign of a NaN): the correctness argument for
replacing Hypre's point-to-point communication with the optimized
collectives.

Example (doctest): distribute a tiny matrix over 4 simulated ranks and check
the world-stepped product against the sequential reference.

>>> import numpy as np
>>> from repro.sparse import ParCSRMatrix, RowPartition, WorldSpMV
>>> from repro.sparse.stencils import poisson_2d
>>> from repro.topology import paper_mapping
>>> matrix = ParCSRMatrix(poisson_2d((6, 6)), RowPartition.even(36, 4))
>>> mapping = paper_mapping(4, ranks_per_node=2)
>>> x = np.arange(36, dtype=np.float64)
>>> with WorldSpMV(matrix, mapping, variant="full") as spmv:
...     product = spmv.multiply(x)
>>> product.tobytes() == matrix.spmv(x).tobytes()
True
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
# The kernels ``csr_matrix @ vector`` and ``coo_matrix @ vector`` end in;
# public ``@`` has no ``out=``.
from scipy.sparse._sparsetools import coo_matvec, csr_matvec

from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.plan import Variant
from repro.simmpi.engine import ExchangeEngine
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix, StackedBlocks
from repro.topology.mapping import RankMapping, check_mapping_covers
from repro.utils.errors import ValidationError

#: An operator runs the entry stream when more than this share of its
#: adjacent rows differ in entry count.  Past it the row loop mispredicts
#: its row-end branch so often that the entry stream wins despite reading a
#: row index per entry (3x on an AMG ``P``).
IRREGULAR_ROWS = 0.25


def _row_loop(operator: sp.csr_matrix):
    """``csr_matvec`` and the arguments it takes before ``x, y``: one running
    sum per row, stored to ``y[i]`` at the row's end."""
    return csr_matvec, (*operator.shape, operator.indptr, operator.indices,
                        operator.data)


def _entry_stream(operator: sp.csr_matrix):
    """``coo_matvec`` and the arguments it takes before ``x, y``: one pass
    over the stored entries with a row-index column built here, adding each
    ``a · x[j]`` into ``y[i]``: SciPy's own COO product.  Same entries,
    same order, same additions as the row loop's running sum, so the same
    bytes with no per-row branch.  (Where NaNs of opposite sign meet in a
    row, the two compiled kernels keep different ones.)"""
    lengths = np.diff(operator.indptr)
    rows = np.repeat(np.arange(lengths.size, dtype=operator.indices.dtype),
                     lengths)
    return coo_matvec, (int(operator.indptr[-1]), rows, operator.indices,
                        operator.data)


def _kernel_of(operator: sp.csr_matrix):
    """``(kernel, arguments)``: ``kernel(*arguments, x, y)`` adds
    ``operator @ x`` into ``y`` — the entry stream when more than
    :data:`IRREGULAR_ROWS` of adjacent rows change length, else the row loop.

    >>> from scipy.sparse import csr_matrix
    >>> kernel, arguments = _kernel_of(csr_matrix([[1.0, 2.0], [0.0, 3.0]]))
    >>> kernel.__name__, arguments[1].tolist()
    ('coo_matvec', [0, 0, 1])
    >>> _kernel_of(csr_matrix(np.eye(3)))[0].__name__
    'csr_matvec'
    """
    lengths = np.diff(operator.indptr)
    changes = np.count_nonzero(lengths[1:] != lengths[:-1])
    irregular = changes > IRREGULAR_ROWS * max(lengths.size - 1, 0)
    return (_entry_stream if irregular else _row_loop)(operator)


def _operator_on_buffer(stacked: StackedBlocks, world) -> sp.csr_matrix:
    """``stacked.operator`` over the engine's round buffer ``[x | halo]``,
    halo entry ``k`` the value of ``world.result_items_all[k]``.

    A pattern derived from this matrix delivers every rank's halo in
    ``col_map_offd`` order, so the buffer is the operator's own column
    layout and the cached operator itself is returned.  Any other order is
    folded into the column indices (entry order untouched), and a rank whose
    delivered ids are not exactly its column map raises instead of hitting
    a neighbouring column.
    """
    offsets, ids = world.result_offsets, world.result_items_all
    operator = stacked.operator
    if np.array_equal(offsets, stacked.offd_offsets) \
            and np.array_equal(ids, stacked.col_map_offd):
        return operator
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
    n_cols = operator.shape[1] - order.size
    columns = np.concatenate([np.arange(n_cols), n_cols + order]).astype(
        operator.indices.dtype)
    return sp.csr_matrix((operator.data, columns[operator.indices],
                          operator.indptr), shape=operator.shape)


class WorldSpMV:
    """World-stepped distributed SpMV: all ranks advance in lockstep.

    One world collective registered on the input vector, plus the matrix's
    cached :class:`~repro.sparse.parcsr.StackedBlocks` operator, whose
    columns ``[x | halo]`` are the engine's round buffer, so ``multiply`` is
    what hypre runs per process, once for all ranks: one engine round — the
    halo gathered, every message accounted — then one product, equal bit
    for bit to ``matrix.matrix @ x``.  The product is one SciPy kernel call
    picked at set-up from the operator's rows (``csr_matvec``, or for
    irregular rows ``coo_matvec`` over the same entries in the same order),
    so it can be written into a caller's ``out`` array instead of a new one.

    The exchange runs on ``engine``; without one it gets a private default
    engine (``REPRO_RUNTIME`` picks its runtime).  A profiler, a runtime or
    a worker count is a property of the engine a caller builds.
    """

    def __init__(self, matrix: ParCSRMatrix, mapping: RankMapping, *,
                 variant: Variant | str = Variant.PARTIAL,
                 strategy: BalanceStrategy = BalanceStrategy.BYTES,
                 engine: ExchangeEngine | None = None):
        check_mapping_covers(mapping, matrix.n_ranks,
                             "the matrix partition")
        self.matrix = matrix
        self.mapping = mapping
        self.n_ranks = matrix.n_ranks
        self.n_rows, self.n_cols = matrix.matrix.shape  # output / input lengths
        # Item ids are global input-vector indices: the exchange runs on ``x``.
        self.collective = collective = neighbor_alltoallv_init_world(
            pattern_from_parcsr(matrix), mapping, variant=variant,
            strategy=strategy, engine=engine, vector_length=matrix.n_cols)
        self._handle = collective.handle
        self._operator = operator = _operator_on_buffer(
            matrix.stacked_blocks(), collective.world)
        # The product's kernel and what it takes before ``buffer, out``, and
        # the dtype of the product ``operator @ buffer`` allocates.
        self._kernel, self._kernel_args = _kernel_of(operator)
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
        operator) sharing no memory with ``x``, overwritten — and into a new
        array otherwise; either way it is returned.
        """
        if out is None:
            out = np.zeros(self.n_rows, dtype=self._dtype)
        elif not isinstance(out, np.ndarray) or np.may_share_memory(out, x) \
                or out.shape != (self.n_rows,) or out.dtype != self._dtype \
                or not (out.flags.c_contiguous and out.flags.writeable):
            raise ValidationError(
                f"out must be a writeable contiguous {self._dtype} array of "
                f"shape ({self.n_rows},) sharing no memory with x, got "
                f"{getattr(out, 'dtype', type(out))} "
                f"{getattr(out, 'shape', '')}")
        else:
            out.fill(0)
        self._kernel(*self._kernel_args,
                     self.collective.engine.run(self._handle, x), out)
        return out
