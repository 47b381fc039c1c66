"""ParCSR-style distributed matrices.

Hypre stores a distributed matrix as, per rank, a *diag* block (columns owned
by the rank) and an *offd* block (columns owned by other ranks) together with
``col_map_offd``, the sorted global indices of the off-diagonal columns.  The
off-diagonal columns are exactly the vector entries the rank must receive
before a SpMV — they define the communication pattern.

Here the matrix is kept globally (scipy CSR) next to its row and column
:class:`~repro.sparse.partition.RowPartition` (hypre's row and column starts).
:meth:`ParCSRMatrix.stacked_blocks` is every rank's rows at once — the same
``data`` and ``indptr`` with the column indices rewritten onto ``[x | halo]``
— and :meth:`ParCSRMatrix.local_blocks` cuts any rank's diag/offd view out of
it on demand.  A level operator ``A`` passes one partition for both; a grid
transfer ``P`` / ``Pᵀ`` passes two.  This "globally stored, locally viewed"
representation is what lets one Python process reason about patterns of
thousands of simulated ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import scipy.sparse as sp

from repro.sparse.partition import RowPartition
from repro.utils.arrays import unique_inverse
from repro.utils.errors import ValidationError


@dataclass
class LocalBlocks:
    """One rank's view of a ParCSR matrix.

    ``diag`` holds the columns the rank owns under the *column* partition
    (the input-vector entries it already has locally); ``offd`` holds every
    other referenced column, with ``col_map_offd`` giving their sorted global
    column indices — exactly the entries the rank must receive before a
    product.  ``operator`` is the two unsplit: the rank's rows over the
    columns ``[own | col_map_offd]``, entries in the assembled stored order.
    """

    rank: int
    row_range: tuple[int, int]
    col_range: tuple[int, int]
    diag: sp.csr_matrix
    offd: sp.csr_matrix
    col_map_offd: np.ndarray
    operator: sp.csr_matrix | None = None

    @property
    def n_local_rows(self) -> int:
        """Rows owned by the rank (output-vector entries)."""
        return self.diag.shape[0]

    @property
    def n_local_cols(self) -> int:
        """Columns owned by the rank (input-vector entries held locally)."""
        return self.diag.shape[1]

    @property
    def n_offd_cols(self) -> int:
        """Number of distinct off-process columns referenced by the rank."""
        return int(self.col_map_offd.size)


@dataclass
class StackedBlocks:
    """Every rank's rows as one operator over the columns ``[x | halo]``.

    ``operator`` shares ``data`` and ``indptr`` with the assembled matrix;
    only its column indices are new: a column the row's rank owns keeps its
    global index (``< n_cols``, the input vector ``x``), any other becomes
    ``n_cols + k`` with ``k`` its position in ``col_map_offd`` — every rank's
    sorted off-process global columns in rank order, delimited by
    ``offd_offsets``.  Entries keep their stored order, the summation order
    of a product: never ``sort_indices`` / ``sum_duplicates`` it.
    """

    operator: sp.csr_matrix
    col_map_offd: np.ndarray
    offd_offsets: np.ndarray


def _stack_rank_blocks(csr: sp.csr_matrix, row_partition: RowPartition,
                       col_partition: RowPartition) -> StackedBlocks:
    """Every rank's diag/offd classification in one global pass, kept stacked:
    each stored entry is compared with its owning rank's column range once,
    and all offd column maps come from one sort over ``(rank, column)`` keys."""
    n_ranks = row_partition.n_ranks
    n_rows, n_cols = csr.shape
    col_offsets = col_partition.offsets
    per_rank = np.diff(csr.indptr[row_partition.offsets])
    cols = csr.indices
    offd = np.flatnonzero((cols < np.repeat(col_offsets[:-1], per_rank))
                          | (cols >= np.repeat(col_offsets[1:], per_rank)))
    # One sort over (rank, global column) yields every rank's sorted unique
    # column map and, via the inverse, each entry's position in it.
    rank_keys = np.arange(n_ranks + 1, dtype=np.int64) * n_cols
    keys = np.repeat(rank_keys[:-1], per_rank)[offd] + cols[offd]
    unique_keys, inverse = unique_inverse(keys)
    width = n_cols + unique_keys.size
    indices = cols.astype(np.result_type(cols.dtype,
                                         sp.get_index_dtype(maxval=width)))
    indices[offd] = n_cols + inverse
    return StackedBlocks(
        operator=sp.csr_matrix((csr.data, indices, csr.indptr),
                               shape=(n_rows, width)),
        col_map_offd=unique_keys % np.int64(max(n_cols, 1)),
        offd_offsets=np.searchsorted(unique_keys, rank_keys))


def check_one_partition(matrix: "ParCSRMatrix", what: str) -> None:
    """Reject a grid-transfer operator where ``what`` needs a square level operator."""
    if matrix.col_partition != matrix.partition:
        raise ValidationError(
            f"{what} requires a square operator distributed over one partition "
            "(col_partition == partition)"
        )


class ParCSRMatrix:
    """A globally stored sparse matrix distributed over simulated ranks.

    Rows are owned under ``partition``, columns (the input vector of a
    product) under ``col_partition``, which defaults to ``partition`` — the
    square level operator ``A``.  AMG grid transfers pass two: a prolongation
    ``P`` has its rows on the fine partition and its columns on the coarse
    one, and its transpose the other way.  The diag/offd split is taken
    against the *column* partition (see :class:`LocalBlocks`).

    Operator arrays are shared, not copied: ``matrix`` is the CSR handed in
    (made canonical first, if it has unsorted indices or duplicates) and
    :meth:`stacked_blocks` adds only a column-index array, so :meth:`spmv` and
    every distributed product sum the same ``data`` in the same order.
    """

    def __init__(self, matrix: sp.spmatrix, partition: RowPartition,
                 col_partition: RowPartition | None = None):
        matrix = sp.csr_matrix(matrix)
        if not matrix.has_canonical_format:     # unsorted indices or duplicates
            matrix = matrix.copy()
            matrix.sum_duplicates()
        if col_partition is None:
            col_partition = partition
        if matrix.shape[0] != partition.n_rows:
            raise ValidationError(
                f"matrix has {matrix.shape[0]} rows but partition covers "
                f"{partition.n_rows}"
            )
        if matrix.shape[1] != col_partition.n_rows:
            raise ValidationError(
                f"matrix has {matrix.shape[1]} columns but the column partition "
                f"covers {col_partition.n_rows}"
            )
        if partition.n_ranks != col_partition.n_ranks:
            raise ValidationError(
                "row and column partitions must span the same communicator "
                f"({partition.n_ranks} vs {col_partition.n_ranks} ranks)"
            )
        self.matrix = matrix
        self.partition = partition
        self.col_partition = col_partition
        self._block_cache: Dict[int, LocalBlocks] = {}
        self._stacked: StackedBlocks | None = None

    # -- global properties ---------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Global number of rows (output-vector length)."""
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        """Global number of columns (input-vector length)."""
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        """Global number of stored non-zeros."""
        return int(self.matrix.nnz)

    @property
    def n_ranks(self) -> int:
        """Number of ranks in the (shared) partitions."""
        return self.partition.n_ranks

    def transpose(self) -> "ParCSRMatrix":
        """The transposed operator with the partitions swapped."""
        return ParCSRMatrix(self.matrix.T.tocsr(), self.col_partition,
                            self.partition)

    # -- per-rank views ---------------------------------------------------------------

    def stacked_blocks(self) -> StackedBlocks:
        """All ranks' rows as one operator over ``[x | halo]``: one pass, cached."""
        if self._stacked is None:
            self._stacked = _stack_rank_blocks(self.matrix, self.partition,
                                               self.col_partition)
        return self._stacked

    def local_blocks(self, rank: int) -> LocalBlocks:
        """Diag/offd split of ``rank``'s rows against the column partition,
        cut out of :meth:`stacked_blocks` in stored entry order (cached)."""
        if rank in self._block_cache:
            return self._block_cache[rank]
        stacked = self.stacked_blocks()
        first, last = self.partition.row_range(rank)
        col_first, col_last = self.col_partition.row_range(rank)
        g0, g1 = stacked.offd_offsets[rank:rank + 2].tolist()
        n_rows, n_own, n_offd = last - first, col_last - col_first, g1 - g0
        rows = stacked.operator[first:last]
        halo = rows.indices >= self.n_cols
        local = rows.indices - np.where(halo, self.n_cols + g0 - n_own, col_first)
        offd_indptr = np.concatenate(([0], np.cumsum(halo)))[rows.indptr]
        blocks = self._block_cache[rank] = LocalBlocks(
            rank=rank, row_range=(first, last), col_range=(col_first, col_last),
            diag=sp.csr_matrix((rows.data[~halo], local[~halo],
                                rows.indptr - offd_indptr), shape=(n_rows, n_own)),
            offd=sp.csr_matrix((rows.data[halo], local[halo] - n_own,
                                offd_indptr), shape=(n_rows, n_offd)),
            col_map_offd=stacked.col_map_offd[g0:g1],
            operator=sp.csr_matrix((rows.data, local, rows.indptr),
                                   shape=(n_rows, n_own + n_offd)))
        return blocks

    def all_local_blocks(self) -> List[LocalBlocks]:
        """``local_blocks(rank)`` of every rank, in rank order."""
        return [self.local_blocks(rank) for rank in range(self.n_ranks)]

    # -- convenience -------------------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Sequential reference product ``A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValidationError(f"x must have shape ({self.n_cols},), got {x.shape}")
        return self.matrix @ x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ParCSRMatrix(shape={self.matrix.shape}, nnz={self.nnz}, "
                f"ranks={self.n_ranks})")
