"""ParCSR-style distributed matrices.

Hypre stores a distributed matrix as, per rank, a *diag* block (columns owned
by the rank) and an *offd* block (columns owned by other ranks) together with
``col_map_offd``, the sorted global indices of the off-diagonal columns.  The
off-diagonal columns are exactly the vector entries the rank must receive
before a SpMV — they define the communication pattern.

Here the matrix is kept globally (scipy CSR) next to its row and column
:class:`~repro.sparse.partition.RowPartition` (hypre's row and column starts);
:meth:`ParCSRMatrix.local_blocks` materialises any rank's diag/offd view on
demand.  A level operator ``A`` passes one partition for both; a grid transfer
``P`` / ``Pᵀ`` passes two.  This "globally stored, locally viewed"
representation is what lets one Python process reason about patterns of
thousands of simulated ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import scipy.sparse as sp

from repro.sparse.partition import RowPartition
from repro.utils.arrays import counts_to_displs
from repro.utils.errors import ValidationError


@dataclass
class LocalBlocks:
    """One rank's view of a ParCSR matrix.

    ``diag`` holds the columns the rank owns under the *column* partition
    (the input-vector entries it already has locally); ``offd`` holds every
    other referenced column, with ``col_map_offd`` giving their sorted global
    column indices — exactly the entries the rank must receive before a
    product.
    """

    rank: int
    row_range: tuple[int, int]
    col_range: tuple[int, int]
    diag: sp.csr_matrix
    offd: sp.csr_matrix
    col_map_offd: np.ndarray

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
    """Every rank's diag/offd blocks as rows of two world-sized operators.

    ``diag`` is block-diagonal over the global columns; ``offd``'s columns
    index ``col_map_offd``, every rank's sorted off-process global columns in
    rank order, delimited by ``offd_offsets``.  Rows keep the rank blocks'
    stored entry order — the summation order of a product — so never
    ``sort_indices`` / ``sum_duplicates`` either operator.
    """

    diag: sp.csr_matrix
    offd: sp.csr_matrix
    col_map_offd: np.ndarray
    offd_offsets: np.ndarray


def _stack_rank_blocks(matrix: sp.csr_matrix, row_partition: RowPartition,
                       col_partition: RowPartition) -> StackedBlocks:
    """Every rank's diag/offd split in one global pass, kept stacked.

    Where ``local_blocks`` costs O(nnz) scipy slicing *per rank*, this
    classifies every stored entry against its owning rank's column range once
    and takes all offd column maps from one sort over ``(rank, column)`` keys.
    Entry order is preserved row by row, so sorted indices stay sorted.
    """
    csr = matrix
    if not csr.has_canonical_format:        # unsorted indices or duplicates
        csr = csr.copy()
        csr.sum_duplicates()
    n_ranks = row_partition.n_ranks
    n_rows, n_cols = csr.shape
    col_offsets = col_partition.offsets
    entry_row = np.repeat(np.arange(n_rows, dtype=np.int64),
                          np.diff(csr.indptr))
    row_rank = np.repeat(np.arange(n_ranks, dtype=np.int64),
                         np.diff(row_partition.offsets))
    entry_rank = row_rank[entry_row] if n_rows else entry_row
    cols = csr.indices.astype(np.int64, copy=False)
    in_diag = (cols >= col_offsets[entry_rank]) \
        & (cols < col_offsets[entry_rank + 1])

    def indptr_of(mask: np.ndarray) -> np.ndarray:
        return counts_to_displs(np.bincount(entry_row[mask], minlength=n_rows))

    diag = sp.csr_matrix((csr.data[in_diag], cols[in_diag], indptr_of(in_diag)),
                         shape=(n_rows, n_cols))
    offd_mask = ~in_diag
    # One sort over (rank, global column) yields every rank's sorted unique
    # column map and, via the inverse, each entry's stacked offd column.
    keys = entry_rank[offd_mask] * np.int64(n_cols) + cols[offd_mask]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    offd = sp.csr_matrix((csr.data[offd_mask], inverse, indptr_of(offd_mask)),
                         shape=(n_rows, unique_keys.size))
    rank_keys = np.arange(n_ranks + 1, dtype=np.int64) * n_cols
    return StackedBlocks(diag=diag, offd=offd,
                         col_map_offd=unique_keys % np.int64(max(n_cols, 1)),
                         offd_offsets=np.searchsorted(unique_keys, rank_keys))


def _row_block(stacked: sp.csr_matrix, first: int, last: int,
               col_first: int, col_last: int) -> sp.csr_matrix:
    """Rows ``[first, last)`` of a stacked operator, columns rebased to one rank's."""
    lo, hi = stacked.indptr[first], stacked.indptr[last]
    return sp.csr_matrix(
        (stacked.data[lo:hi], stacked.indices[lo:hi] - col_first,
         stacked.indptr[first:last + 1] - lo),
        shape=(last - first, col_last - col_first))


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
    """

    def __init__(self, matrix: sp.spmatrix, partition: RowPartition,
                 col_partition: RowPartition | None = None):
        matrix = sp.csr_matrix(matrix)
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

    def with_partition(self, partition: RowPartition) -> "ParCSRMatrix":
        """Same matrix, different distribution."""
        return ParCSRMatrix(self.matrix, partition)

    def transpose(self) -> "ParCSRMatrix":
        """The transposed operator with the partitions swapped."""
        return ParCSRMatrix(self.matrix.T.tocsr(), self.col_partition,
                            self.partition)

    # -- per-rank views ---------------------------------------------------------------

    def local_blocks(self, rank: int) -> LocalBlocks:
        """Diag/offd split of ``rank``'s rows against the column partition (cached)."""
        if rank in self._block_cache:
            return self._block_cache[rank]
        first, last = self.partition.row_range(rank)
        col_first, col_last = self.col_partition.row_range(rank)
        local = self.matrix[first:last, :].tocsc()
        diag = local[:, col_first:col_last].tocsr()
        if col_first > 0 or col_last < self.n_cols:
            left = local[:, :col_first]
            right = local[:, col_last:]
            offd_global = sp.hstack([left, right], format="csc")
            # Global column ids of the off-diagonal part, in the hstack order.
            col_ids = np.concatenate([np.arange(0, col_first),
                                      np.arange(col_last, self.n_cols)])
        else:
            offd_global = sp.csc_matrix((last - first, 0))
            col_ids = np.empty(0, dtype=np.int64)
        # Keep only columns that actually carry non-zeros; their sorted global
        # indices form col_map_offd, as in hypre.
        nnz_per_col = np.diff(offd_global.indptr)
        used = np.flatnonzero(nnz_per_col > 0)
        col_map_offd = col_ids[used].astype(np.int64)
        order = np.argsort(col_map_offd)
        col_map_offd = col_map_offd[order]
        offd = offd_global[:, used[order]].tocsr()
        blocks = LocalBlocks(rank=rank, row_range=(first, last),
                             col_range=(col_first, col_last), diag=diag,
                             offd=offd, col_map_offd=col_map_offd)
        self._block_cache[rank] = blocks
        return blocks

    def stacked_blocks(self) -> StackedBlocks:
        """All ranks' diag/offd blocks as one stacked pair: one pass, cached."""
        if self._stacked is None:
            self._stacked = _stack_rank_blocks(self.matrix, self.partition,
                                               self.col_partition)
        return self._stacked

    def all_local_blocks(self) -> List[LocalBlocks]:
        """Every rank's diag/offd split, sliced out of :meth:`stacked_blocks`.

        Equal to ``[local_blocks(r) for r in range(n_ranks)]`` in one pass;
        already-cached ranks keep their existing block objects.
        """
        if len(self._block_cache) < self.n_ranks:
            stacked = self.stacked_blocks()
            for rank in range(self.n_ranks):
                if rank in self._block_cache:
                    continue
                rows = self.partition.row_range(rank)
                cols = self.col_partition.row_range(rank)
                g0, g1 = stacked.offd_offsets[rank:rank + 2].tolist()
                self._block_cache[rank] = LocalBlocks(
                    rank=rank, row_range=rows, col_range=cols,
                    diag=_row_block(stacked.diag, *rows, *cols),
                    offd=_row_block(stacked.offd, *rows, g0, g1),
                    col_map_offd=stacked.col_map_offd[g0:g1])
        return [self._block_cache[rank] for rank in range(self.n_ranks)]

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
