"""The per-rank scipy slicing split, kept as the oracle of the stacked one.

``ParCSRMatrix.local_blocks`` used to cut every rank's diag/offd blocks like
this — O(nnz) scipy slicing per rank; it now cuts them out of the one stacked
operator.  The loop lives on here, sharing no code with it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.parcsr import LocalBlocks, ParCSRMatrix


def reference_local_blocks(matrix: ParCSRMatrix, rank: int) -> LocalBlocks:
    """Diag/offd split of ``rank``'s rows against the column partition."""
    first, last = matrix.partition.row_range(rank)
    col_first, col_last = matrix.col_partition.row_range(rank)
    local = matrix.matrix[first:last, :].tocsc()
    diag = local[:, col_first:col_last].tocsr()
    if col_first > 0 or col_last < matrix.n_cols:
        left = local[:, :col_first]
        right = local[:, col_last:]
        offd_global = sp.hstack([left, right], format="csc")
        # Global column ids of the off-diagonal part, in the hstack order.
        col_ids = np.concatenate([np.arange(0, col_first),
                                  np.arange(col_last, matrix.n_cols)])
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
    return LocalBlocks(rank=rank, row_range=(first, last),
                       col_range=(col_first, col_last), diag=diag,
                       offd=offd, col_map_offd=col_map_offd)


def reference_blocks(matrix: ParCSRMatrix) -> list:
    """Every rank's reference split, in rank order."""
    return [reference_local_blocks(matrix, rank)
            for rank in range(matrix.n_ranks)]
