"""Direct interpolation.

Classical direct interpolation (Stüben): an F-point interpolates from its
strong C-neighbours with weights proportional to the matrix couplings, scaled
so that constants are (approximately) reproduced; C-points are injected.  This
is the simplest of BoomerAMG's interpolation operators and, combined with PMIS
coarsening, produces the growing-stencil coarse operators whose communication
behaviour the paper studies.

``P`` is built in passes over ``A``'s stored entries, never row by row: rows
are expanded once (``np.repeat`` over ``indptr``); an entry is *strong-C* when
its column is a C-point and its ``(row, col)`` is in ``S``'s structure (one
sorted-key ``searchsorted`` over ``row * n + col``, so explicit zeros in ``S``
count and ``S`` entries absent from ``A`` contribute nothing); the four row sums
are ``np.bincount`` with weights; ``alpha``, ``beta`` and the lumped diagonal are
vector expressions; injections and weights go into one ``csr_matrix`` call.

Contract, pinned against the row-loop oracle by
``tests/amg/test_interp_equivalence.py``: pattern exactly the loop's, weights to
``rtol=1e-13``.  ``bincount`` adds a row left to right, as ``ndarray.sum`` does
below eight terms (rows with < 8 off-diagonals are bit-equal) but not beyond.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.amg.coarsen import CPOINT, SplittingResult
from repro.utils.arrays import INDEX_DTYPE
from repro.utils.errors import SolverError, ValidationError


def direct_interpolation(matrix: sp.spmatrix, strength: sp.spmatrix,
                         splitting: SplittingResult) -> sp.csr_matrix:
    """Build the prolongation matrix ``P`` (n_fine x n_coarse).

    For an F-point ``i`` with strong C-neighbours ``C_i`` the weights are

        ``w_ij = -(a_ij / a_ii) * (sum_k a_ik) / (sum_{j in C_i} a_ij)``

    computed separately over negative and positive off-diagonal couplings (the
    discretisations used here only have negative ones).  F-points with no
    strong C-neighbour get an empty row — their error is left to relaxation.

    1-D Poisson on five points, coarsened to points 0, 2 and 4: each F-point
    averages its two C-neighbours.

    >>> A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(5, 5), format="csr")
    >>> S = sp.csr_matrix(abs(A - sp.diags(A.diagonal())))
    >>> cf = SplittingResult(splitting=np.array([1, 0, 1, 0, 1]),
    ...                      coarse_index=np.array([0, -1, 1, -1, 2]))
    >>> print(direct_interpolation(A, S, cf).toarray())
    [[1.  0.  0. ]
     [0.5 0.5 0. ]
     [0.  1.  0. ]
     [0.  0.5 0.5]
     [0.  0.  1. ]]
    """
    A = sp.csr_matrix(matrix)
    S = sp.csr_matrix(strength)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValidationError("interpolation requires a square matrix")
    if splitting.splitting.shape != (n,):
        raise ValidationError("splitting size does not match the matrix")
    if splitting.n_coarse == 0:
        raise SolverError("cannot interpolate to an empty coarse grid")

    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise SolverError("direct interpolation requires non-zero diagonal entries")

    # One row id per stored entry; everything below is a pass over the entries.
    is_coarse = splitting.splitting == CPOINT
    row_ids = np.arange(n, dtype=INDEX_DTYPE)
    rows = np.repeat(row_ids, np.diff(A.indptr))
    cols = A.indices.astype(INDEX_DTYPE, copy=False)
    vals = A.data

    # Strong-C entries of F-rows.  The -1 sentinel sorts below every key, so
    # "last key <= query" always exists: no bounds case, none for an empty S.
    strong_keys = np.sort(np.append(
        np.repeat(row_ids, np.diff(S.indptr)) * n + S.indices, -1))
    keys = rows * n + cols
    in_strength = strong_keys[np.searchsorted(strong_keys, keys, side="right") - 1] == keys
    strong_c = in_strength & is_coarse[cols] & ~is_coarse[rows]

    def row_sum(mask: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=np.where(mask, vals, 0.0), minlength=n)

    off_diag = cols != rows
    neg_c = strong_c & (vals < 0)
    pos_c = strong_c & (vals > 0)
    neg_total, neg_c_total = row_sum(off_diag & (vals < 0)), row_sum(neg_c)
    pos_total, pos_c_total = row_sum(off_diag & (vals > 0)), row_sum(pos_c)

    # alpha / beta are 0 where the strong-C sum is 0; positive couplings with no
    # positive C-neighbour are lumped into the diagonal (BoomerAMG's treatment).
    alpha = np.divide(neg_total, neg_c_total, out=np.zeros(n), where=neg_c_total != 0)
    beta = np.divide(pos_total, pos_c_total, out=np.zeros(n), where=pos_c_total != 0)
    scale = diag + np.where(pos_c_total == 0, pos_total, 0.0)

    weighted = np.flatnonzero(neg_c | pos_c)
    w_rows = rows[weighted]
    factor = np.where(neg_c[weighted], alpha[w_rows], beta[w_rows])
    weights = -factor * vals[weighted] / scale[w_rows]

    coarse_rows = np.flatnonzero(is_coarse)
    p_rows = np.concatenate([coarse_rows, w_rows])
    p_cols = splitting.coarse_index[np.concatenate([coarse_rows, cols[weighted]])]
    p_vals = np.concatenate([np.ones(coarse_rows.size), weights])
    P = sp.csr_matrix((p_vals, (p_rows, p_cols)), shape=(n, splitting.n_coarse))
    P.sum_duplicates()
    return P
