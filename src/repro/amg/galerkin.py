"""Galerkin coarse-grid operators.

The coarse operator is the triple product ``A_c = R A P`` with ``R = P^T``;
small entries can optionally be truncated, which is what keeps coarse operators
from filling in completely (hypre's ``truncation factor``).

Truncation is three passes over the stored entries, never a row loop: per-row
maximum off-diagonal magnitude (one segmented ``np.maximum``), drop mask (one
comparison against it), dropped values ``bincount``-ed onto the diagonal.  The
result is the row-loop oracle's under ``tests/amg/`` exactly, but for rows that
drop eight or more entries: those are summed left to right (``rtol=1e-13``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.arrays import _segment_max
from repro.utils.errors import ValidationError


def galerkin_product(A: sp.spmatrix, P: sp.spmatrix, *,
                     truncation: float = 0.0) -> sp.csr_matrix:
    """Compute ``P^T A P`` and optionally drop relatively small entries.

    Parameters
    ----------
    truncation:
        Entries smaller (in magnitude) than ``truncation`` times the largest
        off-diagonal magnitude of their row are dropped and lumped onto the
        diagonal, preserving row sums.  0 disables truncation.
    """
    A = sp.csr_matrix(A)
    P = sp.csr_matrix(P)
    if A.shape[0] != A.shape[1]:
        raise ValidationError("A must be square")
    if P.shape[0] != A.shape[0]:
        raise ValidationError("P row count must match A")
    coarse = (P.T @ A @ P).tocsr()
    coarse.sum_duplicates()
    coarse.eliminate_zeros()
    if truncation <= 0.0:
        return coarse
    return _truncate(coarse, truncation)


def _truncate(matrix: sp.csr_matrix, truncation: float) -> sp.csr_matrix:
    n = matrix.shape[0]
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    rows = np.repeat(np.arange(n), np.diff(indptr))
    off = indices != rows
    magnitude = np.abs(data)
    row_max = _segment_max(np.where(off, magnitude, 0.0), indptr)
    drop = off & (magnitude < truncation * row_max[rows])
    diag_addition = np.bincount(rows, weights=np.where(drop, data, 0.0), minlength=n)
    keep = ~drop
    truncated = sp.csr_matrix((data[keep], (rows[keep], indices[keep])),
                              shape=matrix.shape)
    truncated = truncated + sp.diags(diag_addition)
    truncated = sp.csr_matrix(truncated)
    truncated.eliminate_zeros()
    return truncated
