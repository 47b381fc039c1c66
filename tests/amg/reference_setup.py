"""Row-loop oracles of the AMG set-up passes.

``direct_interpolation`` and ``_truncate`` are the bodies ``amg/interp.py`` and
``amg/galerkin.py`` had before they became passes over the expanded CSR
entries, moved here verbatim: one Python iteration per row, ``np.isin`` per
F-row.  They are far too slow to ship (98 % of ``build_hierarchy``) and exist
only so that ``test_interp_equivalence.py`` can pin the array passes to them —
sparsity pattern exactly, weights to ``rtol=1e-13``.  Do not "optimise" them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.amg.coarsen import CPOINT, SplittingResult
from repro.utils.errors import SolverError, ValidationError


def direct_interpolation(matrix: sp.spmatrix, strength: sp.spmatrix,
                         splitting: SplittingResult) -> sp.csr_matrix:
    """Build the prolongation matrix ``P`` (n_fine x n_coarse), one row at a time."""
    A = sp.csr_matrix(matrix)
    S = sp.csr_matrix(strength)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValidationError("interpolation requires a square matrix")
    if splitting.splitting.shape != (n,):
        raise ValidationError("splitting size does not match the matrix")
    n_coarse = splitting.n_coarse
    if n_coarse == 0:
        raise SolverError("cannot interpolate to an empty coarse grid")

    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise SolverError("direct interpolation requires non-zero diagonal entries")

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    is_coarse = splitting.splitting == CPOINT
    coarse_index = splitting.coarse_index

    for i in range(n):
        if is_coarse[i]:
            rows.append(i)
            cols.append(int(coarse_index[i]))
            vals.append(1.0)
            continue
        # Strong C-neighbours of i.
        strong_cols = S.indices[S.indptr[i]:S.indptr[i + 1]]
        strong_c = strong_cols[is_coarse[strong_cols]]
        if strong_c.size == 0:
            continue
        row_start, row_end = A.indptr[i], A.indptr[i + 1]
        row_cols = A.indices[row_start:row_end]
        row_vals = A.data[row_start:row_end]
        off_mask = row_cols != i
        neg_mask = off_mask & (row_vals < 0)
        pos_mask = off_mask & (row_vals > 0)

        # Couplings to the strong C-neighbours.
        in_strong_c = np.isin(row_cols, strong_c)
        neg_c = neg_mask & in_strong_c
        pos_c = pos_mask & in_strong_c

        neg_total = row_vals[neg_mask].sum()
        pos_total = row_vals[pos_mask].sum()
        neg_c_total = row_vals[neg_c].sum()
        pos_c_total = row_vals[pos_c].sum()

        alpha = neg_total / neg_c_total if neg_c_total != 0 else 0.0
        beta = pos_total / pos_c_total if pos_c_total != 0 else 0.0

        scale = diag[i]
        if pos_c_total == 0 and pos_total != 0:
            # Positive couplings with no positive C-neighbour are lumped into
            # the diagonal, the standard BoomerAMG treatment.
            scale += pos_total

        for mask, factor in ((neg_c, alpha), (pos_c, beta)):
            selected = np.flatnonzero(mask)
            for entry in selected:
                j = row_cols[entry]
                weight = -factor * row_vals[entry] / scale
                rows.append(i)
                cols.append(int(coarse_index[j]))
                vals.append(float(weight))

    P = sp.csr_matrix((vals, (rows, cols)), shape=(n, n_coarse))
    P.sum_duplicates()
    return P


def _truncate(matrix: sp.csr_matrix, truncation: float) -> sp.csr_matrix:
    n = matrix.shape[0]
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    keep = np.ones_like(data, dtype=bool)
    diag_addition = np.zeros(n, dtype=np.float64)
    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        if start == end:
            continue
        row_cols = indices[start:end]
        row_vals = data[start:end]
        off = row_cols != i
        if not off.any():
            continue
        threshold = truncation * np.abs(row_vals[off]).max()
        drop = off & (np.abs(row_vals) < threshold)
        if not drop.any():
            continue
        keep[start:end][drop] = False
        diag_addition[i] = row_vals[drop].sum()
    rows = np.repeat(np.arange(n), np.diff(indptr))
    truncated = sp.csr_matrix((data[keep], (rows[keep], indices[keep])),
                              shape=matrix.shape)
    truncated = truncated + sp.diags(diag_addition)
    truncated = sp.csr_matrix(truncated)
    truncated.eliminate_zeros()
    return truncated
