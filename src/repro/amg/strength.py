"""Classical (Ruge-Stüben) strength of connection.

Connection ``i -> j`` is *strong* when ``-a_ij >= theta * max_k(-a_ik)``, i.e.
the coupling is within a factor ``theta`` of the row's strongest negative
coupling.  The strength graph drives both coarsening and interpolation; its
quality on the rotated anisotropic problem (strong couplings along the rotated
axis only) is what produces the semicoarsened hierarchies whose middle levels
dominate communication.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.arrays import _segment_max
from repro.utils.errors import ValidationError


def classical_strength(matrix: sp.spmatrix, theta: float = 0.25) -> sp.csr_matrix:
    """Boolean strength-of-connection matrix (stored as float 0/1 CSR).

    Parameters
    ----------
    matrix:
        Square sparse matrix (typically an M-matrix-like discretisation).
    theta:
        Strength threshold in [0, 1]; Hypre's default for 2-D problems is 0.25.

    The result carries ``strong_entries``: over the entries of ``matrix``
    with its indices sorted, the ones it is built from.  On a canonical
    ``matrix`` that says which stored entries are in the result, and
    :func:`~repro.amg.interp.direct_interpolation` reads it there, once
    checked, in place of a search.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must lie in [0, 1], got {theta}")
    A = sp.csr_matrix(matrix)
    if A.shape[0] != A.shape[1]:
        raise ValidationError("strength of connection requires a square matrix")
    n = A.shape[0]
    if not A.has_sorted_indices:
        A = A.copy()
        A.sort_indices()

    indptr = A.indptr
    indices = A.indices
    data = A.data

    # Off-diagonal negative magnitude per entry; diagonal entries excluded.
    row_of_entry = np.repeat(np.arange(n), np.diff(indptr))
    off_diag_mask = indices != row_of_entry
    neg_magnitude = np.where(off_diag_mask, np.maximum(-data, 0.0), 0.0)

    threshold = theta * _segment_max(neg_magnitude, indptr)
    strong = off_diag_mask & (neg_magnitude >= threshold[row_of_entry]) \
        & (neg_magnitude > 0.0)

    strength = sp.csr_matrix(
        (np.ones(np.count_nonzero(strong)),
         (row_of_entry[strong], indices[strong])),
        shape=A.shape,
    )
    strength.strong_entries = strong
    return strength


def symmetrized_strength(strength: sp.spmatrix) -> sp.csr_matrix:
    """Union of the strength graph and its transpose (used by PMIS)."""
    S = sp.csr_matrix(strength)
    sym = ((S + S.T) > 0).astype(np.float64)
    return sp.csr_matrix(sym)
