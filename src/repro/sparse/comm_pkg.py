"""From a distributed matrix to its halo-exchange pattern.

Hypre builds a ``hypre_ParCSRCommPkg`` per matrix describing which vector
entries each rank sends to / receives from which neighbours before a SpMV —
which is the argument list of ``MPI_Neighbor_alltoallv_init``.  Here that
description *is* the :class:`CommPattern` the neighborhood-collective
planners consume: :func:`pattern_from_parcsr` derives it from a
:class:`~repro.sparse.parcsr.ParCSRMatrix` — a level operator or a grid
transfer alike — with global input-vector indices as item ids, so the
deduplicating collective can recognise when one vector entry is needed by
several ranks on the same node.  ``pattern.send_map(rank)`` /
``pattern.recv_map(rank)`` are what a rank hands to
``MPI_Neighbor_alltoallv_init``; the world-stepped collective takes the
whole pattern (``neighbor_alltoallv_init_world``).

The build is columnar end to end: the matrix's one stacked diag/offd split
already holds every rank's needed columns in rank order, their owners come
from one vectorized partition lookup, and one stable lexsort packs the CSR
columns ``(offsets, peers, item_offsets, items)`` that
:meth:`CommPattern.from_csr` stores without a copy.
"""

from __future__ import annotations

import numpy as np

from repro.pattern.comm_pattern import CommPattern
from repro.sparse.parcsr import ParCSRMatrix
from repro.utils.arrays import INDEX_DTYPE, freeze_columns, group_rows_to_csr
from repro.utils.errors import ValidationError


def pattern_from_parcsr(matrix: ParCSRMatrix) -> CommPattern:
    """The SpMV communication pattern of ``matrix`` as a :class:`CommPattern`.

    Item ids are global *input-vector* indices (the operator's own rows for a
    level ``A``, coarse rows for a prolongation's ``P @ x_coarse``, fine rows
    for a restriction's ``Pᵀ @ r_fine``), so the deduplicating collectives
    treat grid-transfer halos exactly like SpMV halos one level up or down.
    The items are float64 scalars, the vector entries ``WorldSpMV`` moves.

    Every rank's needed entries are its ``col_map_offd`` — taken from
    :meth:`~repro.sparse.parcsr.ParCSRMatrix.stacked_blocks`, the same split
    the world-stepped product runs on — and their owners come from the
    *column* partition.

    Example (doctest): a 1-D Laplacian over four ranks; what rank 0 receives
    is exactly its off-process column map.

    >>> import scipy.sparse as sp
    >>> from repro.sparse import ParCSRMatrix, RowPartition, pattern_from_parcsr
    >>> laplacian = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(8, 8))
    >>> matrix = ParCSRMatrix(laplacian, RowPartition.even(8, 4))
    >>> pattern = pattern_from_parcsr(matrix)
    >>> pattern.recv_map(0), matrix.local_blocks(0).col_map_offd
    ({1: array([2])}, array([2]))
    >>> pattern.send_map(1)
    {0: array([2]), 2: array([3])}
    """
    n_ranks = matrix.n_ranks
    stacked = matrix.stacked_blocks()
    needed = stacked.col_map_offd
    recv_ranks = np.repeat(np.arange(n_ranks, dtype=INDEX_DTYPE),
                           np.diff(stacked.offd_offsets))
    owners = matrix.col_partition.owners_of(needed)
    if np.any(owners == recv_ranks):
        raise ValidationError("off-diagonal columns must be owned by other ranks")
    columns = group_rows_to_csr(n_ranks, owners, recv_ranks, needed)
    freeze_columns(*columns)
    return CommPattern.from_csr(n_ranks, *columns)
