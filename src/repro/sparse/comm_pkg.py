"""Communication packages: from a distributed matrix to its halo-exchange pattern.

Hypre builds a ``hypre_ParCSRCommPkg`` per matrix describing which vector
entries each rank sends to / receives from which neighbours before a SpMV.
:func:`build_comm_pkg` derives the same information from a
:class:`~repro.sparse.parcsr.ParCSRMatrix` — a level operator or a grid
transfer alike — and :func:`pattern_from_parcsr` exposes it as the
:class:`CommPattern` the neighborhood-collective planners consume — item ids
are global input-vector indices, so the deduplicating collective can recognise
when one vector entry is needed by several ranks on the same node.

Both are columnar end to end: the off-process column maps of all ranks are
concatenated once, their owners resolved with one vectorized partition lookup,
and a single stable lexsort per side yields the packed CSR columns
``(offsets, peers, item_offsets, items)`` for the receive and send views.  The
send-side columns feed :meth:`CommPattern.from_csr` directly — no dict-of-dict
intermediate is ever materialised on the construction path; the mapping
accessors of :class:`CommPkg` survive as views built on demand.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.pattern.comm_pattern import CommPattern
from repro.sparse.parcsr import ParCSRMatrix
from repro.utils.arrays import INDEX_DTYPE, freeze_columns, group_rows_to_csr
from repro.utils.errors import ValidationError

#: One side of a comm package in packed CSR form: ``peers`` of rank ``r`` are
#: ``peers[offsets[r]:offsets[r + 1]]`` and edge ``e`` carries
#: ``items[item_offsets[e]:item_offsets[e + 1]]``.
CsrSide = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _group_to_csr(n_ranks: int, primary: np.ndarray, secondary: np.ndarray,
                  items: np.ndarray) -> CsrSide:
    """Pack rows into per-primary-rank CSR columns, frozen for zero-copy reuse.

    The grouping is the shared stable lexsort pass
    (:func:`repro.utils.arrays.group_rows_to_csr`); freezing the columns here
    lets :meth:`CommPattern.from_csr` store them without a defensive copy.
    """
    side = group_rows_to_csr(n_ranks, primary, secondary, items)
    freeze_columns(*side)
    return side


def _csr_slice_map(side: CsrSide, rank: int, *, copy: bool) -> Dict[int, np.ndarray]:
    """``{peer: items}`` view (or copies) of one rank's slice of a CSR side."""
    offsets, peers, item_offsets, items = side
    result: Dict[int, np.ndarray] = {}
    for edge in range(int(offsets[rank]), int(offsets[rank + 1])):
        chunk = items[item_offsets[edge]:item_offsets[edge + 1]]
        result[int(peers[edge])] = chunk.copy() if copy else chunk
    return result


def _csr_dict_views(side: CsrSide) -> Dict[int, Dict[int, np.ndarray]]:
    """All ranks' ``{peer: items}`` views of one CSR side in a single pass.

    One ``np.split`` materialises every edge's item view at once and ranks
    without edges are skipped entirely — the dict-of-dict view of a
    16k-rank package no longer walks rank × edge index pairs.
    """
    offsets, peers, item_offsets, items = side
    chunks = np.split(items, item_offsets[1:-1])
    peer_ids = peers.tolist()
    edge_bounds = offsets.tolist()
    result: Dict[int, Dict[int, np.ndarray]] = {}
    for rank in range(len(edge_bounds) - 1):
        start, stop = edge_bounds[rank], edge_bounds[rank + 1]
        if start != stop:
            result[rank] = dict(zip(peer_ids[start:stop], chunks[start:stop]))
    return result


class CommPkg:
    """Halo-exchange description of one distributed matrix, stored columnar.

    The canonical storage is two packed CSR sides: ``recv_csr`` groups the
    needed off-process entries by ``(receiving rank, owning rank)``, and
    ``send_csr`` is its transpose grouped by ``(owning rank, receiving rank)``.
    ``recv_items``/``send_items`` reproduce the historical dict-of-dict views
    on demand.
    """

    def __init__(self, n_ranks: int, recv_csr: CsrSide, send_csr: CsrSide):
        self.n_ranks = int(n_ranks)
        self.recv_csr = recv_csr
        self.send_csr = send_csr
        self._recv_dicts: Dict[int, Dict[int, np.ndarray]] | None = None
        self._send_dicts: Dict[int, Dict[int, np.ndarray]] | None = None

    # -- dict-of-dict compatibility views ---------------------------------------

    @property
    def recv_items(self) -> Dict[int, Dict[int, np.ndarray]]:
        """``recv_items[rank][src]``: indices ``rank`` receives from ``src`` (views)."""
        if self._recv_dicts is None:
            self._recv_dicts = _csr_dict_views(self.recv_csr)
        return self._recv_dicts

    @property
    def send_items(self) -> Dict[int, Dict[int, np.ndarray]]:
        """``send_items[rank][dest]``: indices ``rank`` sends to ``dest`` (views)."""
        if self._send_dicts is None:
            self._send_dicts = _csr_dict_views(self.send_csr)
        return self._send_dicts

    def recv_map(self, rank: int) -> Dict[int, np.ndarray]:
        """``{source: indices}`` for ``rank`` (copies)."""
        return _csr_slice_map(self.recv_csr, rank, copy=True)

    def send_map(self, rank: int) -> Dict[int, np.ndarray]:
        """``{destination: indices}`` for ``rank`` (copies)."""
        return _csr_slice_map(self.send_csr, rank, copy=True)

    def neighbors(self, rank: int) -> tuple[List[int], List[int]]:
        """``(sources, destinations)`` of ``rank`` in ascending order."""
        recv_offsets, recv_peers = self.recv_csr[0], self.recv_csr[1]
        send_offsets, send_peers = self.send_csr[0], self.send_csr[1]
        sources = recv_peers[recv_offsets[rank]:recv_offsets[rank + 1]].tolist()
        destinations = send_peers[send_offsets[rank]:send_offsets[rank + 1]].tolist()
        return sources, destinations

    def total_recv_items(self, rank: int) -> int:
        """Number of off-process entries ``rank`` receives per SpMV."""
        offsets, _, item_offsets, _ = self.recv_csr
        lo, hi = int(offsets[rank]), int(offsets[rank + 1])
        return int(item_offsets[hi] - item_offsets[lo])


def build_comm_pkg(matrix: ParCSRMatrix) -> CommPkg:
    """Construct the halo-exchange package of ``matrix``.

    For every rank the off-diagonal column map gives the global input-vector
    entries it needs; their owners come from the *column* partition (the row
    partition itself for a level operator, the coarse grid for a
    prolongation, the fine grid for a restriction) with one concatenated
    vectorized lookup, then one lexsort per side packs the receive and send
    columns.
    """
    n_ranks = matrix.n_ranks
    needed = [matrix.offd_columns(rank) for rank in range(n_ranks)]
    needed_all = np.concatenate(needed).astype(INDEX_DTYPE, copy=False)
    recv_ranks = np.repeat(np.arange(n_ranks, dtype=INDEX_DTYPE),
                           [chunk.size for chunk in needed])
    owners = matrix.col_partition.owners_of(needed_all)
    if np.any(owners == recv_ranks):
        raise ValidationError("off-diagonal columns must be owned by other ranks")
    recv_csr = _group_to_csr(n_ranks, recv_ranks, owners, needed_all)
    send_csr = _group_to_csr(n_ranks, owners, recv_ranks, needed_all)
    return CommPkg(n_ranks, recv_csr, send_csr)


def pattern_from_parcsr(matrix: ParCSRMatrix, *, item_bytes: int | None = None,
                        dtype=np.float64, item_size: int = 1) -> CommPattern:
    """The SpMV communication pattern of ``matrix`` as a :class:`CommPattern`.

    Item ids are global *input-vector* indices (the operator's own rows for a
    level ``A``, coarse rows for a prolongation's ``P @ x_coarse``, fine rows
    for a restriction's ``Pᵀ @ r_fine``), so the deduplicating collectives
    treat grid-transfer halos exactly like SpMV halos one level up or down.
    ``dtype``/``item_size`` describe the exchanged vector entries (float64
    scalars for a plain SpMV; wider items for multi-component unknowns) and
    determine the modeled wire size unless ``item_bytes`` overrides it.  The
    send-side CSR columns of the comm package are handed to the pattern as-is.
    """
    pkg = build_comm_pkg(matrix)
    src_offsets, dests, item_offsets, items = pkg.send_csr
    return CommPattern.from_csr(matrix.n_ranks, src_offsets, dests,
                                item_offsets, items, item_bytes=item_bytes,
                                dtype=dtype, item_size=item_size)
