"""The :class:`CommPattern` data structure.

A pattern records, for every sending rank, the *data items* (identified by
integer ids, e.g. global vector indices) it must deliver to every destination
rank.  Item ids are what makes the fully-optimized collective possible: two
destinations asking for the same item id from the same source constitute the
duplicate data that three-step aggregation with deduplication sends across the
region boundary only once.

Storage is CSR-native: the pattern holds four canonical int64 columns

* ``src_offsets`` — ``(n_ranks + 1,)``; the edges of source rank ``s`` occupy
  edge slots ``src_offsets[s]:src_offsets[s + 1]``,
* ``dests`` — ``(n_edges,)``; the destination of every edge slot, strictly
  ascending within each source's segment,
* ``item_offsets`` — ``(n_edges + 1,)``; edge ``e`` carries items
  ``items[item_offsets[e]:item_offsets[e + 1]]``,
* ``items`` — ``(total_items,)``; all item ids, concatenated in edge order.

These are the neighbor lists with counts and displacements a persistent
neighbor collective takes, and every reader works on them: ``csr()`` hands
them back, ``edge_arrays()`` expands the endpoints beside the stored
``items`` column, and ``__eq__``/``__hash__`` compare the columns directly.
Patterns are immutable: the columns are frozen (``writeable = False``) at
construction, so no accessor ever needs a defensive copy.

Example (doctest): three ranks, rank 0 sending item 4 to both rank 1 and
rank 2 — the duplicate the fully optimized collective sends across a region
boundary only once.

>>> from repro.pattern import CommPattern
>>> pattern = CommPattern(3, {0: {1: [4, 5], 2: [4]}, 1: {2: [9]}})
>>> src_offsets, dests, item_offsets, items = pattern.csr()
>>> src_offsets  # rank 0 owns edges 0 and 1, rank 1 edge 2
array([0, 2, 3, 3])
>>> dests  # the edges (0, 1), (0, 2), (1, 2)
array([1, 2, 2])
>>> items[item_offsets[0]:item_offsets[1]]  # what rank 0 sends rank 1
array([4, 5])
>>> pattern.n_messages, pattern.total_items
(3, 4)
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

import numpy as np

from repro.utils.arrays import (
    INDEX_DTYPE,
    as_index_array,
    counts_to_displs,
    frozen_copy_on_write,
    group_rows_to_csr,
    lexsort_packed,
    run_starts_mask,
)
from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive_int


def _frozen_index_array(values) -> np.ndarray:
    """``values`` as a read-only contiguous int64 array.

    Anything still sharing writable memory with a caller's array (including a
    read-only view of a writable buffer) is copied before freezing, so the
    stored array can neither mutate under the pattern's caches nor freeze the
    caller's own array.  Arrays we created are frozen in place.
    """
    return frozen_copy_on_write(as_index_array(values), values)


def _check_endpoints(n_ranks: int, srcs: np.ndarray, dests: np.ndarray) -> None:
    """Reject edge endpoints outside ``[0, n_ranks)``."""
    if srcs.size == 0:
        return
    lo = min(int(srcs.min()), int(dests.min()))
    hi = max(int(srcs.max()), int(dests.max()))
    if lo < 0 or hi >= n_ranks:
        raise ValidationError(
            f"edge endpoint {lo if lo < 0 else hi} outside communicator "
            f"of size {n_ranks}"
        )


def _edge_list_columns(n_ranks: int, srcs: np.ndarray, dests: np.ndarray,
                       item_arrays) -> Tuple[np.ndarray, ...]:
    """Canonical CSR columns from per-edge keys and item arrays.

    ``group_rows_to_csr`` groups the edge *ids* by ``(src, dest)``, so the
    sort is over edges, not items; its stable order merges repeated pairs
    with their items concatenated in input order.  Empty item arrays are
    dropped, and items are touched once, by ``np.concatenate``.
    """
    arrays = [as_index_array(a) for a in item_arrays]
    sizes = np.fromiter((a.size for a in arrays), dtype=INDEX_DTYPE,
                        count=len(arrays))
    kept = np.flatnonzero(sizes)
    src_offsets, edge_dests, runs, order = group_rows_to_csr(
        n_ranks, srcs[kept], dests[kept], kept)
    items = np.concatenate([arrays[e] for e in order.tolist()]) if order.size \
        else np.empty(0, dtype=INDEX_DTYPE)
    return (src_offsets, edge_dests, counts_to_displs(sizes[order])[runs],
            items)


class CommPattern:
    """Immutable, CSR-stored description of an irregular communication pattern.

    Parameters
    ----------
    n_ranks:
        Size of the communicator the pattern lives on.
    sends:
        ``sends[src][dest]`` is an array of item ids rank ``src`` must deliver
        to rank ``dest``.  Empty destination lists are dropped.  This mapping
        constructor is the compatibility route; producers that already hold
        columnar data should use :meth:`from_csr` or :meth:`from_edge_lists`.
    dtype:
        Element dtype of one data item (default float64, the vector entries of
        a SpMV halo exchange).
    item_size:
        Number of ``dtype`` components per item (1 for scalar unknowns; >1 for
        vector-valued items such as LBM distribution sets).

    The pattern is the only place an exchange's element type is set: plans
    count ``item_bytes = dtype.itemsize * item_size`` bytes per item, and a
    collective compiled from the pattern moves exactly that element type.
    """

    def __init__(self, n_ranks: int,
                 sends: Mapping[int, Mapping[int, Iterable[int]]],
                 *, dtype: np.dtype | type | str = np.float64,
                 item_size: int = 1):
        self._init_meta(n_ranks, dtype, item_size)
        edge_srcs: list[int] = []
        edge_dests: list[int] = []
        item_arrays: list = []
        for src, dests in sends.items():
            src = int(src)
            if src < 0 or src >= self.n_ranks:
                raise ValidationError(f"source rank {src} out of range")
            for dest, items in dests.items():
                dest = int(dest)
                if dest < 0 or dest >= self.n_ranks:
                    raise ValidationError(f"destination rank {dest} out of range")
                edge_srcs.append(src)
                edge_dests.append(dest)
                item_arrays.append(items)
        self._init_columns(*_edge_list_columns(
            self.n_ranks, as_index_array(edge_srcs),
            as_index_array(edge_dests), item_arrays))

    # -- columnar constructors --------------------------------------------------

    @classmethod
    def from_edge_lists(cls, n_ranks: int, srcs, dests, item_arrays,
                        *, dtype: np.dtype | type | str = np.float64,
                        item_size: int = 1) -> "CommPattern":
        """Build a pattern from parallel per-edge columns and item arrays.

        ``srcs[e]`` sends ``item_arrays[e]`` to ``dests[e]``.  Edges are
        canonicalized with one stable lexsort over the *edge keys* (not the
        expanded item rows); repeated ``(src, dest)`` pairs merge with their
        items concatenated in call order, and empty item arrays are dropped.
        This is the builders' fast path: the per-item work is a single
        ``np.concatenate``.
        """
        self = cls.__new__(cls)
        self._init_meta(n_ranks, dtype, item_size)
        srcs = as_index_array(srcs)
        dests = as_index_array(dests)
        if not (srcs.size == dests.size == len(item_arrays)):
            raise ValidationError("edge-list columns must have matching lengths")
        _check_endpoints(self.n_ranks, srcs, dests)
        self._init_columns(*_edge_list_columns(self.n_ranks, srcs, dests,
                                               item_arrays))
        return self

    @classmethod
    def from_csr(cls, n_ranks: int, src_offsets, dests, item_offsets, items,
                 *, dtype: np.dtype | type | str = np.float64,
                 item_size: int = 1) -> "CommPattern":
        """Build a pattern directly from canonical CSR columns (validated).

        The columns must already be canonical: ``dests`` strictly ascending
        within each source segment, no empty edges, offsets consistent.  This
        is the zero-conversion path every columnar producer uses; producers
        that freeze their columns first (``freeze_columns``) get them stored
        without a copy, while still-writable caller arrays are defensively
        copied before freezing.
        """
        self = cls.__new__(cls)
        self._init_meta(n_ranks, dtype, item_size)
        src_offsets = _frozen_index_array(src_offsets)
        dests = _frozen_index_array(dests)
        item_offsets = _frozen_index_array(item_offsets)
        items = _frozen_index_array(items)
        cls._validate_csr(self.n_ranks, src_offsets, dests, item_offsets, items)
        self._init_columns(src_offsets, dests, item_offsets, items)
        return self

    # -- construction internals --------------------------------------------------

    def _init_meta(self, n_ranks: int, dtype, item_size: int) -> None:
        check_positive_int("n_ranks", n_ranks)
        check_positive_int("item_size", item_size)
        self.n_ranks = int(n_ranks)
        self.dtype = np.dtype(dtype)
        self.item_size = int(item_size)

    def _init_columns(self, src_offsets: np.ndarray, dests: np.ndarray,
                      item_offsets: np.ndarray, items: np.ndarray) -> None:
        for arr in (src_offsets, dests, item_offsets, items):
            if arr.flags.writeable:
                arr.flags.writeable = False
        self._src_offsets = src_offsets
        self._dests = dests
        self._item_offsets = item_offsets
        self._items = items
        self._edge_srcs: np.ndarray | None = None
        self._edge_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._unique_edges: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._unique_offsets: np.ndarray | None = None
        self._owned_keys: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._hash: int | None = None

    @staticmethod
    def _validate_csr(n_ranks: int, src_offsets: np.ndarray, dests: np.ndarray,
                      item_offsets: np.ndarray, items: np.ndarray) -> None:
        if src_offsets.shape != (n_ranks + 1,):
            raise ValidationError(
                f"src_offsets must have shape ({n_ranks + 1},), got {src_offsets.shape}"
            )
        if src_offsets[0] != 0 or int(src_offsets[-1]) != dests.size:
            raise ValidationError("src_offsets must run from 0 to len(dests)")
        if np.any(np.diff(src_offsets) < 0):
            raise ValidationError("src_offsets must be non-decreasing")
        if item_offsets.shape != (dests.size + 1,):
            raise ValidationError(
                f"item_offsets must have shape ({dests.size + 1},), "
                f"got {item_offsets.shape}"
            )
        if item_offsets.size and (item_offsets[0] != 0
                                  or int(item_offsets[-1]) != items.size):
            raise ValidationError("item_offsets must run from 0 to len(items)")
        item_counts = np.diff(item_offsets)
        if np.any(item_counts <= 0):
            raise ValidationError("every edge must carry at least one item")
        if dests.size:
            if int(dests.min()) < 0 or int(dests.max()) >= n_ranks:
                raise ValidationError("destination rank out of range")
            # Within each source's segment the destinations must be strictly
            # ascending (unique + sorted) — the canonical-form invariant that
            # makes column comparison a valid equality test.
            segment_starts = np.zeros(dests.size, dtype=bool)
            segment_starts[src_offsets[:-1][src_offsets[:-1] < dests.size]] = True
            ascending = dests[1:] > dests[:-1]
            if not np.all(ascending | segment_starts[1:]):
                raise ValidationError(
                    "dests must be strictly ascending within each source segment"
                )

    # -- columnar accessors -------------------------------------------------------

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stored canonical columns ``(src_offsets, dests, item_offsets, items)``.

        All four are the frozen storage arrays themselves — zero-copy.
        """
        return self._src_offsets, self._dests, self._item_offsets, self._items

    def edge_sources(self) -> np.ndarray:
        """Per-edge source rank column (cached expansion of ``src_offsets``)."""
        if self._edge_srcs is None:
            srcs = np.repeat(np.arange(self.n_ranks, dtype=INDEX_DTYPE),
                             np.diff(self._src_offsets))
            srcs.flags.writeable = False
            self._edge_srcs = srcs
        return self._edge_srcs

    def edge_item_counts(self) -> np.ndarray:
        """Items per edge, in edge order (derived from ``item_offsets``)."""
        return np.diff(self._item_offsets)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fully expanded columnar edge table ``(origins, dests, items)``.

        Row ``k`` says: rank ``origins[k]`` sends item ``items[k]`` to rank
        ``dests[k]``.  The ``items`` column is the stored CSR column itself
        (zero-copy); the endpoint columns are cached ``np.repeat`` expansions.
        """
        if self._edge_arrays is None:
            counts = self.edge_item_counts()
            origins = np.repeat(self.edge_sources(), counts)
            dests_expanded = np.repeat(self._dests, counts)
            origins.flags.writeable = False
            dests_expanded.flags.writeable = False
            self._edge_arrays = (origins, dests_expanded, self._items)
        return self._edge_arrays

    def unique_edge_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge table with within-edge duplicates removed, sorted columnar.

        Rows are ``(origin, dest, item)`` sorted lexicographically; each
        ``(origin, dest)`` run is one standard-scheme message with its items
        in ascending order.  This is the form every planner consumes, so it is
        computed once per pattern (cached, read-only).
        """
        if self._unique_edges is None:
            origins, dests, items = self.edge_arrays()
            offsets = self._item_offsets
            # Edges are stored in (origin, dest) order: the table is already
            # canonical when every edge lists its items strictly ascending.
            edge_starts = np.zeros(items.size, dtype=bool)
            edge_starts[offsets[:-1]] = True
            if not np.all((items[1:] > items[:-1]) | edge_starts[1:]):
                order = lexsort_packed(origins, dests, items)
                origins, dests, items = origins[order], dests[order], items[order]
                keep = run_starts_mask(origins, dests, items)
                origins, dests, items = origins[keep], dests[keep], items[keep]
                # The sort moves rows only within their edge.
                kept_before = np.zeros(keep.size + 1, dtype=INDEX_DTYPE)
                np.cumsum(keep, out=kept_before[1:])
                offsets = kept_before[offsets]
                for arr in (origins, dests, items, offsets):
                    arr.flags.writeable = False
            self._unique_edges = (origins, dests, items)
            self._unique_offsets = offsets
        return self._unique_edges

    def unique_edge_offsets(self) -> np.ndarray:
        """Where each edge's run of :meth:`unique_edge_table` rows begins.

        Edge ``e`` (``edge_sources()[e] -> csr()[1][e]``) is rows
        ``offsets[e]:offsets[e + 1]`` of the table, never empty; when no edge
        repeats an item these are the stored ``item_offsets`` (cached,
        read-only).
        """
        self.unique_edge_table()
        return self._unique_offsets

    def owned_keys(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct ``(origin, item)`` values, interned: ``(holders, items, edge_keys)``.

        Key ``k`` is the value ``items[k]`` owned by rank ``holders[k]``; keys
        are sorted by ``(holder, item)``, so an id orders like its pair.
        ``edge_keys[r]`` is the key of row ``r`` of :meth:`unique_edge_table`.
        The planner carries the ids through its sorts and the world compiler
        packs them with a holder rank into one int64, so neither compares
        ``(origin, item)`` pairs again (cached, read-only).
        """
        if self._owned_keys is None:
            origins, _, items = self.unique_edge_table()
            order = lexsort_packed(origins, items)
            origins, items = origins[order], items[order]
            starts = run_starts_mask(origins, items)
            edge_keys = np.empty(order.size, dtype=INDEX_DTYPE)
            edge_keys[order] = np.cumsum(starts) - 1
            columns = (origins[starts], items[starts], edge_keys)
            for arr in columns:
                arr.flags.writeable = False
            self._owned_keys = columns
        return self._owned_keys

    @property
    def n_messages(self) -> int:
        """Total number of point-to-point messages in the standard scheme."""
        return int(self._dests.size)

    @property
    def total_items(self) -> int:
        """Total number of data items transferred (duplicates included)."""
        return int(self._items.size)

    @property
    def item_bytes(self) -> int:
        """Bytes of one data item: ``dtype.itemsize * item_size``."""
        return self.dtype.itemsize * self.item_size

    @property
    def total_bytes(self) -> int:
        """Total payload bytes in the standard scheme."""
        return self.total_items * self.item_bytes

    def active_ranks(self) -> np.ndarray:
        """Ranks that send or receive at least one message."""
        return np.unique(np.concatenate([self.edge_sources(), self._dests]))

    def __setstate__(self, state):
        # The content hash is a hash of bytes, which differs between
        # processes: a pattern unpickled in another one computes its own.
        self.__dict__.update(state, _hash=None)

    # -- comparison / utilities -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommPattern):
            return NotImplemented
        if self is other:
            return True
        if self.n_ranks != other.n_ranks or self.dtype != other.dtype \
                or self.item_size != other.item_size:
            return False
        return all(np.array_equal(a, b)
                   for a, b in zip(self.csr(), other.csr()))

    def __hash__(self):
        """Content hash, consistent with ``__eq__`` (cached; patterns are immutable)."""
        if self._hash is None:
            self._hash = hash((
                self.n_ranks, self.dtype, self.item_size,
                self._src_offsets.tobytes(), self._dests.tobytes(),
                self._item_offsets.tobytes(), self._items.tobytes(),
            ))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CommPattern(n_ranks={self.n_ranks}, messages={self.n_messages}, "
                f"items={self.total_items})")
