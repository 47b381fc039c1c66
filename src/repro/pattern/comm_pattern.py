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

Every accessor is a view of (or a cached expansion over) these columns:
``edge_arrays()`` hands back the stored ``items`` column itself,
``send_map``/``recv_map``/``edges()`` are thin compatibility views slicing it,
and ``__eq__``/``__hash__`` compare the columns directly.  Patterns are
immutable: the columns are frozen (``writeable = False``) at construction, so
no accessor ever needs a defensive copy.

Example (doctest): three ranks, rank 0 sending item 4 to both rank 1 and
rank 2 — the duplicate the fully optimized collective sends across a region
boundary only once.

>>> from repro.pattern import CommPattern
>>> pattern = CommPattern(3, {0: {1: [4, 5], 2: [4]}, 1: {2: [9]}})
>>> pattern.send_items(0, 1)
array([4, 5])
>>> pattern.recv_ranks(2)
[0, 1]
>>> pattern.n_messages, pattern.total_items
(3, 4)
>>> pattern.csr()[1]  # the destination column: edges (0,1), (0,2), (1,2)
array([1, 2, 2])
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

import numpy as np

from repro.utils.arrays import (
    INDEX_DTYPE,
    as_index_array,
    counts_to_displs,
    frozen_copy_on_write,
    group_rows_to_csr,
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


_EMPTY_ITEMS = np.empty(0, dtype=INDEX_DTYPE)
_EMPTY_ITEMS.flags.writeable = False


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
        columnar data should use :meth:`from_csr` or :meth:`from_edge_arrays`.
    dtype:
        Element dtype of one data item (default float64, the vector entries of
        a SpMV halo exchange).
    item_size:
        Number of ``dtype`` components per item (1 for scalar unknowns; >1 for
        vector-valued items such as LBM distribution sets).
    item_bytes:
        Explicit size in bytes of one data item.  Defaults to
        ``dtype.itemsize * item_size``; pass it only to model hypothetical
        wire sizes that differ from the actual element type.
    """

    def __init__(self, n_ranks: int,
                 sends: Mapping[int, Mapping[int, Iterable[int]]],
                 *, item_bytes: int | None = None,
                 dtype: np.dtype | type | str = np.float64,
                 item_size: int = 1):
        self._init_meta(n_ranks, item_bytes, dtype, item_size)
        edge_srcs: list[int] = []
        edge_dests: list[int] = []
        item_arrays: list[np.ndarray] = []
        for src, dests in sends.items():
            src = int(src)
            if src < 0 or src >= self.n_ranks:
                raise ValidationError(f"source rank {src} out of range")
            for dest, items in dests.items():
                dest = int(dest)
                if dest < 0 or dest >= self.n_ranks:
                    raise ValidationError(f"destination rank {dest} out of range")
                arr = as_index_array(items)
                if arr.size == 0:
                    continue
                edge_srcs.append(src)
                edge_dests.append(dest)
                item_arrays.append(arr)
        self._init_columns(*self._columns_from_edge_lists(
            np.asarray(edge_srcs, dtype=INDEX_DTYPE),
            np.asarray(edge_dests, dtype=INDEX_DTYPE), item_arrays))

    # -- columnar constructors --------------------------------------------------

    @classmethod
    def from_edge_lists(cls, n_ranks: int, srcs, dests, item_arrays,
                        *, item_bytes: int | None = None,
                        dtype: np.dtype | type | str = np.float64,
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
        self._init_meta(n_ranks, item_bytes, dtype, item_size)
        srcs = as_index_array(srcs)
        dests = as_index_array(dests)
        if not (srcs.size == dests.size == len(item_arrays)):
            raise ValidationError("edge-list columns must have matching lengths")
        _check_endpoints(self.n_ranks, srcs, dests)
        self._init_columns(*self._columns_from_edge_lists(srcs, dests,
                                                          list(item_arrays)))
        return self

    def _columns_from_edge_lists(self, srcs: np.ndarray, dests: np.ndarray,
                                 item_arrays: list) -> Tuple[np.ndarray, ...]:
        """Canonical CSR columns from per-edge keys and item arrays.

        One stable lexsort over the edge keys orders the edges; runs of equal
        ``(src, dest)`` merge into one edge whose items concatenate in input
        order.  Items are touched exactly once, by ``np.concatenate``.
        """
        sizes = np.fromiter((np.asarray(a).size for a in item_arrays),
                            dtype=INDEX_DTYPE, count=len(item_arrays))
        keep = sizes > 0
        if not keep.all():
            srcs, dests, sizes = srcs[keep], dests[keep], sizes[keep]
            item_arrays = [a for a, k in zip(item_arrays, keep) if k]
        if not item_arrays:
            return (np.zeros(self.n_ranks + 1, dtype=INDEX_DTYPE),
                    np.empty(0, dtype=INDEX_DTYPE),
                    np.zeros(1, dtype=INDEX_DTYPE),
                    np.empty(0, dtype=INDEX_DTYPE))
        order = np.lexsort((dests, srcs))
        srcs, dests, sizes = srcs[order], dests[order], sizes[order]
        items = np.concatenate([as_index_array(item_arrays[e]) for e in order])
        starts = run_starts_mask(srcs, dests)
        ends = np.cumsum(sizes)
        boundaries = np.flatnonzero(starts)
        item_offsets = np.empty(boundaries.size + 1, dtype=INDEX_DTYPE)
        item_offsets[0] = 0
        item_offsets[1:-1] = ends[boundaries[1:] - 1]
        item_offsets[-1] = items.size
        return (self._offsets_from_keys(srcs[starts]), dests[starts],
                item_offsets, items)

    def _offsets_from_keys(self, edge_srcs: np.ndarray) -> np.ndarray:
        return counts_to_displs(np.bincount(edge_srcs, minlength=self.n_ranks)
                                if edge_srcs.size else
                                np.zeros(self.n_ranks, dtype=INDEX_DTYPE))

    @classmethod
    def from_csr(cls, n_ranks: int, src_offsets, dests, item_offsets, items,
                 *, item_bytes: int | None = None,
                 dtype: np.dtype | type | str = np.float64,
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
        self._init_meta(n_ranks, item_bytes, dtype, item_size)
        src_offsets = _frozen_index_array(src_offsets)
        dests = _frozen_index_array(dests)
        item_offsets = _frozen_index_array(item_offsets)
        items = _frozen_index_array(items)
        cls._validate_csr(self.n_ranks, src_offsets, dests, item_offsets, items)
        self._init_columns(src_offsets, dests, item_offsets, items)
        return self

    @classmethod
    def from_edge_arrays(cls, n_ranks: int, origins, dests, items,
                         *, item_bytes: int | None = None,
                         dtype: np.dtype | type | str = np.float64,
                         item_size: int = 1) -> "CommPattern":
        """Build a pattern from fully expanded ``(origin, dest, item)`` rows.

        Rows for the same ``(origin, dest)`` pair keep their input order
        (stable lexsort), so repeated edges concatenate exactly as the
        edge-by-edge dict construction did.
        """
        self = cls.__new__(cls)
        self._init_meta(n_ranks, item_bytes, dtype, item_size)
        origins = as_index_array(origins)
        dest_rows = as_index_array(dests)
        items = as_index_array(items)
        if not (origins.size == dest_rows.size == items.size):
            raise ValidationError("edge-array columns must have matching lengths")
        _check_endpoints(self.n_ranks, origins, dest_rows)
        self._init_columns(*group_rows_to_csr(self.n_ranks, origins, dest_rows,
                                              items))
        return self

    # -- construction internals --------------------------------------------------

    def _init_meta(self, n_ranks: int, item_bytes: int | None,
                   dtype, item_size: int) -> None:
        check_positive_int("n_ranks", n_ranks)
        check_positive_int("item_size", item_size)
        self.n_ranks = int(n_ranks)
        self.dtype = np.dtype(dtype)
        self.item_size = int(item_size)
        if item_bytes is None:
            item_bytes = self.dtype.itemsize * self.item_size
        check_positive_int("item_bytes", item_bytes)
        self.item_bytes = int(item_bytes)

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
        self._item_views: Tuple[np.ndarray, ...] | None = None
        self._item_view_cache: Dict[int, np.ndarray] = {}
        self._recv_csr: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._edge_lists: Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]] | None = None
        self._edge_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._unique_edges: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
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

    def _edge_item_views(self) -> Tuple[np.ndarray, ...]:
        """All per-edge views into the stored item column (cached, read-only).

        Views already handed out by the single-edge accessors are reused, so
        an edge's view object stays stable no matter which accessor made it.
        """
        if self._item_views is None:
            views = tuple(self._edge_view(e) for e in range(self._dests.size))
            self._item_views = views
            self._item_view_cache = {}
        return self._item_views

    def _edge_view(self, slot: int) -> np.ndarray:
        """The item view of one edge slot (O(1); caches for identity stability).

        Single-edge accessors (``send_items``/``recv_items``/the map views)
        use this so that looking up one edge never materialises views for all
        edges; repeated lookups of the same edge return the same object.
        """
        if self._item_views is not None:
            return self._item_views[slot]
        view = self._item_view_cache.get(slot)
        if view is None:
            view = self._items[self._item_offsets[slot]:self._item_offsets[slot + 1]]
            self._item_view_cache[slot] = view
        return view

    def _edge_slot(self, src: int, dest: int) -> int:
        """Edge index of ``(src, dest)``, or -1 when the edge does not exist."""
        lo, hi = int(self._src_offsets[src]), int(self._src_offsets[src + 1])
        slot = lo + int(np.searchsorted(self._dests[lo:hi], dest))
        if slot < hi and int(self._dests[slot]) == dest:
            return slot
        return -1

    def _recv_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Transposed edge index ``(dest_offsets, srcs, edge_slots)`` (cached)."""
        if self._recv_csr is None:
            edge_srcs = self.edge_sources()
            order = np.lexsort((edge_srcs, self._dests))
            dest_counts = np.bincount(self._dests, minlength=self.n_ranks) \
                if self._dests.size else np.zeros(self.n_ranks, dtype=INDEX_DTYPE)
            self._recv_csr = (counts_to_displs(dest_counts),
                              edge_srcs[order], order)
        return self._recv_csr

    # -- send-side accessors ---------------------------------------------------

    def send_ranks(self, src: int) -> list[int]:
        """Destination ranks of ``src`` in ascending order."""
        self._check_rank(src)
        lo, hi = self._src_offsets[src], self._src_offsets[src + 1]
        return self._dests[lo:hi].tolist()

    def send_items(self, src: int, dest: int) -> np.ndarray:
        """Item ids ``src`` sends to ``dest`` (read-only view; empty when none)."""
        self._check_rank(src)
        self._check_rank(dest)
        slot = self._edge_slot(src, dest)
        if slot < 0:
            return _EMPTY_ITEMS
        return self._edge_view(slot)

    def send_map(self, src: int) -> Dict[int, np.ndarray]:
        """Destination→items map of ``src`` (read-only array views)."""
        self._check_rank(src)
        lo, hi = int(self._src_offsets[src]), int(self._src_offsets[src + 1])
        return {int(self._dests[slot]): self._edge_view(slot)
                for slot in range(lo, hi)}

    # -- receive-side accessors --------------------------------------------------

    def recv_ranks(self, dest: int) -> list[int]:
        """Source ranks of ``dest`` in ascending order."""
        self._check_rank(dest)
        dest_offsets, srcs, _ = self._recv_index()
        return srcs[dest_offsets[dest]:dest_offsets[dest + 1]].tolist()

    def recv_items(self, dest: int, src: int) -> np.ndarray:
        """Item ids ``dest`` receives from ``src`` (read-only view)."""
        self._check_rank(dest)
        self._check_rank(src)
        slot = self._edge_slot(src, dest)
        if slot < 0:
            return _EMPTY_ITEMS
        return self._edge_view(slot)

    def recv_map(self, dest: int) -> Dict[int, np.ndarray]:
        """Source→items map of ``dest`` (read-only array views)."""
        self._check_rank(dest)
        dest_offsets, srcs, edge_slots = self._recv_index()
        lo, hi = int(dest_offsets[dest]), int(dest_offsets[dest + 1])
        return {int(srcs[k]): self._edge_view(int(edge_slots[k]))
                for k in range(lo, hi)}

    # -- global views -------------------------------------------------------------

    def edges(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Iterate over ``(src, dest, items)`` triples in deterministic order.

        The yielded arrays are read-only views of the stored item column.
        """
        edge_srcs = self.edge_sources()
        views = self._edge_item_views()
        dests = self._dests
        for slot in range(dests.size):
            yield int(edge_srcs[slot]), int(dests[slot]), views[slot]

    def edge_lists(self) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
        """Per-edge columnar view: ``(srcs, dests, item_arrays)`` in edge order.

        ``dests`` is the stored CSR column itself; ``srcs`` and the per-edge
        item views are cached expansions.
        """
        if self._edge_lists is None:
            self._edge_lists = (self.edge_sources(), self._dests,
                                self._edge_item_views())
        return self._edge_lists

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
            # Edges are stored in (origin, dest) order: the table is already
            # canonical when every edge lists its items strictly ascending.
            edge_starts = np.zeros(items.size, dtype=bool)
            edge_starts[self._item_offsets[:-1]] = True
            if not np.all((items[1:] > items[:-1]) | edge_starts[1:]):
                order = np.lexsort((items, dests, origins))
                origins, dests, items = origins[order], dests[order], items[order]
                keep = run_starts_mask(origins, dests, items)
                origins, dests, items = origins[keep], dests[keep], items[keep]
                for arr in (origins, dests, items):
                    arr.flags.writeable = False
            self._unique_edges = (origins, dests, items)
        return self._unique_edges

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
            order = np.lexsort((items, origins))
            origins, items = origins[order], items[order]
            starts = run_starts_mask(origins, items)
            edge_keys = np.empty(order.size, dtype=INDEX_DTYPE)
            edge_keys[order] = np.cumsum(starts) - 1
            columns = (origins[starts], items[starts], edge_keys)
            for arr in columns:
                arr.flags.writeable = False
            self._owned_keys = columns
        return self._owned_keys

    def transpose(self) -> "CommPattern":
        """Pattern with the roles of senders and receivers exchanged."""
        origins, dests, items = self.edge_arrays()
        return CommPattern.from_edge_arrays(
            self.n_ranks, dests, origins, items, item_bytes=self.item_bytes,
            dtype=self.dtype, item_size=self.item_size)

    @property
    def n_messages(self) -> int:
        """Total number of point-to-point messages in the standard scheme."""
        return int(self._dests.size)

    @property
    def total_items(self) -> int:
        """Total number of data items transferred (duplicates included)."""
        return int(self._items.size)

    @property
    def total_bytes(self) -> int:
        """Total payload bytes in the standard scheme."""
        return self.total_items * self.item_bytes

    def message_size(self, src: int, dest: int) -> int:
        """Bytes of the (src, dest) message in the standard scheme."""
        return int(self.send_items(src, dest).size) * self.item_bytes

    def active_ranks(self) -> np.ndarray:
        """Ranks that send or receive at least one message."""
        return np.unique(np.concatenate([self.edge_sources(), self._dests]))

    def restrict_to(self, ranks: Iterable[int]) -> "CommPattern":
        """Sub-pattern containing only edges whose endpoints are both in ``ranks``."""
        keep = as_index_array(sorted(set(int(r) for r in ranks)))
        edge_srcs = self.edge_sources()
        edge_keep = np.isin(edge_srcs, keep) & np.isin(self._dests, keep)
        counts = self.edge_item_counts()
        row_keep = np.repeat(edge_keep, counts)
        columns = (self._offsets_from_keys(edge_srcs[edge_keep]),
                   self._dests[edge_keep],
                   counts_to_displs(counts[edge_keep]),
                   self._items[row_keep])
        for column in columns:
            column.flags.writeable = False
        return CommPattern.from_csr(
            self.n_ranks, *columns, item_bytes=self.item_bytes,
            dtype=self.dtype, item_size=self.item_size)

    # -- comparison / utilities -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommPattern):
            return NotImplemented
        if self is other:
            return True
        if self.n_ranks != other.n_ranks or self.item_bytes != other.item_bytes \
                or self.dtype != other.dtype or self.item_size != other.item_size:
            return False
        return all(np.array_equal(a, b)
                   for a, b in zip(self.csr(), other.csr()))

    def __hash__(self):
        """Content hash, consistent with ``__eq__`` (cached; patterns are immutable)."""
        if self._hash is None:
            self._hash = hash((
                self.n_ranks, self.item_bytes, self.dtype, self.item_size,
                self._src_offsets.tobytes(), self._dests.tobytes(),
                self._item_offsets.tobytes(), self._items.tobytes(),
            ))
        return self._hash

    def _check_rank(self, rank: int) -> None:
        if rank < 0 or rank >= self.n_ranks:
            raise ValidationError(f"rank {rank} out of range [0, {self.n_ranks})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CommPattern(n_ranks={self.n_ranks}, messages={self.n_messages}, "
                f"items={self.total_items})")
