"""Array helpers shared by the pattern, collective, and sparse layers.

Everything here operates on plain numpy arrays and is deliberately free of any
knowledge about communicators or matrices; the functions encode the handful of
index manipulations (counts/displacements, stable uniques, even partitions)
that MPI-style code needs constantly.

Every stable order of set-up is :func:`lexsort_packed`'s: one plain (SIMD)
sort of keys tagged with their row index, and every unique-with-inverse is
:func:`unique_inverse`'s, the same sort read off by runs.  Keys that already
ascend skip their sort (:func:`sort_unless_sorted`): a compare pass costs a
fraction of what ``np.sort`` spends even on sorted input.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.utils.errors import ValidationError

INDEX_DTYPE = np.int64


def as_index_array(values: Iterable[int]) -> np.ndarray:
    """Return ``values`` as a contiguous int64 array (empty allowed)."""
    arr = np.asarray(values, dtype=INDEX_DTYPE)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return np.ascontiguousarray(arr)


def concatenate_or_empty(arrays: Sequence[np.ndarray], dtype=INDEX_DTYPE) -> np.ndarray:
    """Concatenate arrays, returning a typed empty array when the list is empty."""
    arrays = [np.asarray(a) for a in arrays if np.asarray(a).size]
    if not arrays:
        return np.empty(0, dtype=dtype)
    return np.concatenate(arrays).astype(dtype, copy=False)


def counts_to_displs(counts: Sequence[int]) -> np.ndarray:
    """Convert per-destination counts into exclusive-prefix displacements.

    The returned array has ``len(counts) + 1`` entries so that the data for
    destination ``i`` occupies ``buf[displs[i]:displs[i + 1]]`` — the same
    convention as MPI's ``sdispls``/``rdispls`` plus a trailing total.
    """
    counts = np.asarray(counts, dtype=INDEX_DTYPE)
    if counts.size and counts.min() < 0:
        raise ValidationError("counts must be non-negative")
    displs = np.zeros(counts.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=displs[1:])
    return displs


def partition_evenly(total: int, parts: int) -> np.ndarray:
    """Split ``total`` items into ``parts`` contiguous chunks as evenly as possible.

    Returns an array of ``parts + 1`` offsets.  The first ``total % parts``
    chunks receive one extra item, matching the row-partitioning convention
    used by Hypre's ``IJMatrix`` interface.
    """
    if parts <= 0:
        raise ValidationError(f"parts must be > 0, got {parts}")
    if total < 0:
        raise ValidationError(f"total must be >= 0, got {total}")
    base = total // parts
    extra = total % parts
    sizes = np.full(parts, base, dtype=INDEX_DTYPE)
    sizes[:extra] += 1
    offsets = np.zeros(parts + 1, dtype=INDEX_DTYPE)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def range_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + lengths[i])`` for every ``i``.

    The index :func:`gather_ranges` applies, built with one ``arange`` and
    one ``repeat``; the world compiler also keeps it as a phase's wire
    permutation.
    """
    starts = np.asarray(starts, dtype=INDEX_DTYPE)
    lengths = np.asarray(lengths, dtype=INDEX_DTYPE)
    if starts.shape != lengths.shape:
        raise ValidationError("starts and lengths must be parallel arrays")
    if lengths.size and lengths.min() < 0:
        raise ValidationError("lengths must be non-negative")
    return expand_ranges(starts, lengths)[0]


def expand_ranges(starts: np.ndarray, lengths: np.ndarray):
    """:func:`range_index` without its checks, and where each range begins
    in the index.

    ``starts`` and ``lengths`` must be parallel int64 arrays, ``lengths``
    non-negative; the planner's callers hold such columns already and call
    this once per phase, where the checks would cost as much as the
    expansion.
    """
    offsets = np.zeros(lengths.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=offsets[1:])
    index = np.arange(offsets[-1], dtype=INDEX_DTYPE)
    index += np.repeat(starts - offsets[:-1], lengths)
    return index, offsets


def gather_ranges(values: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i]:starts[i] + lengths[i]]`` for every ``i``.

    The vectorized form of a slice-and-concatenate loop: one index array
    (:func:`range_index`) applied in a single fancy index, so unpacking N
    variable-length ranges costs O(total) numpy work instead of N
    Python-level slices; the world compiler cuts each rank's payload stream
    out of a phase table with it.
    """
    return values[range_index(starts, lengths)]


def _segment_max(entry_values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row maximum of CSR-ordered entry values (0 for empty rows).

    ``reduceat`` mis-reads an empty segment as its successor's first entry, so
    only non-empty rows' starts are passed; between two of them lies one row.
    """
    result = np.zeros(indptr.size - 1, dtype=entry_values.dtype)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if nonempty.size:
        result[nonempty] = np.maximum.reduceat(entry_values, indptr[nonempty])
    return result


def buffer_writable(array: np.ndarray) -> bool:
    """True when the array's memory can be written through any alias.

    Walks the ``base`` chain, so a read-only view of a writable buffer still
    counts as writable — the check immutable containers use to decide whether
    a caller's array must be copied before freezing.
    """
    while True:
        if array.flags.writeable:
            return True
        base = array.base
        if not isinstance(base, np.ndarray):
            return False
        array = base


def frozen_copy_on_write(arr: np.ndarray, source) -> np.ndarray:
    """Freeze ``arr``, copying first when it may alias caller-writable memory.

    ``source`` is the caller-supplied object ``arr`` was coerced from.  The
    one shared implementation of the copy-if-shared-writable rule used by
    the immutable int64 containers (CommPattern item arrays, the plan's
    self-delivery columns).
    """
    if isinstance(source, np.ndarray) and np.may_share_memory(arr, source) \
            and buffer_writable(source):
        arr = arr.copy()
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


def run_starts_mask(*columns: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first row of every run of equal keys.

    ``columns`` are parallel pre-sorted key columns; row ``k`` starts a new
    run when any key differs from row ``k - 1`` (row 0 always does).  This is
    the boundary step of every lexsort-group-reduce pass in the planner,
    validator, deduplicator, and exchange compiler.
    """
    first = columns[0]
    mask = np.empty(first.size, dtype=bool)
    if first.size == 0:
        return mask
    mask[0] = True
    np.not_equal(first[1:], first[:-1], out=mask[1:])
    for column in columns[1:]:
        np.logical_or(mask[1:], column[1:] != column[:-1], out=mask[1:])
    return mask


def sort_unless_sorted(values: np.ndarray) -> None:
    """Sort ``values`` in place, unless they already ascend: a compare pass
    costs about a tenth of what ``np.sort`` spends on sorted input."""
    if not np.all(values[1:] >= values[:-1]):
        values.sort()


def tagged_sort(columns: Sequence[np.ndarray]):
    """``(tagged, row_bits)``: the keys of two or more rows packed into one
    int64 from 0, most significant column first, with the row index in the
    low ``row_bits`` bits, sorted, so each key's rows form a run, first row
    first; ``None`` when that overflows int64.

    Packing starts from an int64 copy, so bool and int32 columns cannot
    overflow in their own dtype.  A step may wrap int64, but the minima come
    off as the columns go in, so the key ends in ``[0, 2**63)``.
    """
    row_bits = (columns[0].size - 1).bit_length()
    lows = [int(column.min()) for column in columns]
    spans = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
    if math.prod(spans) << row_bits > 2 ** 63:
        return None
    tagged = columns[0].astype(INDEX_DTYPE)
    tagged -= lows[0]
    for column, low, span in zip(columns[1:], lows[1:], spans[1:]):
        tagged *= span
        tagged += column
        tagged -= low
    tagged <<= row_bits
    tagged |= np.arange(tagged.size, dtype=INDEX_DTYPE)
    sort_unless_sorted(tagged)
    return tagged, row_bits


def lexsort_packed(*columns: np.ndarray) -> np.ndarray:
    """``np.lexsort``'s order of rows by parallel integer (or bool) key
    columns, most significant first: the one stable order of set-up.

    With the row index in the low bits of the packed key no two rows tie, so
    one plain (SIMD) ``np.sort``, faster than a stable sort of unsorted
    keys, gives the stable order, which the low bits then read off.  When
    that tagged key overflows int64 the rows go to ``np.lexsort``.

    >>> lexsort_packed(np.array([1, 0, 1, 0]), np.array([2, 9, -5, 9]))
    array([1, 3, 2, 0])
    """
    if columns[0].size < 2:
        return np.arange(columns[0].size, dtype=INDEX_DTYPE)
    tagged = tagged_sort(columns)
    if tagged is None:
        return np.lexsort(columns[::-1])
    order, row_bits = tagged
    order &= (1 << row_bits) - 1
    return order


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of an integer column: one
    :func:`tagged_sort`, whose high bits are the sorted keys, their run
    starts and one scatter of each run's number to its rows.

    >>> unique_inverse(np.array([7, 3, 7, 5]))
    (array([3, 5, 7]), array([2, 0, 2, 1]))
    """
    tagged = tagged_sort((keys,)) if keys.size > 1 else None
    if tagged is None:
        return np.unique(keys, return_inverse=True)
    order, row_bits = tagged
    sorted_keys = order >> row_bits
    sorted_keys += keys.min()
    order &= (1 << row_bits) - 1
    starts = run_starts_mask(sorted_keys)
    runs = np.cumsum(starts)
    runs -= 1
    inverse = np.empty_like(order)
    inverse[order] = runs
    return sorted_keys[starts], inverse


def group_rows_to_csr(n_keys: int, primary: np.ndarray, secondary: np.ndarray,
                      items: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack ``(primary, secondary, item)`` rows into per-primary-key CSR columns.

    Returns ``(offsets, secondaries, item_offsets, items)``: the edges of key
    ``p`` occupy slots ``offsets[p]:offsets[p + 1]``, edge ``e`` pairs key
    ``secondaries[e]`` with ``items[item_offsets[e]:item_offsets[e + 1]]``.
    The sort is one stable :func:`lexsort_packed` by ``(primary, secondary)``,
    so items keep their input order within each edge — the invariant that makes the
    CSR build byte-identical to edge-by-edge dict accumulation.  This is the
    one pass that merges repeated edges: ``pattern_from_parcsr`` groups its
    item rows with it, and ``CommPattern``'s edge-list constructors group
    their edge ids.
    """
    order = lexsort_packed(primary, secondary)
    primary, secondary, items = primary[order], secondary[order], items[order]
    starts = run_starts_mask(primary, secondary)
    item_offsets = np.append(np.flatnonzero(starts), items.size)
    offsets = counts_to_displs(np.bincount(primary[starts], minlength=n_keys))
    return offsets, secondary[starts], item_offsets, np.ascontiguousarray(items)


def freeze_columns(*columns: np.ndarray) -> None:
    """Mark arrays read-only in place (producer-side freeze before storage).

    Columns a producer freezes before handing them to an immutable container
    (e.g. ``CommPattern.from_csr``) are stored without a defensive copy.
    """
    for column in columns:
        if column.flags.writeable:
            column.flags.writeable = False
