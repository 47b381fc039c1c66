"""Array helpers shared by the pattern, collective, and sparse layers.

Everything here operates on plain numpy arrays and is deliberately free of any
knowledge about communicators or matrices; the functions encode the handful of
index manipulations (counts/displacements, stable uniques, even partitions)
that MPI-style code needs constantly.
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


def displs_to_counts(displs: Sequence[int]) -> np.ndarray:
    """Convert an exclusive-prefix displacement array back into counts."""
    displs = np.asarray(displs, dtype=INDEX_DTYPE)
    if displs.size == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    counts = np.diff(displs)
    if counts.size and counts.min() < 0:
        raise ValidationError("displacements must be non-decreasing")
    return counts


def invert_permutation(perm: Sequence[int]) -> np.ndarray:
    """Return the inverse of a permutation given as an index array."""
    perm = np.asarray(perm, dtype=INDEX_DTYPE)
    n = perm.size
    if n and (perm.min() < 0 or perm.max() >= n):
        raise ValidationError("not a permutation: entries out of range")
    inverse = np.empty(n, dtype=INDEX_DTYPE)
    inverse[perm] = np.arange(n, dtype=INDEX_DTYPE)
    if n and not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValidationError("not a permutation: repeated entries")
    return inverse


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


def gather_ranges(values: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i]:starts[i] + lengths[i]]`` for every ``i``.

    The vectorized form of a slice-and-concatenate loop: one index array is
    built with ``repeat``/``arange`` and applied in a single fancy index, so
    unpacking N variable-length ranges costs O(total) numpy work instead of
    N Python-level slices.  This is the parse primitive of the packed setup
    gathers (``_gather_pattern`` and the batched ``init_many`` form).
    """
    starts = np.asarray(starts, dtype=INDEX_DTYPE)
    lengths = np.asarray(lengths, dtype=INDEX_DTYPE)
    if starts.shape != lengths.shape:
        raise ValidationError("starts and lengths must be parallel arrays")
    if lengths.size and lengths.min() < 0:
        raise ValidationError("lengths must be non-negative")
    offsets = counts_to_displs(lengths)
    total = int(offsets[-1])
    index = np.arange(total, dtype=INDEX_DTYPE)
    index += np.repeat(starts - offsets[:-1], lengths)
    return values[index]


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
    every immutable int64 container (CommPattern item arrays, SlotTable
    columns).
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


def argsort_packed(columns: Sequence[np.ndarray],
                   bounds: Sequence[int]) -> np.ndarray:
    """Stable argsort by parallel key columns, most significant first.

    Every column holds integers in ``[0, bound)``.  The keys are packed into
    one int64 (the ``row * n + col`` idiom) for a single stable argsort —
    nearly-sorted input costs close to one pass — unless the product of the
    bounds overflows, where it falls back to ``np.lexsort``.
    """
    if math.prod(int(bound) for bound in bounds) >= 2 ** 63:
        return np.lexsort(tuple(columns)[::-1])
    packed = columns[0]
    for column, bound in zip(columns[1:], bounds[1:]):
        packed = packed * int(bound) + column
    return np.argsort(packed, kind="stable")


def group_rows_to_csr(n_keys: int, primary: np.ndarray, secondary: np.ndarray,
                      items: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack ``(primary, secondary, item)`` rows into per-primary-key CSR columns.

    Returns ``(offsets, secondaries, item_offsets, items)``: the edges of key
    ``p`` occupy slots ``offsets[p]:offsets[p + 1]``, edge ``e`` pairs key
    ``secondaries[e]`` with ``items[item_offsets[e]:item_offsets[e + 1]]``.
    The sort is one *stable* lexsort by ``(primary, secondary)``, so items
    keep their input order within each edge — the invariant that makes the
    CSR build byte-identical to edge-by-edge dict accumulation.  This is the
    one shared grouping pass behind ``CommPattern.from_edge_arrays`` and
    ``pattern_from_parcsr``.
    """
    if items.size == 0:
        return (np.zeros(n_keys + 1, dtype=INDEX_DTYPE),
                np.empty(0, dtype=INDEX_DTYPE),
                np.zeros(1, dtype=INDEX_DTYPE),
                np.empty(0, dtype=INDEX_DTYPE))
    order = np.lexsort((secondary, primary))
    primary, secondary, items = primary[order], secondary[order], items[order]
    starts = run_starts_mask(primary, secondary)
    boundaries = np.flatnonzero(starts)
    item_offsets = np.empty(boundaries.size + 1, dtype=INDEX_DTYPE)
    item_offsets[:-1] = boundaries
    item_offsets[-1] = items.size
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


def stable_unique(values: Sequence[int]) -> np.ndarray:
    """Return unique values preserving first-occurrence order.

    ``np.unique`` sorts; communication code frequently needs the *stable*
    variant so that send buffers keep the order the application packed them in.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return arr.astype(INDEX_DTYPE, copy=False)
    _, first_index = np.unique(arr, return_index=True)
    return arr[np.sort(first_index)].astype(INDEX_DTYPE, copy=False)
