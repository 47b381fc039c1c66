"""Duplicate-value removal (Section 3.3 of the paper).

The persistent neighborhood API only describes *how much* data goes to each
neighbor; it does not say *which values*, so an implementation cannot tell that
two destinations are being sent the same value.  The paper's proposed extension
passes per-value indices, which lets the aggregated inter-region message carry
each ``(origin, item)`` value once no matter how many final destinations need
it.  The planner performs that deduplication on the interned keys of a phase's
columns, every message at once, with one tagged sort of ``(message, key)``
rows and a first-of-run keep mask (:func:`unique_keys_segmented`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.arrays import (
    INDEX_DTYPE,
    lexsort_packed,
    run_starts_mask,
    tagged_sort,
)


def unique_keys_segmented(offsets: np.ndarray, keys: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment first appearances of interned keys, in one tagged sort.

    Segment ``k`` is rows ``offsets[k]:offsets[k + 1]`` of ``keys``.
    Returns the ascending rows keeping each segment's first copy of every
    key, the segments' offsets into them, and every row's *payload row*:
    the index, among the kept rows, of the row whose copy it shares.  The
    tagged sort of ``(segment, key)`` puts each pair's rows in a run, first
    row first, and a keep mask returns the runs' first rows in row order
    without a second sort; the mask's running count numbers the kept rows,
    and each run hands its first row's number to its rows.  The order is
    deterministic, so both sides of a message agree.
    """
    segments = np.repeat(np.arange(offsets.size - 1, dtype=INDEX_DTYPE),
                         np.diff(offsets))
    tagged = tagged_sort((segments, keys)) if keys.size > 1 else None
    if tagged is None:
        order = lexsort_packed(segments, keys)
        starts = run_starts_mask(segments[order], keys[order])
    else:
        order, row_bits = tagged
        starts = run_starts_mask(order >> row_bits)
        order &= (1 << row_bits) - 1
    del segments
    firsts = order[starts]
    keep = np.zeros(keys.size, dtype=bool)
    keep[firsts] = True
    # ``kept_before[r]``: kept rows ahead of row ``r``.
    kept_before = np.zeros(keys.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(keep, out=kept_before[1:])
    runs = np.cumsum(starts)
    runs -= 1
    payload_rows = np.empty(keys.size, dtype=INDEX_DTYPE)
    payload_rows[order] = kept_before[firsts][runs]
    return np.flatnonzero(keep), kept_before[offsets], payload_rows
