"""Duplicate-value removal (Section 3.3 of the paper).

The persistent neighborhood API only describes *how much* data goes to each
neighbor; it does not say *which values*, so an implementation cannot tell that
two destinations are being sent the same value.  The paper's proposed extension
passes per-value indices, which lets the aggregated inter-region message carry
each ``(origin, item)`` value once no matter how many final destinations need
it.  The planner performs that deduplication on the interned keys of a phase's
columns, every message at once (:func:`unique_keys_segmented`).  A message is
a sequence of the pattern's edges, and an edge never repeats a key, so a key
can repeat only across the edges of a *span*: a message for phase ``s``, one
origin's edges within a message for phase ``g``.  Only the rows of spans of
two or more edges go into the one tagged sort of ``(span, key)`` rows; a
first-of-run keep mask reads the duplicates off it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.arrays import (
    INDEX_DTYPE,
    lexsort_packed,
    range_index,
    run_starts_mask,
    tagged_sort,
)


def unique_keys_segmented(offsets: np.ndarray, keys: np.ndarray,
                          spans: Tuple[np.ndarray, np.ndarray]
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment first appearances of interned keys, in one tagged sort.

    Segment ``k`` is rows ``offsets[k]:offsets[k + 1]`` of ``keys``.
    ``spans`` is ``(starts, stops)``: row ranges, each inside one segment,
    outside which no key of a segment repeats.  Returns the ascending rows
    keeping each segment's first copy of every key, the segments' offsets
    into them, and every row's *payload row*: the index, among the kept
    rows, of the row whose copy it shares.  The tagged sort of the spans'
    ``(span, key)`` rows puts each pair's rows in a run, first row first;
    every later row of a run is a duplicate.  The keep mask's running count
    numbers the kept rows, and each run hands its first row's number to its
    rows.  The order is deterministic, so both sides of a message agree.
    """
    keep = np.ones(keys.size, dtype=bool)
    lengths = spans[1] - spans[0]
    rows = range_index(spans[0], lengths)
    if rows.size:
        span_ids = np.repeat(np.arange(lengths.size, dtype=INDEX_DTYPE),
                             lengths)
        span_keys = keys[rows]
        tagged = tagged_sort((span_ids, span_keys))
        if tagged is None:
            order = lexsort_packed(span_ids, span_keys)
            starts = run_starts_mask(span_ids[order], span_keys[order])
        else:
            order, row_bits = tagged
            starts = run_starts_mask(order >> row_bits)
            order &= (1 << row_bits) - 1
        del span_ids, span_keys
        rows = rows[order]
        keep[rows] = starts
        firsts = np.flatnonzero(starts)
    # ``kept_before[r]``: kept rows ahead of row ``r``, which is a kept
    # row's own payload row; each run's rows take its first row's.
    kept_before = np.zeros(keys.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(keep, out=kept_before[1:])
    payload_rows = kept_before[:-1].copy()
    if rows.size:
        payload_rows[rows] = kept_before[rows[firsts]].repeat(
            np.diff(firsts, append=rows.size))
    return np.flatnonzero(keep), kept_before[offsets], payload_rows
