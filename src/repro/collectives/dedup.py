"""Duplicate-value removal (Section 3.3 of the paper).

The persistent neighborhood API only describes *how much* data goes to each
neighbor; it does not say *which values*, so an implementation cannot tell that
two destinations are being sent the same value.  The paper's proposed extension
passes per-value indices, which lets the aggregated inter-region message carry
each ``(origin, item)`` value once no matter how many final destinations need
it.  The planner performs that deduplication on the interned keys of a phase's
columns, every message at once, with the one segmented sort below.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.arrays import INDEX_DTYPE, run_starts_mask


def unique_keys_segmented(segments: np.ndarray, keys: np.ndarray,
                          n_keys: int, n_segments: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment first appearances of interned keys, in one packed sort.

    ``segments`` must be non-decreasing (rows of segment ``k`` contiguous) and
    ``keys`` dense ids below ``n_keys`` (:meth:`CommPattern.owned_keys`).
    Returns the ascending row indices keeping each segment's first copy of
    every key, and the per-segment kept counts: the payload deduplication of
    every message of a phase as one stable ``segment * n_keys + key`` argsort.
    The order is deterministic, so the sending and receiving sides of a
    deduplicated message pack and unpack values identically.
    """
    packed = segments * n_keys + keys
    order = np.argsort(packed, kind="stable")
    # Stable: the first row of every run is its earliest appearance.
    firsts = np.sort(order[run_starts_mask(packed[order])])
    return firsts, np.bincount(segments[firsts],
                               minlength=n_segments).astype(INDEX_DTYPE)
