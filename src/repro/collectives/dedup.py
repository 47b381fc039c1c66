"""Duplicate-value removal (Section 3.3 of the paper).

The persistent neighborhood API only describes *how much* data goes to each
neighbor; it does not say *which values*, so an implementation cannot tell that
two destinations are being sent the same value.  The paper's proposed extension
passes per-value indices, which lets the aggregated inter-region message carry
each ``(origin, item)`` value once no matter how many final destinations need
it.  The helpers here perform that deduplication on columnar slot tables (a
single lexsort-unique) and quantify how much payload it saves; the original
slot-list entry points remain as thin wrappers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.collectives.plan import Slot, SlotTable
from repro.utils.arrays import INDEX_DTYPE, run_starts_mask


def unique_pairs_first_appearance(origins: np.ndarray, items: np.ndarray
                                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Unique ``(origin, item)`` pairs in first-appearance order, columnar.

    The order is deterministic so that the sending and receiving sides of a
    deduplicated message pack and unpack values identically.  One lexsort
    finds the duplicate groups; ``np.minimum.reduceat`` recovers the first
    appearance of each group, replacing the seed's per-slot dict loop.
    """
    origins = np.asarray(origins, dtype=INDEX_DTYPE)
    items = np.asarray(items, dtype=INDEX_DTYPE)
    n = origins.size
    if n == 0:
        return origins[:0], items[:0]
    order = np.lexsort((items, origins))
    new_group = run_starts_mask(origins[order], items[order])
    firsts = np.minimum.reduceat(order, np.flatnonzero(new_group))
    firsts.sort()
    return origins[firsts], items[firsts]


def unique_keys_segmented(segments: np.ndarray, keys: np.ndarray,
                          n_keys: int, n_segments: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment first appearances of interned keys, in one packed sort.

    ``segments`` must be non-decreasing (rows of segment ``k`` contiguous) and
    ``keys`` dense ids below ``n_keys`` (:meth:`CommPattern.owned_keys`).
    Returns the ascending row indices keeping each segment's first copy of
    every key, and the per-segment kept counts: the payload deduplication of
    every message of a phase as one stable ``segment * n_keys + key`` argsort.
    """
    packed = segments * n_keys + keys
    order = np.argsort(packed, kind="stable")
    # Stable: the first row of every run is its earliest appearance.
    firsts = np.sort(order[run_starts_mask(packed[order])])
    return firsts, np.bincount(segments[firsts],
                               minlength=n_segments).astype(INDEX_DTYPE)


def _pair_columns(slots) -> Tuple[np.ndarray, np.ndarray]:
    """``(origins, items)`` columns of a SlotTable or slot sequence."""
    if isinstance(slots, SlotTable):
        return slots.origin, slots.item
    slots = list(slots)
    if not slots:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return empty, empty
    triples = np.asarray(slots, dtype=INDEX_DTYPE)
    return triples[:, 0], triples[:, 1]


def unique_payload_keys(slots: Sequence[Slot] | SlotTable) -> List[Tuple[int, int]]:
    """Unique ``(origin, item)`` pairs of ``slots`` in first-appearance order."""
    origins, items = _pair_columns(slots)
    origins, items = unique_pairs_first_appearance(origins, items)
    return list(zip(origins.tolist(), items.tolist()))


def duplicate_item_count(slots: Sequence[Slot] | SlotTable) -> int:
    """Number of payload values saved by deduplicating ``slots``."""
    origins, items = _pair_columns(slots)
    unique_origins, _ = unique_pairs_first_appearance(origins, items)
    return int(origins.size - unique_origins.size)


def group_slots_by_final_dest(slots: Iterable[Slot] | SlotTable) -> Dict[int, List[Slot]]:
    """Partition slots by their final destination rank (deterministic order)."""
    if isinstance(slots, SlotTable):
        order = np.argsort(slots.final_dest, kind="stable")
        dests = slots.final_dest[order]
        groups: Dict[int, List[Slot]] = {}
        bounds = np.append(np.flatnonzero(run_starts_mask(dests)), dests.size)
        for begin, end in zip(bounds[:-1], bounds[1:]):
            groups[int(dests[begin])] = slots.take(order[begin:end]).to_slots()
        return groups
    groups = {}
    for slot in slots:
        groups.setdefault(slot.final_dest, []).append(slot)
    return {dest: groups[dest] for dest in sorted(groups)}


def dedup_savings_fraction(slots: Sequence[Slot] | SlotTable) -> float:
    """Fraction of the payload removed by deduplication (0 when nothing saved)."""
    if not len(slots):
        return 0.0
    return duplicate_item_count(slots) / len(slots)
