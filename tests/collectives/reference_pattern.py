"""The seed's dict-of-dict pattern construction, kept as a reference.

The production :class:`~repro.pattern.comm_pattern.CommPattern` stores CSR
columns and every builder emits them directly.  This module preserves the
original edge-by-edge construction — ``Dict[src, Dict[dest, items]]`` send
maps assembled with ``setdefault`` loops, and the per-edge derivation of the
columnar edge tables — so that the construction-equivalence tests
(``test_construction_equivalence.py``) can pin the CSR build to
byte-identical ``csr()`` / ``edge_arrays()`` / ``unique_edge_table()``
output.

It is a test oracle, not library code.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.utils.arrays import INDEX_DTYPE, counts_to_displs, run_starts_mask
from repro.utils.errors import ValidationError


class DictPattern:
    """Seed-style pattern container: dict-of-dict storage, per-edge loops.

    Only the surface the equivalence tests need is reproduced:
    construction semantics (int casts, empty-edge
    dropping, range validation), deterministic ``edges()`` iteration, and the
    per-edge derivation of ``csr()`` / ``edge_arrays()`` /
    ``unique_edge_table()``.
    """

    def __init__(self, n_ranks: int,
                 sends: Dict[int, Dict[int, Iterable[int]]]):
        self.n_ranks = int(n_ranks)
        cleaned: Dict[int, Dict[int, np.ndarray]] = {}
        for src, dests in sends.items():
            src = int(src)
            if src < 0 or src >= self.n_ranks:
                raise ValidationError(f"source rank {src} out of range")
            for dest, items in dests.items():
                dest = int(dest)
                if dest < 0 or dest >= self.n_ranks:
                    raise ValidationError(f"destination rank {dest} out of range")
                arr = np.ascontiguousarray(np.asarray(items, dtype=INDEX_DTYPE))
                if arr.size == 0:
                    continue
                cleaned.setdefault(src, {})[dest] = arr
        self.sends = cleaned

    def edges(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """``(src, dest, items)`` triples in deterministic (sorted) order."""
        for src in sorted(self.sends):
            for dest in sorted(self.sends[src]):
                yield src, dest, self.sends[src][dest]

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(src_offsets, dests, item_offsets, items)``, derived edge by edge."""
        _, dests, item_arrays = zip(*self.edges()) if self.sends \
            else ((), (), ())
        degrees = [len(self.sends.get(src, {})) for src in range(self.n_ranks)]
        return (counts_to_displs(degrees),
                np.array(dests, dtype=INDEX_DTYPE),
                counts_to_displs([items.size for items in item_arrays]),
                np.concatenate(item_arrays) if item_arrays
                else np.empty(0, dtype=INDEX_DTYPE))

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expanded ``(origins, dests, items)`` columns, derived edge by edge."""
        srcs: list[int] = []
        dests: list[int] = []
        item_arrays: list[np.ndarray] = []
        for src, dest, items in self.edges():
            srcs.append(src)
            dests.append(dest)
            item_arrays.append(items)
        if not item_arrays:
            empty = np.empty(0, dtype=INDEX_DTYPE)
            return empty, empty, empty
        counts = np.fromiter((a.size for a in item_arrays), dtype=INDEX_DTYPE,
                             count=len(item_arrays))
        origins = np.repeat(np.asarray(srcs, dtype=INDEX_DTYPE), counts)
        dests_expanded = np.repeat(np.asarray(dests, dtype=INDEX_DTYPE), counts)
        return origins, dests_expanded, np.concatenate(item_arrays)

    def unique_edge_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted edge table with within-edge duplicates removed."""
        origins, dests, items = self.edge_arrays()
        if origins.size:
            order = np.lexsort((items, dests, origins))
            origins, dests, items = origins[order], dests[order], items[order]
            keep = run_starts_mask(origins, dests, items)
            origins, dests, items = origins[keep], dests[keep], items[keep]
        return origins, dests, items


def reference_pattern_from_edges(n_ranks: int,
                                 edges: Iterable[Tuple[int, int, Sequence[int]]]
                                 ) -> DictPattern:
    """Seed ``pattern_from_edges``: per-item ``extend`` into nested dicts."""
    sends: Dict[int, Dict[int, list]] = {}
    for src, dest, items in edges:
        bucket = sends.setdefault(int(src), {}).setdefault(int(dest), [])
        bucket.extend(int(i) for i in items)
    return DictPattern(n_ranks, sends)


def reference_random_pattern(n_ranks: int, *, avg_neighbors: float = 6.0,
                             avg_items_per_message: float = 12.0,
                             duplicate_fraction: float = 0.3,
                             items_per_rank: int = 64,
                             seed: int = 0) -> DictPattern:
    """Seed ``random_pattern``: identical RNG draws, dict-of-dict assembly."""
    rng = np.random.default_rng(seed)
    sends: Dict[int, Dict[int, np.ndarray]] = {}
    for src in range(n_ranks):
        owned = np.arange(items_per_rank, dtype=np.int64) + src * items_per_rank
        max_neighbors = max(n_ranks - 1, 1)
        n_neighbors = int(min(max_neighbors, max(0, rng.poisson(avg_neighbors))))
        if n_neighbors == 0 or n_ranks == 1:
            continue
        candidates = np.setdiff1d(np.arange(n_ranks), [src])
        dests = rng.choice(candidates, size=n_neighbors, replace=False)
        shared_pool_size = max(1, int(round(avg_items_per_message * duplicate_fraction)))
        shared_pool = rng.choice(owned, size=min(shared_pool_size, owned.size),
                                 replace=False)
        for dest in dests:
            n_items = int(min(owned.size, max(1, rng.poisson(avg_items_per_message))))
            unique_part = rng.choice(owned, size=n_items, replace=False)
            n_shared = int(round(duplicate_fraction * n_items))
            if n_shared > 0:
                shared_part = shared_pool[:min(n_shared, shared_pool.size)]
                items = np.unique(np.concatenate([shared_part,
                                                  unique_part[:n_items - shared_part.size]]))
            else:
                items = np.unique(unique_part)
            sends.setdefault(src, {})[int(dest)] = items
    return DictPattern(n_ranks, sends)


def reference_halo_pattern(grid_shape: Tuple[int, int], *, width: int = 1,
                           points_per_cell: int = 16,
                           periodic: bool = False) -> DictPattern:
    """Seed ``halo_exchange_pattern``: dict-keyed face assembly."""
    rows, cols = grid_shape
    n_ranks = rows * cols
    side = points_per_cell * width

    def rank_of(r: int, c: int) -> int | None:
        if periodic:
            return (r % rows) * cols + (c % cols)
        if 0 <= r < rows and 0 <= c < cols:
            return r * cols + c
        return None

    sends: Dict[int, Dict[int, np.ndarray]] = {}
    for r in range(rows):
        for c in range(cols):
            src = r * cols + c
            base = src * 4 * side
            faces = {
                "north": rank_of(r - 1, c),
                "south": rank_of(r + 1, c),
                "west": rank_of(r, c - 1),
                "east": rank_of(r, c + 1),
            }
            for face_index, (_, dest) in enumerate(sorted(faces.items())):
                if dest is None or dest == src:
                    continue
                items = base + face_index * side + np.arange(side, dtype=np.int64)
                sends.setdefault(src, {})[dest] = items
    return DictPattern(n_ranks, sends)
