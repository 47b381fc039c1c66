"""Constructors for communication patterns.

Patterns usually come from a distributed sparse matrix (see
:func:`repro.sparse.comm_pkg.pattern_from_parcsr`), but the builders here cover
the other cases the tests and examples need: explicit edge lists, random
irregular patterns with controllable fan-out, and structured halo exchanges.

Every builder is CSR-native: it accumulates per-edge endpoint/item arrays and
hands them to :meth:`CommPattern.from_edge_lists` in one vectorized
concatenate + stable-lexsort pass — no per-edge dict insertion, no per-item
Python conversion.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.pattern.comm_pattern import CommPattern
from repro.utils.arrays import INDEX_DTYPE, as_index_array
from repro.utils.errors import ValidationError
from repro.utils.validation import check_non_negative_int, check_positive_int


def _pattern_from_triples(n_ranks: int, srcs: Sequence[int], dests: Sequence[int],
                          item_arrays: Sequence[np.ndarray], *,
                          dtype, item_size: int) -> CommPattern:
    """Assemble a pattern from parallel per-edge lists in one columnar pass."""
    return CommPattern.from_edge_lists(
        n_ranks, np.asarray(srcs, dtype=INDEX_DTYPE),
        np.asarray(dests, dtype=INDEX_DTYPE), item_arrays,
        dtype=dtype, item_size=item_size)


def pattern_from_edges(n_ranks: int,
                       edges: Iterable[Tuple[int, int, Sequence[int]]],
                       *, dtype=np.float64, item_size: int = 1) -> CommPattern:
    """Build a pattern from ``(src, dest, item_ids)`` triples.

    Items for repeated ``(src, dest)`` pairs are concatenated in call order
    (the stable lexsort of the columnar build preserves it).
    """
    srcs: list[int] = []
    dests: list[int] = []
    item_arrays: list[np.ndarray] = []
    for src, dest, items in edges:
        srcs.append(int(src))
        dests.append(int(dest))
        item_arrays.append(as_index_array(items))
    return _pattern_from_triples(n_ranks, srcs, dests, item_arrays,
                                 dtype=dtype, item_size=item_size)


def random_pattern(n_ranks: int, *, avg_neighbors: float = 6.0,
                   avg_items_per_message: float = 12.0,
                   duplicate_fraction: float = 0.3,
                   items_per_rank: int = 64,
                   seed: int = 0, dtype=np.float64,
                   item_size: int = 1) -> CommPattern:
    """Generate a random irregular pattern with controllable duplication.

    Every rank owns ``items_per_rank`` items with globally unique ids
    (``rank * items_per_rank + local``).  Each rank picks a random set of
    destination ranks and, for each, a random subset of its items; a
    ``duplicate_fraction`` of the items chosen for one destination are re-used
    for the rank's other destinations, creating exactly the duplicate-value
    situation Section 3.3 of the paper targets.
    """
    check_positive_int("n_ranks", n_ranks)
    check_positive_int("items_per_rank", items_per_rank)
    if avg_neighbors < 0 or avg_items_per_message < 0:
        raise ValidationError("averages must be non-negative")
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValidationError("duplicate_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    srcs: list[int] = []
    edge_dests: list[int] = []
    item_arrays: list[np.ndarray] = []
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
            srcs.append(src)
            edge_dests.append(int(dest))
            item_arrays.append(items)
    return _pattern_from_triples(n_ranks, srcs, edge_dests, item_arrays,
                                 dtype=dtype, item_size=item_size)


def halo_exchange_pattern(grid_shape: Tuple[int, int], *, width: int = 1,
                          points_per_cell: int = 16,
                          dtype=np.float64, item_size: int = 1,
                          periodic: bool = False) -> CommPattern:
    """Structured 2-D halo exchange: every rank talks to its grid neighbors.

    Ranks are arranged on a ``grid_shape`` process grid; each sends ``width``
    layers of ``points_per_cell`` items to its north/south/east/west neighbors
    (and nothing diagonally).  This is the motivating "simulation" workload of
    the paper's introduction and a convenient regression pattern because its
    statistics are known in closed form.
    """
    rows, cols = grid_shape
    check_positive_int("rows", rows)
    check_positive_int("cols", cols)
    check_positive_int("points_per_cell", points_per_cell)
    check_non_negative_int("width", width)
    n_ranks = rows * cols
    side = points_per_cell * width

    def rank_of(r: int, c: int) -> int | None:
        if periodic:
            return (r % rows) * cols + (c % cols)
        if 0 <= r < rows and 0 <= c < cols:
            return r * cols + c
        return None

    srcs: list[int] = []
    edge_dests: list[int] = []
    item_arrays: list[np.ndarray] = []
    edge_slot: dict[Tuple[int, int], int] = {}
    for r in range(rows):
        for c in range(cols):
            src = r * cols + c
            base = src * 4 * side  # globally unique ids per rank and face
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
                # On tiny periodic grids two faces can hit the same neighbor;
                # the last face wins, as in dict-keyed construction.
                slot = edge_slot.get((src, dest))
                if slot is not None:
                    item_arrays[slot] = items
                    continue
                edge_slot[(src, dest)] = len(srcs)
                srcs.append(src)
                edge_dests.append(dest)
                item_arrays.append(items)
    return _pattern_from_triples(n_ranks, srcs, edge_dests, item_arrays,
                                 dtype=dtype, item_size=item_size)
