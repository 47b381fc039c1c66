"""``coarse_gather_pattern`` against the edge-by-edge build it replaced.

The columnar build must produce the very CSR columns (dtype and bytes) of
the edge-list build, so a gather built either way has one content hash and
hits the same plan-cache entry.  Partitions with empty ranks, with a single
active rank and with a single rank are included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg.vcycle import coarse_gather_pattern
from repro.pattern.comm_pattern import CommPattern
from repro.sparse.partition import RowPartition


def edge_list_gather(partition: RowPartition) -> CommPattern:
    """Every active rank sends its rows to every other rank, edge by edge."""
    n_ranks = partition.n_ranks
    srcs, dests, item_arrays = [], [], []
    for src in partition.active_ranks().tolist():
        items = partition.rows_of(src)
        for dest in range(n_ranks):
            if dest == src:
                continue
            srcs.append(src)
            dests.append(dest)
            item_arrays.append(items)
    return CommPattern.from_edge_lists(
        n_ranks, np.asarray(srcs, dtype=np.int64),
        np.asarray(dests, dtype=np.int64), item_arrays)


PARTITIONS = {
    "one-rank": [5],
    "one-empty-rank": [0],
    "all-empty": [0, 0, 0, 0],
    "one-active-first": [3, 0, 0, 0],
    "one-active-last": [0, 0, 0, 2],
    "empty-ranks-between": [2, 0, 1, 0, 0, 4],
    "even": [3, 3, 3, 2],
}
PARTITIONS.update({
    f"random-{seed}": np.random.default_rng(seed).integers(0, 3, 2 + 3 * seed)
    for seed in range(8)})


@pytest.mark.parametrize("sizes", PARTITIONS.values(), ids=PARTITIONS.keys())
def test_columnar_gather_equals_the_edge_list_build(sizes):
    partition = RowPartition.from_sizes(sizes)
    columnar = coarse_gather_pattern(partition)
    expected = edge_list_gather(partition)
    for got, want in zip(columnar.csr(), expected.csr()):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert columnar == expected
