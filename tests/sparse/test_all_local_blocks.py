"""Golden equivalence: blocks cut from the stacked operator vs scipy slicing.

:meth:`ParCSRMatrix.local_blocks` / :meth:`~ParCSRMatrix.all_local_blocks`
cut every rank's diag/offd split (one partition or two) out of the one
stacked operator; the per-rank scipy slicing loop (``reference_blocks.py``) is
the pinned reference.  Structure must match exactly: dense block values,
shapes, ``col_map_offd`` contents, and sorted column order inside every row.
The last test pins "a square operator is the one-partition case": passing the
row partition again as ``col_partition`` changes nothing, down to the bytes
of a product.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import WorldSpMV
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping

from reference_blocks import reference_blocks


def assert_blocks_match(fast_blocks, ref_blocks):
    assert len(fast_blocks) == len(ref_blocks)
    for fast, ref in zip(fast_blocks, ref_blocks):
        assert fast.rank == ref.rank
        assert fast.row_range == ref.row_range
        assert fast.col_range == ref.col_range
        assert fast.diag.shape == ref.diag.shape
        assert fast.offd.shape == ref.offd.shape
        np.testing.assert_array_equal(fast.col_map_offd, ref.col_map_offd)
        assert fast.col_map_offd.dtype == ref.col_map_offd.dtype
        np.testing.assert_array_equal(fast.diag.toarray(), ref.diag.toarray())
        np.testing.assert_array_equal(fast.offd.toarray(), ref.offd.toarray())
        for block in (fast.diag, fast.offd):
            for row in range(block.shape[0]):
                cols = block.indices[block.indptr[row]:block.indptr[row + 1]]
                assert np.all(np.diff(cols) > 0), "unsorted or duplicate cols"


@pytest.mark.parametrize("n_ranks", [1, 3, 4, 7])
def test_square_split_matches_per_rank_path(n_ranks):
    matrix = ParCSRMatrix(rotated_anisotropic_diffusion((6, 6)),
                          RowPartition.even(36, n_ranks))
    assert_blocks_match(matrix.all_local_blocks(), reference_blocks(matrix))


def test_square_split_with_empty_ranks():
    offsets = [0, 10, 10, 25, 25, 36]
    matrix = ParCSRMatrix(poisson_2d((6, 6)), RowPartition(offsets))
    assert_blocks_match(matrix.all_local_blocks(), reference_blocks(matrix))


def test_rect_split_matches_per_rank_path():
    rng = np.random.default_rng(7)
    dense = (rng.random((24, 15)) < 0.2) * rng.random((24, 15))
    matrix = ParCSRMatrix(sp.csr_matrix(dense), RowPartition.even(24, 4),
                          RowPartition.even(15, 4))
    assert_blocks_match(matrix.all_local_blocks(), reference_blocks(matrix))


def test_all_local_blocks_respects_cache_identity():
    matrix = ParCSRMatrix(poisson_2d((4, 4)), RowPartition.even(16, 4))
    cached = matrix.local_blocks(2)
    blocks = matrix.all_local_blocks()
    assert blocks[2] is cached
    assert matrix.local_blocks(0) is blocks[0]


def test_spmv_through_vectorized_blocks():
    matrix = ParCSRMatrix(rotated_anisotropic_diffusion((5, 5)),
                          RowPartition.even(25, 5))
    x = np.arange(25, dtype=np.float64)
    expected = matrix.matrix @ x
    result = np.empty(25)
    for blocks in matrix.all_local_blocks():
        first, last = blocks.row_range
        local = blocks.diag @ x[first:last]
        if blocks.n_offd_cols:
            local = local + blocks.offd @ x[blocks.col_map_offd]
        result[first:last] = local
    np.testing.assert_allclose(result, expected, atol=1e-12)


@pytest.mark.parametrize("offsets", [[0, 9, 18, 27, 36], [0, 10, 10, 25, 25, 36]])
def test_square_is_the_one_partition_case(offsets):
    csr = rotated_anisotropic_diffusion((6, 6))
    partition = RowPartition(offsets)
    one = ParCSRMatrix(csr, partition)
    two = ParCSRMatrix(csr, partition, RowPartition(offsets))
    assert one.col_partition is one.partition
    for ref_one, ref_two in zip(reference_blocks(one), reference_blocks(two)):
        np.testing.assert_array_equal(ref_one.col_map_offd, ref_two.col_map_offd)
    assert_blocks_match(one.all_local_blocks(), two.all_local_blocks())
    assert_blocks_match(reference_blocks(one), reference_blocks(two))
    pattern_one, pattern_two = pattern_from_parcsr(one), pattern_from_parcsr(two)
    assert pattern_one == pattern_two
    assert hash(pattern_one) == hash(pattern_two)
    mapping = paper_mapping(partition.n_ranks, ranks_per_node=2)
    x = np.random.default_rng(3).standard_normal(36)
    with WorldSpMV(one, mapping) as spmv_one, WorldSpMV(two, mapping) as spmv_two:
        assert spmv_one.multiply(x).tobytes() == spmv_two.multiply(x).tobytes()
