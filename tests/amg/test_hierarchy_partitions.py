"""Coverage for the coarse-level partitions the transfer patterns depend on.

``_coarse_partition`` and ``redistribute_hierarchy`` decide which rank owns
which coarse rows; the grid-transfer communication patterns (and therefore
the whole distributed solve phase) are derived from those partitions, so
their invariants are pinned directly here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg.coarsen import CPOINT, FPOINT, SplittingResult
from repro.amg.hierarchy import (
    _coarse_partition,
    build_hierarchy,
    redistribute_hierarchy,
)
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d
from repro.utils.errors import ValidationError


def _splitting(flags):
    flags = np.asarray(flags, dtype=np.int64)
    coarse_index = np.full(flags.size, -1, dtype=np.int64)
    coarse_index[flags == CPOINT] = np.arange(int((flags == CPOINT).sum()))
    return SplittingResult(splitting=flags, coarse_index=coarse_index)


class TestCoarsePartition:
    def test_counts_follow_fine_ownership(self):
        # ranks own rows [0,3), [3,5), [5,9); C-points at 0, 2, 4, 5, 8.
        fine = RowPartition([0, 3, 5, 9])
        splitting = _splitting([CPOINT, FPOINT, CPOINT, FPOINT, CPOINT,
                                CPOINT, FPOINT, FPOINT, CPOINT])
        coarse = _coarse_partition(fine, splitting)
        assert coarse.n_ranks == fine.n_ranks
        assert coarse.n_rows == 5
        assert [coarse.local_size(rank) for rank in range(3)] == [2, 1, 2]

    def test_rank_without_coarse_points_gets_empty_range(self):
        fine = RowPartition([0, 2, 4, 6])
        splitting = _splitting([CPOINT, FPOINT, FPOINT, FPOINT, CPOINT, CPOINT])
        coarse = _coarse_partition(fine, splitting)
        assert [coarse.local_size(rank) for rank in range(3)] == [1, 0, 2]
        assert coarse.active_ranks().tolist() == [0, 2]

    def test_empty_fine_rank_stays_empty(self):
        fine = RowPartition([0, 3, 3, 6])
        splitting = _splitting([CPOINT, CPOINT, FPOINT, FPOINT, CPOINT, FPOINT])
        coarse = _coarse_partition(fine, splitting)
        assert [coarse.local_size(rank) for rank in range(3)] == [2, 0, 1]

    def test_all_fine_points_yields_empty_partition(self):
        fine = RowPartition([0, 2, 4])
        splitting = _splitting([FPOINT, FPOINT, FPOINT, FPOINT])
        coarse = _coarse_partition(fine, splitting)
        assert coarse.n_rows == 0
        assert coarse.n_ranks == 2


@pytest.fixture(scope="module")
def hierarchy():
    matrix = ParCSRMatrix(poisson_2d((24, 24)), RowPartition.even(576, 16))
    return build_hierarchy(matrix, seed=1)


class TestRedistributeHierarchy:
    def test_coarse_ownership_follows_new_fine_partition(self, hierarchy):
        """Every level's partition is re-derived from the stored splittings:
        coarse row c (created from fine row f) is owned by whichever rank owns
        f under the *new* distribution."""
        redistributed = redistribute_hierarchy(hierarchy, 4)
        for level, new_level in zip(hierarchy.levels[:-1],
                                    redistributed.levels[:-1]):
            fine_partition = new_level.matrix.partition
            coarse_partition = redistributed.levels[new_level.index + 1] \
                .matrix.partition
            for coarse_row, fine_row in enumerate(
                    new_level.splitting.coarse_rows):
                assert coarse_partition.owner_of(coarse_row) == \
                    fine_partition.owner_of(int(fine_row))

    def test_partitions_cover_each_level_exactly(self, hierarchy):
        for n_ranks in (2, 4, 32):
            redistributed = redistribute_hierarchy(hierarchy, n_ranks)
            for level in redistributed.levels:
                partition = level.matrix.partition
                assert partition.n_ranks == n_ranks
                assert partition.n_rows == level.n_rows

    def test_more_ranks_than_coarse_rows_leaves_empty_ranks(self, hierarchy):
        """Strong-scaling redistributions leave coarse ranks empty; the
        partitions must record that rather than fail."""
        redistributed = redistribute_hierarchy(hierarchy, 32)
        coarsest = redistributed.levels[-1].matrix.partition
        assert coarsest.n_rows < 32
        assert coarsest.active_ranks().size < 32
        sizes = np.diff(coarsest.offsets)
        assert (sizes == 0).any() and sizes.sum() == coarsest.n_rows

    def test_transfer_matrices_follow_redistribution(self, hierarchy):
        """Transfer operators of a redistributed hierarchy stay consistent:
        row/column partitions are the adjacent levels' new partitions."""
        redistributed = redistribute_hierarchy(hierarchy, 4)
        for index in range(redistributed.n_levels - 1):
            prolongation = redistributed.prolongation_matrix(index)
            assert prolongation.partition == \
                redistributed.levels[index].matrix.partition
            assert prolongation.col_partition == \
                redistributed.levels[index + 1].matrix.partition
            restriction = redistributed.restriction_matrix(index)
            assert restriction.partition == prolongation.col_partition
            assert restriction.col_partition == prolongation.partition

    def test_empty_hierarchy_rejected(self):
        from repro.amg.hierarchy import AMGHierarchy

        with pytest.raises(ValidationError):
            redistribute_hierarchy(AMGHierarchy(), 4)

    def test_coarsest_level_has_no_prolongation_matrix(self, hierarchy):
        with pytest.raises(ValidationError):
            hierarchy.prolongation_matrix(hierarchy.n_levels - 1)

    def test_transfer_matrices_are_memoized(self, hierarchy):
        """Repeated accessors share one rect matrix (and its block cache)."""
        assert hierarchy.prolongation_matrix(0) is hierarchy.prolongation_matrix(0)
        assert hierarchy.restriction_matrix(0) is hierarchy.restriction_matrix(0)
