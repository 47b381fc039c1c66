"""Rectangular ParCSR matrices and grid-transfer SpMV.

Covers grid transfers end to end — two-partition ``ParCSRMatrix`` block views,
``pattern_from_parcsr`` construction, and the world product, byte-equal to
the sequential one — plus the regression suite for hierarchy levels with
empty ranks: a level whose partition leaves ranks without rows must flow
through :class:`WorldSpMV` and friends cleanly (never a deep engine error),
while genuinely invalid inputs (a mapping smaller than the partition, which
used to surface as a deep planner ``TopologyError``) fail up front with a
clear :class:`ValidationError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg.hierarchy import build_hierarchy
from repro.collectives.plan import Variant
from repro.simmpi import ExchangeEngine
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import WorldSpMV
from repro.sparse.stencils import poisson_2d
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def transfer_fixture():
    """A real prolongation with its fine/coarse partitions (8 ranks)."""
    matrix = ParCSRMatrix(poisson_2d((20, 20)), RowPartition.even(400, 8))
    hierarchy = build_hierarchy(matrix, seed=1)
    return hierarchy


class TestRectMatrix:
    def test_shape_and_partition_validation(self):
        matrix = poisson_2d((4, 4))  # 16 x 16
        with pytest.raises(ValidationError):
            ParCSRMatrix(matrix, RowPartition.even(12, 2),
                         RowPartition.even(16, 2))
        with pytest.raises(ValidationError):
            ParCSRMatrix(matrix, RowPartition.even(16, 2),
                         RowPartition.even(12, 2))
        with pytest.raises(ValidationError):
            ParCSRMatrix(matrix, RowPartition.even(16, 2),
                         RowPartition.even(16, 4))

    def test_blocks_reassemble_the_operator(self, transfer_fixture):
        prolongation = transfer_fixture.prolongation_matrix(0)
        x = np.arange(prolongation.n_cols, dtype=np.float64)
        result = np.empty(prolongation.n_rows)
        for rank in range(prolongation.n_ranks):
            blocks = prolongation.local_blocks(rank)
            first, last = blocks.row_range
            col_first, col_last = blocks.col_range
            local = blocks.diag @ x[col_first:col_last]
            if blocks.n_offd_cols:
                local = local + blocks.offd @ x[blocks.col_map_offd]
            result[first:last] = local
        np.testing.assert_allclose(result, prolongation.spmv(x),
                                   rtol=1e-14, atol=0)

    def test_offd_columns_match_block_view(self, transfer_fixture):
        restriction = transfer_fixture.restriction_matrix(0)
        stacked = restriction.stacked_blocks()
        for rank in range(restriction.n_ranks):
            lo, hi = stacked.offd_offsets[rank:rank + 2]
            assert np.array_equal(stacked.col_map_offd[lo:hi],
                                  restriction.local_blocks(rank).col_map_offd)

    def test_transpose_swaps_partitions(self, transfer_fixture):
        prolongation = transfer_fixture.prolongation_matrix(1)
        transposed = prolongation.transpose()
        assert transposed.n_rows == prolongation.n_cols
        assert transposed.partition == prolongation.col_partition
        assert transposed.col_partition == prolongation.partition
        assert (transposed.matrix != prolongation.matrix.T.tocsr()).nnz == 0


class TestTransferPattern:
    def test_pattern_items_are_offd_columns(self, transfer_fixture):
        prolongation = transfer_fixture.prolongation_matrix(0)
        pattern = pattern_from_parcsr(prolongation)
        for rank in range(prolongation.n_ranks):
            wanted = prolongation.local_blocks(rank).col_map_offd
            received = pattern.recv_map(rank)
            got = np.sort(np.concatenate(list(received.values()))) \
                if received else np.empty(0, dtype=np.int64)
            assert np.array_equal(got, wanted)

    def test_senders_own_their_items(self, transfer_fixture):
        prolongation = transfer_fixture.prolongation_matrix(0)
        pattern = pattern_from_parcsr(prolongation)
        col_partition = prolongation.col_partition
        for src in range(pattern.n_ranks):
            for dest, items in pattern.send_map(src).items():
                assert dest != src
                assert np.all(col_partition.owners_of(items) == src)

    def test_pkg_sides_are_transposes(self, transfer_fixture):
        pattern = pattern_from_parcsr(transfer_fixture.restriction_matrix(0))
        assert pattern.n_messages
        for rank in range(pattern.n_ranks):
            for src, items in pattern.recv_map(rank).items():
                assert np.array_equal(np.sort(items),
                                      np.sort(pattern.send_map(src)[rank]))


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL])
@pytest.mark.parametrize("level", [0, 1])
def test_transfer_byte_identical_to_sequential(transfer_fixture, variant,
                                               level, rng):
    for operator in (transfer_fixture.prolongation_matrix(level),
                     transfer_fixture.restriction_matrix(level)):
        mapping = paper_mapping(operator.n_ranks, ranks_per_node=4)
        x = rng.standard_normal(operator.n_cols)
        with WorldSpMV(operator, mapping, variant=variant) as spmv:
            product = spmv.multiply(x)
        assert product.tobytes() == operator.spmv(x).tobytes()


def test_world_rect_spmv_reusable(transfer_fixture, rng):
    operator = transfer_fixture.prolongation_matrix(0)
    mapping = paper_mapping(operator.n_ranks, ranks_per_node=4)
    spmv = WorldSpMV(operator, mapping, variant=Variant.FULL)
    for _ in range(3):
        x = rng.standard_normal(operator.n_cols)
        assert spmv.multiply(x).tobytes() == operator.spmv(x).tobytes()


class TestEmptyRankRegression:
    """Hierarchy levels with empty ranks flow through cleanly.

    Coarse AMG levels routinely leave ranks without rows; both engine
    runtimes must execute those levels (SpMV and grid transfers alike)
    rather than fail deep inside the exchange machinery.
    """

    @pytest.fixture(scope="class")
    def empty_rank_hierarchy(self):
        """4096 rows on 64 ranks: coarse levels leave many ranks empty."""
        matrix = ParCSRMatrix(poisson_2d((40, 40)),
                              RowPartition.even(1600, 32))
        return build_hierarchy(matrix, seed=1)

    def test_coarse_levels_have_empty_ranks(self, empty_rank_hierarchy):
        sizes = np.diff(empty_rank_hierarchy.levels[-1].matrix.partition.offsets)
        assert (sizes == 0).any()

    @pytest.mark.parametrize("runtime", ["engine", "procs"])
    def test_spmv_on_empty_rank_level(self, empty_rank_hierarchy, runtime, rng):
        level = empty_rank_hierarchy.levels[-1].matrix
        mapping = paper_mapping(level.n_ranks, ranks_per_node=16)
        x = rng.standard_normal(level.n_rows)
        engine = ExchangeEngine(level.n_ranks, runtime=runtime,
                                n_workers=2 if runtime == "procs" else None)
        with engine, WorldSpMV(level, mapping, variant=Variant.FULL,
                               engine=engine) as spmv:
            result = spmv.multiply(x)
        assert result.tobytes() == level.spmv(x).tobytes()

    def test_transfer_onto_empty_rank_level(self, empty_rank_hierarchy, rng):
        index = empty_rank_hierarchy.n_levels - 2
        operator = empty_rank_hierarchy.prolongation_matrix(index)
        mapping = paper_mapping(operator.n_ranks, ranks_per_node=16)
        x = rng.standard_normal(operator.n_cols)
        with WorldSpMV(operator, mapping, variant=Variant.FULL) as spmv:
            result = spmv.multiply(x)
        assert result.tobytes() == operator.spmv(x).tobytes()

    def test_world_vcycle_over_empty_rank_levels(self, empty_rank_hierarchy,
                                                 rng):
        from repro.amg.solver import BoomerAMGSolver
        from repro.amg.vcycle import WorldVCycle

        matrix = empty_rank_hierarchy.levels[0].matrix
        mapping = paper_mapping(matrix.n_ranks, ranks_per_node=16)
        b = rng.standard_normal(matrix.n_rows)
        x0 = np.zeros(matrix.n_rows)
        world_x = WorldVCycle(empty_rank_hierarchy, mapping,
                              variant=Variant.FULL).cycle(b, x0)
        seed_x = BoomerAMGSolver(matrix,
                                 hierarchy=empty_rank_hierarchy).vcycle(b, x0)
        assert world_x.tobytes() == seed_x.tobytes()

    def test_undersized_mapping_rejected_up_front(self, empty_rank_hierarchy):
        """This used to surface as a deep planner ``TopologyError`` (or pass
        silently for the standard variant); now every entry point raises a
        clear :class:`ValidationError` before any plan is built."""
        small = paper_mapping(4, ranks_per_node=4)
        for operator in (empty_rank_hierarchy.levels[0].matrix,
                         empty_rank_hierarchy.prolongation_matrix(0)):
            with pytest.raises(ValidationError, match="mapping covers"):
                WorldSpMV(operator, small)
