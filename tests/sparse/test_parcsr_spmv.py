"""Unit tests for ParCSR matrices, their communication patterns, and distributed SpMV."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amg.hierarchy import build_hierarchy
from repro.amg.relax import DistributedJacobi
from repro.collectives.plan import Variant
from repro.pattern.validation import validate_pattern
from repro.simmpi.world import run_spmd
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import (
    DistributedSpMV,
    WorldSpMV,
    distributed_spmv_results,
    sequential_spmv,
)
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError


class TestParCSRMatrix:
    def test_requires_square_matrix(self):
        with pytest.raises(ValidationError):
            ParCSRMatrix(sp.random(4, 5, density=0.5, format="csr"),
                         RowPartition.even(4, 2))

    def test_jacobi_requires_one_partition(self):
        """A 4 x 4 operator over two different partitions has non-square diag
        blocks; ``diag.diagonal()`` would silently return ``min(shape)``."""
        matrix = ParCSRMatrix(sp.eye(4, format="csr"), RowPartition([0, 1, 4]),
                              RowPartition([0, 3, 4]))
        mapping = paper_mapping(2, ranks_per_node=2)
        with WorldSpMV(matrix, mapping) as spmv:
            with pytest.raises(ValidationError, match="one partition"):
                DistributedJacobi(spmv)

        def program(comm):
            spmv = DistributedSpMV(comm, matrix, mapping)
            with pytest.raises(ValidationError, match="one partition"):
                DistributedJacobi(spmv)

        run_spmd(2, program, timeout=60)

    def test_build_hierarchy_requires_one_partition(self):
        """Small enough to stop at one level, so the square check inside
        ``classical_strength`` is never reached."""
        matrix = ParCSRMatrix(sp.random(4, 5, density=0.5, format="csr"),
                              RowPartition.even(4, 2), RowPartition.even(5, 2))
        with pytest.raises(ValidationError, match="one partition"):
            build_hierarchy(matrix)

    def test_partition_must_match_rows(self):
        with pytest.raises(ValidationError):
            ParCSRMatrix(sp.eye(4, format="csr"), RowPartition.even(5, 2))

    def test_diag_offd_split_reassembles_rows(self, small_anisotropic_matrix):
        matrix = small_anisotropic_matrix
        for rank in (0, 7, 15):
            blocks = matrix.local_blocks(rank)
            first, last = blocks.row_range
            local_rows = matrix.matrix[first:last, :]
            # The diag block holds exactly the columns inside the owned range.
            np.testing.assert_allclose(
                blocks.diag.toarray(), local_rows[:, first:last].toarray())
            # Every off-diagonal non-zero is accounted for in the offd block.
            assert blocks.diag.nnz + blocks.offd.nnz == local_rows.nnz

    def test_col_map_offd_sorted_and_off_process(self, small_anisotropic_matrix):
        matrix = small_anisotropic_matrix
        for rank in range(matrix.n_ranks):
            blocks = matrix.local_blocks(rank)
            col_map = blocks.col_map_offd
            assert np.all(np.diff(col_map) > 0)
            first, last = blocks.row_range
            assert np.all((col_map < first) | (col_map >= last))

    def test_offd_columns_fast_path_matches_blocks(self, small_anisotropic_matrix):
        """The one-pass stacked split names the same off-process columns as
        every rank's scipy slicing."""
        matrix = small_anisotropic_matrix
        stacked = matrix.stacked_blocks()
        for rank in range(matrix.n_ranks):
            lo, hi = stacked.offd_offsets[rank:rank + 2]
            blocks = matrix.local_blocks(rank)
            np.testing.assert_array_equal(stacked.col_map_offd[lo:hi],
                                          blocks.col_map_offd)

    def test_single_rank_has_no_offd(self):
        matrix = ParCSRMatrix(poisson_2d((8, 8)), RowPartition.even(64, 1))
        blocks = matrix.local_blocks(0)
        assert blocks.n_offd_cols == 0

    def test_spmv_reference(self, small_poisson_matrix, rng):
        x = rng.random(small_poisson_matrix.n_rows)
        np.testing.assert_allclose(small_poisson_matrix.spmv(x),
                                   small_poisson_matrix.matrix @ x)

    def test_with_partition(self, small_poisson_matrix):
        repartitioned = small_poisson_matrix.with_partition(RowPartition.even(576, 4))
        assert repartitioned.n_ranks == 4
        assert repartitioned.nnz == small_poisson_matrix.nnz


class TestCommPkg:
    """What hypre keeps in a comm package, read off ``pattern_from_parcsr``."""

    def test_send_and_recv_sides_are_transposes(self, small_anisotropic_matrix):
        pattern = pattern_from_parcsr(small_anisotropic_matrix)
        for rank in range(pattern.n_ranks):
            for src, items in pattern.recv_map(rank).items():
                np.testing.assert_array_equal(pattern.send_map(src)[rank], items)

    def test_recv_items_are_exactly_offd_columns(self, small_anisotropic_matrix):
        pattern = pattern_from_parcsr(small_anisotropic_matrix)
        for rank in range(small_anisotropic_matrix.n_ranks):
            needed = small_anisotropic_matrix.local_blocks(rank).col_map_offd
            received = np.sort(np.concatenate(
                [items for items in pattern.recv_map(rank).values()])) \
                if pattern.recv_map(rank) else np.empty(0, dtype=np.int64)
            np.testing.assert_array_equal(received, needed)

    def test_neighbors_sorted(self, small_anisotropic_matrix):
        pattern = pattern_from_parcsr(small_anisotropic_matrix)
        sources, destinations = pattern.recv_ranks(5), pattern.send_ranks(5)
        assert sources and destinations
        assert sources == sorted(sources) == list(pattern.recv_map(5))
        assert destinations == sorted(destinations) == list(pattern.send_map(5))

    def test_pattern_from_parcsr_valid(self, small_anisotropic_matrix):
        pattern = pattern_from_parcsr(small_anisotropic_matrix)
        validate_pattern(pattern, require_unique_items=True, allow_self_messages=False)
        assert pattern.n_ranks == small_anisotropic_matrix.n_ranks

    def test_pattern_items_owned_by_sender(self, small_anisotropic_matrix):
        pattern = pattern_from_parcsr(small_anisotropic_matrix)
        partition = small_anisotropic_matrix.partition
        for src, _, items in pattern.edges():
            assert np.all(partition.owners_of(items) == src)

    def test_total_recv_items(self, small_anisotropic_matrix):
        pattern = pattern_from_parcsr(small_anisotropic_matrix)
        for rank in range(small_anisotropic_matrix.n_ranks):
            assert sum(items.size for items in pattern.recv_map(rank).values()) == \
                small_anisotropic_matrix.local_blocks(rank).col_map_offd.size


class TestDistributedSpMV:
    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL, Variant.FULL])
    def test_matches_sequential_product(self, variant, rng):
        matrix = ParCSRMatrix(rotated_anisotropic_diffusion((16, 16)),
                              RowPartition.even(256, 8))
        mapping = paper_mapping(8, ranks_per_node=4)
        x = rng.random(256)
        expected = sequential_spmv(matrix, x)
        result = distributed_spmv_results(matrix, mapping, x, variant=variant)
        np.testing.assert_allclose(result, expected, rtol=1e-13, atol=1e-13)

    def test_poisson_matches_sequential(self, small_poisson_matrix, rng):
        mapping = paper_mapping(8, ranks_per_node=4)
        x = rng.random(small_poisson_matrix.n_rows)
        expected = sequential_spmv(small_poisson_matrix, x)
        result = distributed_spmv_results(small_poisson_matrix, mapping, x,
                                          variant=Variant.FULL)
        np.testing.assert_allclose(result, expected, rtol=1e-13, atol=1e-13)

    def test_shape_validation(self, small_poisson_matrix):
        mapping = paper_mapping(8, ranks_per_node=4)
        with pytest.raises(ValidationError):
            distributed_spmv_results(small_poisson_matrix, mapping, np.zeros(3))
