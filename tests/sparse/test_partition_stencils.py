"""Unit tests for row partitions and stencil generators."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.generators import grid_shape_for_rows, strong_scaling_problem, weak_scaling_problem
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import (
    poisson_2d,
    rotated_anisotropic_diffusion,
    rotated_anisotropic_stencil,
    stencil_grid,
)
from repro.utils.errors import ValidationError


class TestRowPartition:
    def test_even_split(self):
        partition = RowPartition.even(10, 3)
        assert np.diff(partition.offsets).tolist() == [4, 3, 3]

    def test_owner_of(self):
        partition = RowPartition.even(10, 3)
        assert partition.owner_of(0) == 0
        assert partition.owner_of(3) == 0
        assert partition.owner_of(4) == 1
        assert partition.owner_of(9) == 2

    def test_owners_of_vectorised(self):
        partition = RowPartition.even(100, 7)
        rows = np.arange(100)
        owners = partition.owners_of(rows)
        assert all(owners[i] == partition.owner_of(int(i)) for i in rows)

    def test_row_range(self):
        partition = RowPartition.even(12, 4)
        first, last = partition.row_range(2)
        assert (first, last) == (6, 9)

    def test_from_sizes(self):
        partition = RowPartition.from_sizes([2, 0, 3])
        assert partition.n_rows == 5
        assert partition.rows_of(1).size == 0
        assert partition.active_ranks().tolist() == [0, 2]

    def test_invalid_offsets(self):
        with pytest.raises(ValidationError):
            RowPartition([1, 2])
        with pytest.raises(ValidationError):
            RowPartition([0, 5, 3])

    def test_out_of_range_queries(self):
        partition = RowPartition.even(4, 2)
        with pytest.raises(ValidationError):
            partition.owner_of(4)
        with pytest.raises(ValidationError):
            partition.row_range(2)

    def test_equality(self):
        assert RowPartition.even(10, 2) == RowPartition.even(10, 2)
        assert RowPartition.even(10, 2) != RowPartition.even(10, 5)


class TestRotatedAnisotropicStencil:
    def test_seven_nonzeros_at_default_parameters(self):
        stencil = rotated_anisotropic_stencil()
        assert np.count_nonzero(np.abs(stencil) > 1e-14) == 7

    def test_row_sum_is_zero(self):
        # The continuous operator annihilates constants; the stencil must too.
        assert abs(rotated_anisotropic_stencil().sum()) < 1e-12

    def test_isotropic_limit_is_laplacian(self):
        stencil = rotated_anisotropic_stencil(epsilon=1.0, theta=0.0)
        expected = np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], dtype=float)
        np.testing.assert_allclose(stencil, expected, atol=1e-12)

    def test_negative_rotation_uses_other_diagonal(self):
        stencil = rotated_anisotropic_stencil(theta=-math.pi / 4)
        assert abs(stencil[0, 2]) > 1e-6 and abs(stencil[2, 0]) > 1e-6
        assert abs(stencil[0, 0]) < 1e-12 and abs(stencil[2, 2]) < 1e-12

    def test_invalid_epsilon(self):
        with pytest.raises(ValidationError):
            rotated_anisotropic_stencil(epsilon=0.0)


class TestStencilGrid:
    def test_shape_and_symmetry(self):
        matrix = rotated_anisotropic_diffusion((8, 8))
        assert matrix.shape == (64, 64)
        assert abs(matrix - matrix.T).max() < 1e-12

    def test_interior_row_has_seven_entries(self):
        matrix = rotated_anisotropic_diffusion((8, 8))
        interior = 3 * 8 + 3
        assert matrix[interior].nnz == 7

    def test_positive_definite_on_small_grid(self):
        matrix = rotated_anisotropic_diffusion((6, 6)).toarray()
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > 0

    def test_poisson_2d_row_structure(self):
        matrix = poisson_2d((5, 5))
        assert matrix.shape == (25, 25)
        interior = 2 * 5 + 2
        assert matrix[interior].nnz == 5
        assert matrix.diagonal().min() == 4.0

    def test_stencil_grid_rejects_bad_stencil(self):
        with pytest.raises(ValidationError):
            stencil_grid(np.zeros((2, 2)), (4, 4))

    def test_boundary_truncation(self):
        matrix = poisson_2d((4, 4))
        corner = 0
        assert matrix[corner].nnz == 3  # diagonal plus two in-grid neighbours


class TestProblemGenerators:
    def test_grid_shape_exact_product(self):
        shape = grid_shape_for_rows(524288)
        assert shape[0] * shape[1] == 524288
        assert shape == (1024, 512)

    def test_grid_shape_square(self):
        assert grid_shape_for_rows(4096) == (64, 64)

    def test_grid_shape_rejects_awkward_counts(self):
        with pytest.raises(ValidationError):
            grid_shape_for_rows(7919)   # prime: only a 7919x1 grid exists

    def test_strong_scaling_problem(self):
        problem = strong_scaling_problem(4096, 32)
        assert problem.n_rows == 4096
        assert problem.matrix.n_ranks == 32
        assert problem.rows_per_rank == 128

    def test_weak_scaling_problem(self):
        problem = weak_scaling_problem(128, 16)
        assert problem.n_rows == 2048
        assert problem.matrix.partition.rows_of(0).size == 128
