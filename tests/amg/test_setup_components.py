"""Unit tests for the AMG setup components: strength, coarsening, interpolation,
Galerkin products, and relaxation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amg.coarsen import CPOINT, FPOINT, pmis_coarsening
from repro.amg.galerkin import galerkin_product
from repro.amg.interp import direct_interpolation
from repro.amg.relax import weighted_jacobi_iteration
from repro.amg.strength import classical_strength, symmetrized_strength
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.utils.errors import SolverError, ValidationError
from oracles import jacobi


@pytest.fixture
def poisson():
    return poisson_2d((12, 12))


@pytest.fixture
def anisotropic():
    return rotated_anisotropic_diffusion((12, 12))


class TestStrength:
    def test_poisson_all_offdiagonals_strong(self, poisson):
        strength = classical_strength(poisson, theta=0.25)
        # Every off-diagonal of the Laplacian has the same magnitude.
        assert strength.nnz == poisson.nnz - poisson.shape[0]

    def test_anisotropic_keeps_only_strong_direction(self, anisotropic):
        strength = classical_strength(anisotropic, theta=0.25)
        # The weak couplings (magnitude ~0.001) must be dropped.
        assert strength.nnz < anisotropic.nnz - anisotropic.shape[0]
        # Interior rows keep exactly the two diagonal-direction neighbours.
        interior = 5 * 12 + 5
        assert strength[interior].nnz == 2

    def test_no_self_strength(self, poisson):
        strength = classical_strength(poisson)
        assert strength.diagonal().sum() == 0

    def test_theta_one_keeps_only_strongest(self, anisotropic):
        strict = classical_strength(anisotropic, theta=1.0)
        loose = classical_strength(anisotropic, theta=0.0)
        assert strict.nnz <= loose.nnz

    def test_invalid_theta(self, poisson):
        with pytest.raises(ValidationError):
            classical_strength(poisson, theta=2.0)

    def test_symmetrized_contains_both_directions(self):
        asymmetric = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        sym = symmetrized_strength(asymmetric)
        assert sym[0, 1] == 1.0 and sym[1, 0] == 1.0


class TestPMISCoarsening:
    def test_every_point_decided(self, poisson):
        splitting = pmis_coarsening(classical_strength(poisson))
        assert set(np.unique(splitting.splitting)) <= {CPOINT, FPOINT}

    def test_coarse_grid_nonempty_and_smaller(self, poisson):
        splitting = pmis_coarsening(classical_strength(poisson))
        assert 0 < splitting.n_coarse < poisson.shape[0]

    def test_independent_set_property(self, poisson):
        """No two C-points may be strongly connected (PMIS independence)."""
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        sym = symmetrized_strength(strength).tocoo()
        coarse = splitting.splitting == CPOINT
        for i, j in zip(sym.row, sym.col):
            assert not (coarse[i] and coarse[j]), f"C-points {i} and {j} are neighbours"

    def test_every_fpoint_near_a_cpoint_on_poisson(self, poisson):
        """On a Poisson problem every F-point has a strongly-connected C-point."""
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        sym = symmetrized_strength(strength)
        coarse = splitting.splitting == CPOINT
        coarse_indicator = coarse.astype(float)
        coverage = sym @ coarse_indicator
        fine = splitting.splitting == FPOINT
        assert np.all(coverage[fine] > 0)

    def test_deterministic_for_seed(self, poisson):
        strength = classical_strength(poisson)
        a = pmis_coarsening(strength, seed=7)
        b = pmis_coarsening(strength, seed=7)
        np.testing.assert_array_equal(a.splitting, b.splitting)

    def test_coarse_index_is_dense_numbering(self, poisson):
        splitting = pmis_coarsening(classical_strength(poisson))
        coarse_indices = splitting.coarse_index[splitting.coarse_rows]
        np.testing.assert_array_equal(coarse_indices,
                                      np.arange(splitting.n_coarse))

    def test_isolated_points_become_fpoints(self):
        matrix = sp.identity(5, format="csr")
        splitting = pmis_coarsening(classical_strength(matrix))
        assert np.all(splitting.splitting == FPOINT)

    def test_empty_matrix(self):
        splitting = pmis_coarsening(sp.csr_matrix((0, 0)))
        assert splitting.n_coarse == 0


class TestDirectInterpolation:
    def test_cpoints_injected(self, poisson):
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        P = direct_interpolation(poisson, strength, splitting)
        assert P.shape == (poisson.shape[0], splitting.n_coarse)
        for fine_row in splitting.coarse_rows[:10]:
            coarse_col = splitting.coarse_index[fine_row]
            assert P[fine_row, coarse_col] == 1.0
            assert P[fine_row].nnz == 1

    def test_rows_approximately_sum_to_one_on_poisson(self, poisson):
        """Direct interpolation reproduces constants where C-neighbours exist."""
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        P = direct_interpolation(poisson, strength, splitting)
        row_sums = np.asarray(P.sum(axis=1)).ravel()
        populated = np.asarray((P != 0).sum(axis=1)).ravel() > 0
        interior_mask = np.zeros(poisson.shape[0], dtype=bool)
        grid = 12
        for iy in range(1, grid - 1):
            for ix in range(1, grid - 1):
                interior_mask[iy * grid + ix] = True
        check = populated & interior_mask
        assert np.all(row_sums[check] > 0.3)
        assert np.all(row_sums[check] < 1.5)

    def test_weights_nonnegative_for_m_matrix(self, anisotropic):
        strength = classical_strength(anisotropic)
        splitting = pmis_coarsening(strength)
        P = direct_interpolation(anisotropic, strength, splitting)
        assert P.data.min() >= 0.0

    def test_empty_coarse_grid_rejected(self, poisson):
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        empty = type(splitting)(splitting=np.full(poisson.shape[0], FPOINT),
                                coarse_index=np.full(poisson.shape[0], -1))
        with pytest.raises(SolverError):
            direct_interpolation(poisson, strength, empty)

    def test_zero_diagonal_rejected(self, poisson):
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        hollow = poisson.tolil()
        hollow[7, 7] = 0.0
        with pytest.raises(SolverError):
            direct_interpolation(hollow.tocsr(), strength, splitting)

    def test_non_square_matrix_rejected(self, poisson):
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        with pytest.raises(ValidationError):
            direct_interpolation(poisson[:-1], strength, splitting)

    def test_splitting_of_another_size_rejected(self, poisson):
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(classical_strength(poisson_2d((5, 5))))
        with pytest.raises(ValidationError):
            direct_interpolation(poisson, strength, splitting)


class TestGalerkin:
    def test_coarse_operator_symmetric_for_symmetric_fine(self, poisson):
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        P = direct_interpolation(poisson, strength, splitting)
        coarse = galerkin_product(poisson, P)
        assert coarse.shape == (splitting.n_coarse, splitting.n_coarse)
        assert abs(coarse - coarse.T).max() < 1e-12

    def test_coarse_operator_positive_definite(self, poisson):
        strength = classical_strength(poisson)
        splitting = pmis_coarsening(strength)
        P = direct_interpolation(poisson, strength, splitting)
        coarse = galerkin_product(poisson, P).toarray()
        assert np.linalg.eigvalsh(coarse).min() > -1e-10

    def test_truncation_preserves_row_sums(self, anisotropic):
        strength = classical_strength(anisotropic)
        splitting = pmis_coarsening(strength)
        P = direct_interpolation(anisotropic, strength, splitting)
        exact = galerkin_product(anisotropic, P, truncation=0.0)
        truncated = galerkin_product(anisotropic, P, truncation=0.1)
        np.testing.assert_allclose(
            np.asarray(exact.sum(axis=1)).ravel(),
            np.asarray(truncated.sum(axis=1)).ravel(), atol=1e-10)
        assert truncated.nnz <= exact.nnz

    def test_shape_mismatch_rejected(self, poisson):
        with pytest.raises(ValidationError):
            galerkin_product(poisson, sp.eye(3, format="csr"))


class TestRelaxation:
    def test_jacobi_reduces_residual(self, poisson, rng):
        b = rng.random(poisson.shape[0])
        x0 = np.zeros_like(b)
        x1 = jacobi(poisson, b, x0, sweeps=5)
        assert np.linalg.norm(b - poisson @ x1) < np.linalg.norm(b - poisson @ x0)

    def test_exact_solution_is_fixed_point(self, poisson, rng):
        x_exact = rng.random(poisson.shape[0])
        b = poisson @ x_exact
        np.testing.assert_allclose(
            weighted_jacobi_iteration(poisson, b, x_exact), x_exact, atol=1e-12)

    def test_out_of_place(self, poisson, rng):
        b = rng.random(poisson.shape[0])
        x0 = np.zeros_like(b)
        jacobi(poisson, b, x0, sweeps=2)
        assert np.all(x0 == 0.0)

    def test_zero_sweeps_returns_copy(self, poisson, rng):
        b = rng.random(poisson.shape[0])
        x0 = rng.random(poisson.shape[0])
        x = jacobi(poisson, b, x0, sweeps=0)
        assert x is not x0 and x.tobytes() == x0.tobytes()

    def test_sweeps_are_repeated_iterations(self, poisson, rng):
        b = rng.random(poisson.shape[0])
        x0 = np.zeros_like(b)
        expected = weighted_jacobi_iteration(
            poisson, b, weighted_jacobi_iteration(poisson, b, x0, omega=0.5),
            omega=0.5)
        assert jacobi(poisson, b, x0, sweeps=2, omega=0.5).tobytes() == \
            expected.tobytes()

    def test_dimension_mismatch(self, poisson):
        with pytest.raises(ValidationError):
            weighted_jacobi_iteration(poisson, np.zeros(3), np.zeros(poisson.shape[0]))

    def test_zero_diagonal_rejected(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValidationError):
            weighted_jacobi_iteration(matrix, np.zeros(2), np.zeros(2))

    def test_negative_sweeps_rejected(self, poisson):
        with pytest.raises(ValidationError):
            jacobi(poisson, np.zeros(poisson.shape[0]), np.zeros(poisson.shape[0]),
                   sweeps=-1)
