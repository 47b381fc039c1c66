"""Unit tests for hierarchy construction, redistribution, the V-cycle solver,
and per-level communication analysis."""

import numpy as np
import pytest

from repro.amg.comm_analysis import hierarchy_comm_profiles, level_patterns
from repro.amg.hierarchy import build_hierarchy, redistribute_hierarchy
from repro.amg.solver import BoomerAMGSolver
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle
from repro.collectives.plan import Variant
from repro.perfmodel.params import lassen_parameters
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def poisson_matrix():
    return ParCSRMatrix(poisson_2d((24, 24)), RowPartition.even(576, 16))


@pytest.fixture(scope="module")
def poisson_hierarchy(poisson_matrix):
    return build_hierarchy(poisson_matrix, seed=1)


@pytest.fixture(scope="module")
def anisotropic_matrix():
    return ParCSRMatrix(rotated_anisotropic_diffusion((32, 32)),
                        RowPartition.even(1024, 16))


class TestHierarchyConstruction:
    def test_levels_shrink_monotonically(self, poisson_hierarchy):
        sizes = [level.n_rows for level in poisson_hierarchy.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert poisson_hierarchy.n_levels >= 3

    def test_coarsest_level_small(self, poisson_hierarchy):
        assert poisson_hierarchy.levels[-1].n_rows <= 16 or \
            poisson_hierarchy.n_levels == 25

    def test_prolongation_shapes_chain(self, poisson_hierarchy):
        for level, next_level in zip(poisson_hierarchy.levels,
                                     poisson_hierarchy.levels[1:]):
            assert level.prolongation is not None
            assert level.prolongation.shape == (level.n_rows, next_level.n_rows)
        assert poisson_hierarchy.levels[-1].prolongation is None

    def test_partitions_consistent_per_level(self, poisson_hierarchy):
        for level in poisson_hierarchy.levels:
            assert level.matrix.partition.n_rows == level.n_rows
            assert level.matrix.partition.n_ranks == 16

    def test_complexities(self, poisson_hierarchy):
        assert 1.0 < poisson_hierarchy.operator_complexity() < 3.5
        levels = poisson_hierarchy.levels
        grid_complexity = sum(level.n_rows for level in levels) \
            / levels[0].n_rows
        assert 1.0 < grid_complexity < 2.5

    def test_describe(self, poisson_hierarchy):
        text = poisson_hierarchy.describe()
        assert "levels" in text and "level  0" in text

    def test_max_levels_respected(self, poisson_matrix):
        hierarchy = build_hierarchy(poisson_matrix, max_levels=2)
        assert hierarchy.n_levels <= 2

    def test_deterministic_with_seed(self, poisson_matrix):
        a = build_hierarchy(poisson_matrix, seed=3)
        b = build_hierarchy(poisson_matrix, seed=3)
        assert [l.n_rows for l in a.levels] == [l.n_rows for l in b.levels]

    def test_coarse_ownership_follows_fine_rows(self, poisson_hierarchy):
        """A coarse row is owned by the rank owning the fine row it came from."""
        level = poisson_hierarchy.levels[0]
        splitting = level.splitting
        fine_partition = level.matrix.partition
        coarse_partition = poisson_hierarchy.levels[1].matrix.partition
        coarse_counter = 0
        for fine_row in splitting.coarse_rows:
            owner_fine = fine_partition.owner_of(int(fine_row))
            owner_coarse = coarse_partition.owner_of(coarse_counter)
            assert owner_fine == owner_coarse
            coarse_counter += 1


class TestNonFiniteOperatorRejected:
    """A NaN makes every set-up comparison false: without the check a 7-level
    hierarchy comes out and the solve reports NaN residual norms, no error."""

    ROW = 517

    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def poisoned(self, request):
        csr = rotated_anisotropic_diffusion((32, 32))
        csr.data[csr.indptr[self.ROW] + 2] = request.param
        return ParCSRMatrix(csr, RowPartition.even(1024, 16))

    def test_build_hierarchy(self, poisoned):
        with pytest.raises(ValidationError, match=f"row {self.ROW}"):
            build_hierarchy(poisoned)

    def test_sequential_solver(self, poisoned):
        with pytest.raises(ValidationError, match="non-finite"):
            BoomerAMGSolver(poisoned)

    def test_world_solver(self, poisoned):
        with pytest.raises(ValidationError, match="non-finite"):
            WorldAMGSolver(poisoned, paper_mapping(16, ranks_per_node=4))


class TestSolveInputsChecked:
    """Both solvers reject a bad right-hand side, start vector, smoother
    weight or sweep count up front, instead of running every cycle to a
    NaN or unconverged result."""

    @pytest.fixture(params=["sequential", "world"])
    def solve(self, request, poisson_matrix, poisson_hierarchy):
        if request.param == "sequential":
            yield BoomerAMGSolver(poisson_matrix,
                                  hierarchy=poisson_hierarchy).solve
        else:
            with WorldAMGSolver(poisson_matrix,
                                paper_mapping(16, ranks_per_node=4),
                                hierarchy=poisson_hierarchy) as solver:
                yield solver.solve

    def test_non_finite_rhs(self, solve, poisson_matrix):
        b = np.ones(poisson_matrix.n_rows)
        b[7] = np.nan
        with pytest.raises(ValidationError, match="b has a non-finite"):
            solve(b, max_iterations=50)

    def test_non_finite_start_vector(self, solve, poisson_matrix):
        x0 = np.zeros(poisson_matrix.n_rows)
        x0[3] = np.inf
        with pytest.raises(ValidationError, match="x0 has a non-finite"):
            solve(np.ones(poisson_matrix.n_rows), x0=x0, max_iterations=50)

    @pytest.mark.parametrize("knobs, match", [
        ({"omega": np.nan}, "omega"),
        ({"omega": 0.0}, "omega"),
        ({"omega": -0.5}, "omega"),
        ({"omega": np.inf}, "omega"),
        ({"pre_sweeps": 1.5}, "pre_sweeps"),
        ({"post_sweeps": -1}, "post_sweeps"),
        ({"pre_sweeps": True}, "pre_sweeps"),
    ])
    @pytest.mark.parametrize("build", ["sequential", "world"])
    def test_cycle_parameters(self, build, knobs, match, poisson_matrix,
                              poisson_hierarchy):
        with pytest.raises(ValidationError, match=match):
            if build == "sequential":
                BoomerAMGSolver(poisson_matrix, hierarchy=poisson_hierarchy,
                                **knobs)
            else:
                WorldVCycle(poisson_hierarchy,
                            paper_mapping(16, ranks_per_node=4), **knobs)

    def test_build_hierarchy_needs_a_parcsr_matrix(self):
        with pytest.raises(ValidationError, match="ParCSRMatrix"):
            build_hierarchy(poisson_2d((8, 8)))


class TestRedistribution:
    def test_same_operators_different_partition(self, poisson_hierarchy):
        redistributed = redistribute_hierarchy(poisson_hierarchy, 4)
        assert redistributed.n_levels == poisson_hierarchy.n_levels
        for original, scaled in zip(poisson_hierarchy.levels, redistributed.levels):
            assert scaled.n_rows == original.n_rows
            assert scaled.matrix.n_ranks == 4
            # Operators are reused, not rebuilt: identical sparsity and values.
            assert scaled.matrix.nnz == original.matrix.nnz
            assert (scaled.matrix.matrix != original.matrix.matrix).nnz == 0

    def test_invalid_rank_count(self, poisson_hierarchy):
        with pytest.raises(ValidationError):
            redistribute_hierarchy(poisson_hierarchy, 0)


class TestSolver:
    def test_poisson_vcycle_converges(self, poisson_matrix, poisson_hierarchy,
                                      rng):
        solver = BoomerAMGSolver(poisson_matrix, hierarchy=poisson_hierarchy)
        x_exact = rng.random(poisson_matrix.n_rows)
        b = poisson_matrix.matrix @ x_exact
        result = solver.solve(b, tol=1e-8, max_iterations=100)
        assert result.converged
        # PMIS + direct interpolation + weighted Jacobi is not the strongest
        # AMG configuration; a convergence factor well below 1 is what matters.
        assert result.convergence_factor() < 0.8
        np.testing.assert_allclose(result.solution, x_exact, rtol=1e-4, atol=1e-5)

    def test_anisotropic_solve_reduces_residual(self, anisotropic_matrix):
        solver = BoomerAMGSolver(
            anisotropic_matrix,
            hierarchy=build_hierarchy(anisotropic_matrix, seed=1))
        b = np.ones(anisotropic_matrix.n_rows)
        result = solver.solve(b, tol=1e-10, max_iterations=30)
        assert result.residual_norms[-1] < 0.05 * result.residual_norms[0]

    def test_residual_history_monotone_overall(self, poisson_matrix,
                                               poisson_hierarchy):
        solver = BoomerAMGSolver(poisson_matrix, hierarchy=poisson_hierarchy)
        b = np.ones(poisson_matrix.n_rows)
        result = solver.solve(b, tol=1e-10, max_iterations=20)
        assert result.residual_norms[-1] < result.residual_norms[0]

    def test_zero_rhs_short_circuits(self, poisson_matrix,
                                     poisson_hierarchy):
        solver = BoomerAMGSolver(poisson_matrix, hierarchy=poisson_hierarchy)
        result = solver.solve(np.zeros(poisson_matrix.n_rows))
        assert result.converged and result.iterations == 0

    def test_vcycle_shape_validation(self, poisson_matrix,
                                     poisson_hierarchy):
        solver = BoomerAMGSolver(poisson_matrix, hierarchy=poisson_hierarchy)
        with pytest.raises(ValidationError):
            solver.vcycle(np.zeros(3), np.zeros(3))

    def test_solver_reuses_provided_hierarchy(self, poisson_matrix, poisson_hierarchy):
        solver = BoomerAMGSolver(poisson_matrix, hierarchy=poisson_hierarchy)
        assert solver.hierarchy is poisson_hierarchy


class TestCommAnalysis:
    def test_level_patterns_and_partitions(self, poisson_hierarchy):
        patterns = level_patterns(poisson_hierarchy)
        assert len(patterns) == poisson_hierarchy.n_levels
        for pattern, level in zip(patterns, poisson_hierarchy.levels):
            assert pattern.n_ranks == level.matrix.partition.n_ranks

    def test_profiles_contain_all_variants(self, poisson_hierarchy):
        mapping = paper_mapping(16, ranks_per_node=4)
        model = lassen_parameters(active_per_node=4)
        profiles = hierarchy_comm_profiles(poisson_hierarchy, mapping, model=model)
        assert len(profiles) == poisson_hierarchy.n_levels
        for profile in profiles:
            assert set(profile.plans) == set(Variant)
            assert set(profile.times) == set(Variant)
            for plan in profile.plans.values():
                plan.validate()

    def test_profiles_without_model_have_no_times(self, poisson_hierarchy):
        mapping = paper_mapping(16, ranks_per_node=4)
        profiles = hierarchy_comm_profiles(poisson_hierarchy, mapping)
        assert profiles[0].times == {}

    def test_mapping_too_small_rejected(self, poisson_hierarchy):
        mapping = paper_mapping(4, ranks_per_node=4)
        with pytest.raises(ValidationError):
            hierarchy_comm_profiles(poisson_hierarchy, mapping)
