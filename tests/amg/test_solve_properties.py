"""Property tests for the solve phase.

The V-cycle iteration must be a contraction on the rotated anisotropic
diffusion systems the experiments build (convergence factor < 1, monotone
residual history), for the seed solver and the world-stepped solver alike;
and :meth:`SolveResult.convergence_factor` must behave at its edges — zero
iterations, an exact initial guess, and the ``residual_norms[0] == 0.0``
early-return path.  Both solvers run the one ``stationary_solve`` loop; the
early return and the ``max_iterations`` exhaustion are pinned through each.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.amg.hierarchy import build_hierarchy
from repro.amg.solver import BoomerAMGSolver, SolveResult
from repro.amg.vcycle import WorldAMGSolver
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def anisotropic_matrix():
    return ParCSRMatrix(rotated_anisotropic_diffusion((28, 28), epsilon=0.001,
                                                      theta=math.pi / 4.0),
                        RowPartition.even(784, 8))


@pytest.fixture(scope="module")
def anisotropic_hierarchy(anisotropic_matrix):
    return build_hierarchy(anisotropic_matrix, seed=3)


@pytest.fixture(scope="module")
def mapping():
    return paper_mapping(8, ranks_per_node=4)


@pytest.mark.parametrize("rhs_seed", [0, 1, 2])
def test_world_vcycle_is_a_contraction(anisotropic_matrix, anisotropic_hierarchy,
                                       mapping, rhs_seed):
    """Residuals shrink monotonically and the convergence factor is < 1."""
    rng = np.random.default_rng(rhs_seed)
    b = rng.standard_normal(anisotropic_matrix.n_rows)
    solver = WorldAMGSolver(anisotropic_matrix, mapping,
                            hierarchy=anisotropic_hierarchy)
    result = solver.solve(b, tol=1e-10, max_iterations=25)
    assert result.iterations >= 2
    assert 0.0 < result.convergence_factor() < 1.0
    norms = result.residual_norms
    assert all(later < earlier for earlier, later in zip(norms, norms[1:]))


def test_seed_and_world_convergence_factors_agree(anisotropic_matrix,
                                                  anisotropic_hierarchy,
                                                  mapping):
    b = np.ones(anisotropic_matrix.n_rows)
    seed = BoomerAMGSolver(anisotropic_matrix,
                           hierarchy=anisotropic_hierarchy).solve(
        b, tol=1e-8, max_iterations=50)
    world = WorldAMGSolver(anisotropic_matrix, mapping,
                           hierarchy=anisotropic_hierarchy).solve(
        b, tol=1e-8, max_iterations=50)
    assert world.iterations == seed.iterations
    assert abs(world.convergence_factor() - seed.convergence_factor()) < 1e-8


class TestSolveResultEdgeCases:
    def test_zero_iterations_has_zero_convergence_factor(self):
        result = SolveResult(solution=np.zeros(3), residual_norms=[1.0],
                             iterations=0, converged=False)
        assert result.convergence_factor() == 0.0
        assert result.final_residual == 1.0

    def test_no_recorded_norms_reports_infinite_residual(self):
        result = SolveResult(solution=np.zeros(3))
        assert result.final_residual == float("inf")
        assert result.convergence_factor() == 0.0

    def test_zero_initial_residual_guard(self):
        """``residual_norms[0] == 0.0`` must not divide by zero."""
        result = SolveResult(solution=np.zeros(3), residual_norms=[0.0, 0.0],
                             iterations=1, converged=True)
        assert result.convergence_factor() == 0.0

    @pytest.mark.parametrize("make_solver", ["seed", "world"])
    def test_zero_rhs_early_return(self, anisotropic_matrix,
                                   anisotropic_hierarchy, mapping, make_solver):
        """A zero RHS takes the ``residual_norms[0] == 0.0`` early return."""
        if make_solver == "seed":
            solver = BoomerAMGSolver(anisotropic_matrix,
                                     hierarchy=anisotropic_hierarchy)
        else:
            solver = WorldAMGSolver(anisotropic_matrix, mapping,
                                    hierarchy=anisotropic_hierarchy)
        result = solver.solve(np.zeros(anisotropic_matrix.n_rows))
        assert result.converged
        assert result.iterations == 0
        assert result.residual_norms == [0.0]
        assert result.convergence_factor() == 0.0
        assert np.array_equal(result.solution,
                              np.zeros(anisotropic_matrix.n_rows))

    @pytest.mark.parametrize("make_solver", ["seed", "world"])
    def test_max_iterations_exhaustion(self, anisotropic_matrix,
                                       anisotropic_hierarchy, mapping,
                                       make_solver):
        """An unreachable tolerance stops at ``max_iterations``, unconverged."""
        if make_solver == "seed":
            solver = BoomerAMGSolver(anisotropic_matrix,
                                     hierarchy=anisotropic_hierarchy)
        else:
            solver = WorldAMGSolver(anisotropic_matrix, mapping,
                                    hierarchy=anisotropic_hierarchy)
        result = solver.solve(np.ones(anisotropic_matrix.n_rows), tol=0.0,
                              max_iterations=3)
        assert not result.converged
        assert result.iterations == 3
        assert len(result.residual_norms) == 4
        zero_budget = solver.solve(np.ones(anisotropic_matrix.n_rows),
                                   max_iterations=0)
        assert not zero_budget.converged and zero_budget.iterations == 0
        assert len(zero_budget.residual_norms) == 1

    @pytest.mark.parametrize("make_solver", ["seed", "world"])
    @pytest.mark.parametrize("options, message", [
        ({"tol": float("nan")}, "tol must be finite and >= 0, got nan"),
        ({"tol": float("inf")}, "tol must be finite and >= 0, got inf"),
        ({"tol": -1.0}, "tol must be finite and >= 0, got -1.0"),
        ({"max_iterations": -3}, "max_iterations must be >= 0, got -3"),
        ({"max_iterations": True}, "max_iterations must be an int, got bool"),
        ({"max_iterations": 2.5}, "max_iterations must be an int, got float"),
    ], ids=["tol_nan", "tol_inf", "tol_negative", "max_iterations_negative",
            "max_iterations_bool", "max_iterations_float"])
    def test_bad_stopping_rule_is_rejected_before_any_cycle(
            self, anisotropic_matrix, anisotropic_hierarchy, mapping,
            make_solver, options, message):
        """A ``tol`` that no residual can meet or a ``max_iterations`` that
        would be truncated or run nothing raises instead of solving."""
        if make_solver == "seed":
            solver = BoomerAMGSolver(anisotropic_matrix,
                                     hierarchy=anisotropic_hierarchy)
        else:
            solver = WorldAMGSolver(anisotropic_matrix, mapping,
                                    hierarchy=anisotropic_hierarchy)
        with pytest.raises(ValidationError) as info:
            solver.solve(np.ones(anisotropic_matrix.n_rows), **options)
        assert str(info.value) == message

    def test_exact_initial_guess_early_return_seed(self, anisotropic_matrix,
                                                   anisotropic_hierarchy, rng):
        """x0 with an exactly-zero residual converges in zero iterations."""
        solver = BoomerAMGSolver(anisotropic_matrix,
                                 hierarchy=anisotropic_hierarchy)
        x_exact = rng.random(anisotropic_matrix.n_rows)
        # The solver computes its residual as b - A @ x, so building b with
        # the same expression makes the initial residual exactly zero.
        b = anisotropic_matrix.matrix @ x_exact
        result = solver.solve(b, x0=x_exact)
        assert result.converged and result.iterations == 0
        assert result.residual_norms == [0.0]
        assert np.array_equal(result.solution, x_exact)

    def test_exact_initial_guess_early_return_world(self, anisotropic_matrix,
                                                    anisotropic_hierarchy,
                                                    mapping, rng):
        solver = WorldAMGSolver(anisotropic_matrix, mapping,
                                hierarchy=anisotropic_hierarchy)
        x_exact = rng.random(anisotropic_matrix.n_rows)
        # The world solver's residual runs through the distributed SpMV, so
        # the exactly-representable RHS is the distributed product.
        b = solver.vcycle_executor.fine_spmv.multiply(x_exact)
        result = solver.solve(b, x0=x_exact)
        assert result.converged and result.iterations == 0
        assert result.residual_norms == [0.0]
        assert np.array_equal(result.solution, x_exact)
