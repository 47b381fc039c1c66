"""An oracle that shares no code with the solver: manufactured solutions.

Byte-identity against the in-repo references shows a refactor preserved
behaviour, not that the behaviour is right.  Here the answer is known
independently: ``u(x, y) = sin(2πx) sin(πy)`` sampled on the interior of the
unit square (homogeneous Dirichlet, as the stencils assemble), ``b = A u``,
and ``scipy.sparse.linalg.spsolve`` as the direct solve.  On 2-D Poisson and
the paper's rotated-anisotropic operator, at 16 and 64 ranks (64 and 16 rows
per rank), the world-stepped solver under every variant must reach the
direct solution and *be* the sequential solver's solve — same iterate, same
residual norms, same iteration count — and its stacked product must equal the
assembled ``A @ x`` to the bit.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.amg.hierarchy import build_hierarchy
from repro.amg.solver import BoomerAMGSolver
from repro.amg.vcycle import WorldAMGSolver
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import WorldSpMV
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping

GRID = 32
STENCILS = {"poisson": poisson_2d,
            "rotated_anisotropic": rotated_anisotropic_diffusion}
#: Residual tolerance of the iterative solves; the solution must then sit
#: within ``SOLUTION_RTOL`` of the direct one (both operators' condition
#: numbers at this size leave two digits to spare).
SOLVE_TOL = 1e-10
SOLUTION_RTOL = 1e-8


def manufactured_solution() -> np.ndarray:
    points = (np.arange(GRID) + 1.0) / (GRID + 1.0)
    return np.outer(np.sin(2.0 * np.pi * points), np.sin(np.pi * points)).ravel()


@functools.lru_cache(maxsize=None)
def problem(stencil: str, n_ranks: int):
    """Operator, hierarchy, right-hand side, direct and sequential solutions."""
    matrix = ParCSRMatrix(STENCILS[stencil]((GRID, GRID)),
                          RowPartition.even(GRID * GRID, n_ranks))
    hierarchy = build_hierarchy(matrix, seed=1)
    exact = manufactured_solution()
    b = matrix.matrix @ exact
    direct = spla.spsolve(matrix.matrix.tocsc(), b)
    # The direct solve itself recovers the manufactured solution.
    assert np.linalg.norm(direct - exact) <= 1e-12 * np.linalg.norm(exact)
    sequential = BoomerAMGSolver(matrix, hierarchy=hierarchy).solve(
        b, tol=SOLVE_TOL, max_iterations=500)
    assert sequential.converged
    return matrix, hierarchy, b, direct, sequential


@pytest.mark.parametrize("variant", ["standard", "partial", "full"])
@pytest.mark.parametrize("n_ranks", [16, 64])
@pytest.mark.parametrize("stencil", sorted(STENCILS))
def test_world_solver_reaches_the_direct_solution(stencil, n_ranks, variant):
    matrix, hierarchy, b, direct, sequential = problem(stencil, n_ranks)
    mapping = paper_mapping(n_ranks, ranks_per_node=16)
    with WorldAMGSolver(matrix, mapping, hierarchy=hierarchy,
                        variant=variant) as solver:
        result = solver.solve(b, tol=SOLVE_TOL, max_iterations=500)
    assert result.converged
    assert result.iterations == sequential.iterations
    assert result.residual_norms == sequential.residual_norms
    assert np.array_equal(result.solution, sequential.solution)
    error = np.linalg.norm(result.solution - direct)
    assert error <= SOLUTION_RTOL * np.linalg.norm(direct)
    # An independent residual through the assembled operator: the very sum
    # the solver's convergence check computed.
    assert np.linalg.norm(b - matrix.matrix @ result.solution) \
        == result.residual_norms[-1]


@pytest.mark.parametrize("variant", ["standard", "partial", "full"])
@pytest.mark.parametrize("n_ranks", [16, 64])
@pytest.mark.parametrize("stencil", sorted(STENCILS))
def test_stacked_product_agrees_with_the_assembled_one(stencil, n_ranks,
                                                      variant, rng):
    matrix, hierarchy, *_ = problem(stencil, n_ranks)
    mapping = paper_mapping(n_ranks, ranks_per_node=16)
    operators = [matrix, hierarchy.prolongation_matrix(0),
                 hierarchy.restriction_matrix(0)]
    for operator in operators:
        x = rng.standard_normal(operator.n_cols)
        with WorldSpMV(operator, mapping, variant=variant) as spmv:
            assert spmv.multiply(x).tobytes() == (operator.matrix @ x).tobytes()
