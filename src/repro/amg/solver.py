"""The BoomerAMG-style V-cycle solver (sequential numerical reference).

The solver validates the substrate: the hierarchies whose communication the
experiments analyse really do solve the rotated anisotropic diffusion systems
they are built from.  Relaxation and grid transfers are computed on the global
operators; the *distributed* execution of the same V-cycle — every halo
exchange through the collectives, world-stepped through the batched engine —
lives in :mod:`repro.amg.vcycle` (:class:`~repro.amg.vcycle.WorldVCycle`,
:class:`~repro.amg.vcycle.WorldAMGSolver`), pinned bit-equal to this solver
by the solve-phase test suite.  The V-cycle here (``BoomerAMGSolver._cycle``
over :func:`~repro.amg.relax.weighted_jacobi_iteration`) stays its own code
because it is that suite's oracle; the stationary iteration around a cycle,
:func:`stationary_solve`, is the one loop both solvers run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.amg.hierarchy import AMGHierarchy, build_hierarchy
from repro.amg.relax import weighted_jacobi_iteration
from repro.sparse.parcsr import ParCSRMatrix
from repro.utils.errors import SolverError, ValidationError
from repro.utils.validation import check_non_negative_int


@dataclass
class SolveResult:
    """Outcome of an AMG solve."""

    solution: np.ndarray
    residual_norms: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    @property
    def final_residual(self) -> float:
        """Last recorded residual norm (inf when no iteration ran)."""
        return self.residual_norms[-1] if self.residual_norms else float("inf")

    def convergence_factor(self) -> float:
        """Geometric-mean residual reduction per iteration."""
        if len(self.residual_norms) < 2 or self.residual_norms[0] == 0.0:
            return 0.0
        ratio = self.residual_norms[-1] / self.residual_norms[0]
        return float(ratio ** (1.0 / max(self.iterations, 1)))


def check_cycle_parameters(pre_sweeps: int, post_sweeps: int,
                           omega: float) -> tuple[int, int, float]:
    """The V-cycle's smoother knobs, checked once for both solvers.

    Sweep counts are non-negative ints; the Jacobi weight ``omega`` is finite
    and positive (``0`` or NaN would leave every cycle without progress).
    """
    pre_sweeps = check_non_negative_int("pre_sweeps", pre_sweeps)
    post_sweeps = check_non_negative_int("post_sweeps", post_sweeps)
    omega = float(omega)
    if not (np.isfinite(omega) and omega > 0.0):
        raise ValidationError(f"omega must be finite and > 0, got {omega}")
    return pre_sweeps, post_sweeps, omega


def solver_hierarchy(matrix: ParCSRMatrix,
                     hierarchy: Optional[AMGHierarchy]) -> AMGHierarchy:
    """A solver's hierarchy: ``build_hierarchy(matrix)`` with its defaults
    for ``None`` (to tune it, the caller builds it), else ``hierarchy``,
    whose fine operator must have ``matrix``'s shape and partition offsets.
    """
    if not isinstance(matrix, ParCSRMatrix):
        raise ValidationError(
            f"a solver needs a ParCSRMatrix, got {type(matrix).__name__}")
    if hierarchy is None:
        return build_hierarchy(matrix)
    if hierarchy.n_levels == 0:
        raise SolverError("hierarchy has no levels")
    fine = hierarchy.levels[0].matrix
    if fine.matrix.shape != matrix.matrix.shape or not np.array_equal(
            fine.partition.offsets, matrix.partition.offsets):
        raise ValidationError(
            f"the hierarchy's fine operator {fine} does not match the matrix "
            f"{matrix} in shape and partition offsets")
    return hierarchy


def stationary_solve(
        cycle: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
        b: np.ndarray, *, n_rows: int, x0: Optional[np.ndarray] = None,
        tol: float = 1e-8, max_iterations: int = 100) -> SolveResult:
    """Iterate ``x ← cycle(b, x, r)`` until ``‖r‖ ≤ tol · ‖r₀‖``, where
    ``r = residual(b, x)`` is the convergence check of the iterate.

    The one solve loop: the sequential solver passes its assembled-matrix
    V-cycle and residual, the world-stepped solver its engine-executed ones.
    ``cycle`` gets the residual just checked, of the very ``x`` it starts
    from, so it may begin there instead of computing ``b - A x`` again.
    A zero initial residual returns ``x0`` converged after zero iterations;
    a non-finite entry in ``b`` or ``x0``, a ``tol`` that is negative or not
    finite, and a ``max_iterations`` that is no non-negative int are
    rejected up front.
    """
    tol = float(tol)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol}")
    max_iterations = check_non_negative_int("max_iterations", max_iterations)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n_rows,):
        raise ValidationError(f"b must have shape ({n_rows},)")
    x = np.zeros(n_rows, dtype=np.float64) if x0 is None \
        else np.array(x0, dtype=np.float64)
    if x.shape != (n_rows,):
        raise ValidationError(f"x0 must have shape ({n_rows},)")
    for name, vector in (("b", b), ("x0", x)):
        if not np.isfinite(vector).all():
            raise ValidationError(f"{name} has a non-finite entry")
    checked = residual(b, x)
    residual_norms = [float(np.linalg.norm(checked))]
    if residual_norms[0] == 0.0:
        return SolveResult(solution=x, residual_norms=residual_norms,
                           iterations=0, converged=True)
    target = tol * residual_norms[0]
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        x = cycle(b, x, checked)
        checked = residual(b, x)
        residual_norms.append(float(np.linalg.norm(checked)))
        if residual_norms[-1] <= target:
            converged = True
            break
    return SolveResult(solution=x, residual_norms=residual_norms,
                       iterations=iterations, converged=converged)


class BoomerAMGSolver:
    """Algebraic multigrid preconditioner/solver with V-cycles."""

    def __init__(self, matrix: ParCSRMatrix, *,
                 pre_sweeps: int = 1, post_sweeps: int = 1,
                 omega: float = 2.0 / 3.0,
                 hierarchy: Optional[AMGHierarchy] = None):
        self.matrix = matrix
        self.pre_sweeps, self.post_sweeps, self.omega = check_cycle_parameters(
            pre_sweeps, post_sweeps, omega)
        self.hierarchy = solver_hierarchy(matrix, hierarchy)
        coarsest = self.hierarchy.levels[-1].matrix.matrix
        self._coarse_solver = spla.factorized(sp.csc_matrix(coarsest)) \
            if coarsest.shape[0] > 0 else None

    # -- V-cycle -------------------------------------------------------------------

    def _cycle(self, level_index: int, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        level = self.hierarchy.levels[level_index]
        A = level.matrix.matrix
        if level_index == self.hierarchy.n_levels - 1:
            if self._coarse_solver is None or A.shape[0] == 0:
                return x
            return np.asarray(self._coarse_solver(b), dtype=np.float64)
        for _ in range(self.pre_sweeps):
            x = weighted_jacobi_iteration(A, b, x, omega=self.omega)
        P = level.prolongation
        if P is None:
            return x
        residual = b - A @ x
        coarse_b = P.T @ residual
        coarse_x = np.zeros(P.shape[1], dtype=np.float64)
        coarse_x = self._cycle(level_index + 1, coarse_b, coarse_x)
        x = x + P @ coarse_x
        for _ in range(self.post_sweeps):
            x = weighted_jacobi_iteration(A, b, x, omega=self.omega)
        return x

    def vcycle(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply one V-cycle to the system ``A x = b`` starting from ``x``."""
        b = np.asarray(b, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        n = self.matrix.n_rows
        if b.shape != (n,) or x.shape != (n,):
            raise ValidationError(f"b and x must have shape ({n},)")
        return self._cycle(0, b, x)

    # -- iterative solve ---------------------------------------------------------------

    def solve(self, b: np.ndarray, *, x0: Optional[np.ndarray] = None,
              tol: float = 1e-8, max_iterations: int = 100) -> SolveResult:
        """Solve ``A x = b`` with stationary V-cycle iterations.

        Convergence is declared when the 2-norm of the residual drops below
        ``tol`` times the initial residual norm.
        """
        A = self.matrix.matrix
        return stationary_solve(lambda b, x, r: self.vcycle(b, x),
                                lambda b, x: b - A @ x, b,
                                n_rows=self.matrix.n_rows, x0=x0, tol=tol,
                                max_iterations=max_iterations)
