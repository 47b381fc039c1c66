"""The BoomerAMG-style V-cycle solver (sequential numerical reference).

The solver validates the substrate: the hierarchies whose communication the
experiments analyse really do solve the rotated anisotropic diffusion systems
they are built from.  Relaxation and grid transfers are computed on the global
operators; the *distributed* execution of the same V-cycle — every halo
exchange through the collectives, per-rank on the envelope-routed runtime or
world-stepped through the batched engine — lives in :mod:`repro.amg.vcycle`
(:class:`~repro.amg.vcycle.DistributedVCycle`,
:class:`~repro.amg.vcycle.WorldAMGSolver`), pinned equivalent to this solver
by the solve-phase test suite.  The V-cycle here (``BoomerAMGSolver._cycle``
over :func:`~repro.amg.relax.weighted_jacobi_iteration`) stays its own code
because it is that suite's oracle; the stationary iteration around a cycle,
:func:`stationary_solve`, is the one loop both solvers run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.collectives.autotune import DecisionTrace

from repro.amg.hierarchy import AMGHierarchy, build_hierarchy
from repro.amg.relax import weighted_jacobi_iteration
from repro.sparse.parcsr import ParCSRMatrix
from repro.utils.errors import SolverError, ValidationError


@dataclass
class SolveResult:
    """Outcome of an AMG solve."""

    solution: np.ndarray
    residual_norms: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    #: Online-autotuning decision record (``variant="auto"`` solves through
    #: :class:`~repro.amg.vcycle.WorldAMGSolver` attach theirs; fixed-variant
    #: and sequential solves leave it ``None``).
    decision_trace: "Optional[DecisionTrace]" = None

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


def stationary_solve(cycle: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     b: np.ndarray, *, n_rows: int,
                     x0: Optional[np.ndarray] = None, tol: float = 1e-8,
                     max_iterations: int = 100) -> SolveResult:
    """Iterate ``x ← cycle(b, x)`` until ``‖residual(b, x)‖ ≤ tol · ‖r₀‖``.

    The one solve loop: the sequential solver passes its assembled-matrix
    V-cycle and residual, the world-stepped solver its engine-executed ones.
    A zero initial residual returns ``x0`` converged after zero iterations.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n_rows,):
        raise ValidationError(f"b must have shape ({n_rows},)")
    x = np.zeros(n_rows, dtype=np.float64) if x0 is None \
        else np.array(x0, dtype=np.float64)
    if x.shape != (n_rows,):
        raise ValidationError(f"x0 must have shape ({n_rows},)")
    residual_norms = [float(np.linalg.norm(residual(b, x)))]
    if residual_norms[0] == 0.0:
        return SolveResult(solution=x, residual_norms=residual_norms,
                           iterations=0, converged=True)
    target = tol * residual_norms[0]
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        x = cycle(b, x)
        residual_norms.append(float(np.linalg.norm(residual(b, x))))
        if residual_norms[-1] <= target:
            converged = True
            break
    return SolveResult(solution=x, residual_norms=residual_norms,
                       iterations=iterations, converged=converged)


class BoomerAMGSolver:
    """Algebraic multigrid preconditioner/solver with V-cycles."""

    def __init__(self, matrix: ParCSRMatrix, *,
                 strength_theta: float = 0.25,
                 max_levels: int = 25,
                 max_coarse_size: int = 16,
                 pre_sweeps: int = 1,
                 post_sweeps: int = 1,
                 omega: float = 2.0 / 3.0,
                 truncation: float = 0.0,
                 seed: int = 42,
                 hierarchy: Optional[AMGHierarchy] = None):
        self.matrix = matrix
        self.pre_sweeps = int(pre_sweeps)
        self.post_sweeps = int(post_sweeps)
        self.omega = float(omega)
        if self.pre_sweeps < 0 or self.post_sweeps < 0:
            raise ValidationError("sweep counts must be non-negative")
        self.hierarchy = hierarchy or build_hierarchy(
            matrix, strength_theta=strength_theta, max_levels=max_levels,
            max_coarse_size=max_coarse_size, truncation=truncation, seed=seed)
        if self.hierarchy.n_levels == 0:
            raise SolverError("hierarchy construction produced no levels")
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
        return stationary_solve(self.vcycle, lambda b, x: b - A @ x, b,
                                n_rows=self.matrix.n_rows, x0=x0, tol=tol,
                                max_iterations=max_iterations)
