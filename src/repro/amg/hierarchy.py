"""AMG hierarchies: levels of coarse operators with distributed views.

``build_hierarchy`` runs the setup phase — strength, PMIS coarsening, direct
interpolation, Galerkin product — until the coarse grid is small enough, and
attaches to every level the row partition induced by the fine-grid ownership
(a coarse row is owned by the rank that owned the fine row it came from, the
same rule hypre uses).  The per-level distributed matrices are what the
communication analysis and the paper's per-level figures are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.amg.coarsen import CPOINT, SplittingResult, pmis_coarsening
from repro.amg.galerkin import galerkin_product
from repro.amg.interp import direct_interpolation
from repro.amg.strength import classical_strength
from repro.sparse.parcsr import ParCSRMatrix, check_one_partition
from repro.sparse.partition import RowPartition
from repro.utils.errors import SolverError, ValidationError
from repro.utils.validation import check_positive_int


@dataclass
class AMGLevel:
    """One level of the hierarchy.

    ``matrix`` is the level's operator distributed over the (inherited)
    partition; ``prolongation`` maps this level's coarse grid (the next level)
    back to this level and is ``None`` on the coarsest level.
    """

    index: int
    matrix: ParCSRMatrix
    prolongation: Optional[sp.csr_matrix] = None
    splitting: Optional[SplittingResult] = None

    @property
    def n_rows(self) -> int:
        """Rows of this level's operator."""
        return self.matrix.n_rows

    @property
    def nnz(self) -> int:
        """Stored non-zeros of this level's operator."""
        return self.matrix.nnz


@dataclass
class AMGHierarchy:
    """The full multilevel hierarchy produced by the setup phase."""

    levels: List[AMGLevel] = field(default_factory=list)
    #: Memoized distributed transfer operators, keyed by (level, transposed).
    #: One matrix per level is shared by every V-cycle built over this
    #: hierarchy, so the per-rank block views (and the restriction's
    #: transpose) are computed once, like the square operators' block cache.
    _transfer_cache: dict = field(default_factory=dict, repr=False,
                                  compare=False)

    @property
    def n_levels(self) -> int:
        """Number of levels (fine grid included)."""
        return len(self.levels)

    def level(self, index: int) -> AMGLevel:
        """Return level ``index`` (0 = finest)."""
        return self.levels[index]

    def operator_complexity(self) -> float:
        """Sum of per-level non-zeros divided by fine-level non-zeros."""
        if not self.levels:
            return 0.0
        fine_nnz = self.levels[0].nnz
        if fine_nnz == 0:
            return 0.0
        return sum(level.nnz for level in self.levels) / fine_nnz

    def prolongation_matrix(self, index: int) -> ParCSRMatrix:
        """Level ``index``'s prolongation as a distributed operator.

        Rows live on level ``index`` (fine side), columns on level
        ``index + 1`` (coarse side); the off-diagonal columns are exactly the
        coarse vector entries a rank must receive before the
        prolong-correct step of the V-cycle.
        """
        key = (index, False)
        if key not in self._transfer_cache:
            level = self.levels[index]
            if level.prolongation is None:
                raise ValidationError(
                    f"level {index} has no prolongation (coarsest level)"
                )
            self._transfer_cache[key] = ParCSRMatrix(
                level.prolongation, level.matrix.partition,
                self.levels[index + 1].matrix.partition)
        return self._transfer_cache[key]

    def restriction_matrix(self, index: int) -> ParCSRMatrix:
        """Level ``index``'s restriction (``Pᵀ``) as a distributed operator.

        The transpose of :meth:`prolongation_matrix`: rows on the coarse
        side, columns on the fine side, so the off-diagonal columns are the
        fine residual entries a rank needs for the restrict step.
        """
        key = (index, True)
        if key not in self._transfer_cache:
            self._transfer_cache[key] = self.prolongation_matrix(index).transpose()
        return self._transfer_cache[key]

    def describe(self) -> str:
        """Multi-line summary of the hierarchy (rows / nnz per level)."""
        lines = [f"AMG hierarchy: {self.n_levels} levels, "
                 f"operator complexity {self.operator_complexity():.2f}"]
        for level in self.levels:
            lines.append(
                f"  level {level.index:2d}: {level.n_rows:>10d} rows, "
                f"{level.nnz:>12d} nnz"
            )
        return "\n".join(lines)


def _coarse_partition(fine_partition: RowPartition,
                      splitting: SplittingResult) -> RowPartition:
    """Partition of the coarse grid induced by fine-grid ownership."""
    is_coarse = splitting.splitting == CPOINT
    # Coarse points per rank = difference of the C-point prefix sum at the
    # fine partition boundaries — one pass regardless of rank count.
    prefix = np.zeros(is_coarse.size + 1, dtype=np.int64)
    np.cumsum(is_coarse, out=prefix[1:])
    return RowPartition.from_sizes(np.diff(prefix[fine_partition.offsets]))


def redistribute_hierarchy(hierarchy: AMGHierarchy, n_ranks: int) -> AMGHierarchy:
    """Re-partition an existing hierarchy over a different number of ranks.

    The coarsening itself is independent of the distribution, so strong-scaling
    studies (same matrix, varying rank count) can reuse one setup: the fine
    level is split evenly over ``n_ranks`` and every coarse partition is
    re-derived from the stored splittings, exactly as the original build does.
    """
    check_positive_int("n_ranks", n_ranks)
    if not hierarchy.levels:
        raise ValidationError("cannot redistribute an empty hierarchy")
    new_hierarchy = AMGHierarchy()
    partition = RowPartition.even(hierarchy.levels[0].n_rows, n_ranks)
    for level in hierarchy.levels:
        new_matrix = ParCSRMatrix(level.matrix.matrix, partition)
        new_hierarchy.levels.append(AMGLevel(index=level.index, matrix=new_matrix,
                                             prolongation=level.prolongation,
                                             splitting=level.splitting))
        if level.splitting is not None:
            partition = _coarse_partition(partition, level.splitting)
    return new_hierarchy


def build_hierarchy(matrix: ParCSRMatrix, *,
                    strength_theta: float = 0.25,
                    max_levels: int = 25,
                    max_coarse_size: int = 16,
                    min_coarsening_ratio: float = 0.95,
                    truncation: float = 0.0,
                    seed: int = 42) -> AMGHierarchy:
    """Run the BoomerAMG-style setup phase.

    Coarsening stops when the coarse grid has at most ``max_coarse_size`` rows,
    when ``max_levels`` is reached, or when a level fails to shrink by at least
    ``1 - min_coarsening_ratio`` (stagnation guard).
    """
    if not isinstance(matrix, ParCSRMatrix):
        raise ValidationError(
            f"build_hierarchy needs a ParCSRMatrix, got {type(matrix).__name__}")
    check_positive_int("max_levels", max_levels)
    check_positive_int("max_coarse_size", max_coarse_size)
    check_one_partition(matrix, "build_hierarchy")
    if not 0.0 < min_coarsening_ratio <= 1.0:
        raise ValidationError("min_coarsening_ratio must lie in (0, 1]")
    # NaN fails every set-up comparison silently; the solve would return NaN norms.
    bad = np.flatnonzero(~np.isfinite(matrix.matrix.data))
    if bad.size:
        row = int(np.searchsorted(matrix.matrix.indptr, bad[0], side="right")) - 1
        raise ValidationError(f"operator has a non-finite entry in row {row}")

    hierarchy = AMGHierarchy()
    current = matrix
    for level_index in range(max_levels):
        level = AMGLevel(index=level_index, matrix=current)
        hierarchy.levels.append(level)
        if current.n_rows <= max_coarse_size or level_index == max_levels - 1:
            break

        A = current.matrix
        strength = classical_strength(A, theta=strength_theta)
        splitting = pmis_coarsening(strength, seed=seed + level_index)
        if splitting.n_coarse == 0 or splitting.n_coarse >= current.n_rows:
            break
        if splitting.n_coarse > min_coarsening_ratio * current.n_rows:
            # Coarsening stagnated; keep the hierarchy as built so far.
            break
        try:
            P = direct_interpolation(A, strength, splitting)
        except SolverError:
            break
        coarse_matrix = galerkin_product(A, P, truncation=truncation)
        coarse_partition = _coarse_partition(current.partition, splitting)
        level.prolongation = P
        level.splitting = splitting
        current = ParCSRMatrix(coarse_matrix, coarse_partition)
    return hierarchy
