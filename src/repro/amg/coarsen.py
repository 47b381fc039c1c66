"""PMIS coarsening.

PMIS (Parallel Modified Independent Set, De Sterck/Yang/Heys) is one of
BoomerAMG's default coarsening algorithms and the one whose hierarchies the
paper's evaluation exercises.  Each point gets a weight equal to the number of
points it strongly influences plus a random tie-breaker; points whose weight
exceeds that of every undecided strongly-coupled neighbour become C-points, and
their undecided neighbours become F-points, until every point is decided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.amg.strength import symmetrized_strength
from repro.utils.arrays import _segment_max
from repro.utils.errors import SolverError

#: Marker values of the coarse/fine splitting array.
CPOINT = 1
FPOINT = 0
_UNDECIDED = -1


@dataclass(frozen=True)
class SplittingResult:
    """Outcome of a coarsening pass."""

    splitting: np.ndarray      # CPOINT / FPOINT per row
    coarse_index: np.ndarray   # for C-points, the coarse row index; -1 for F-points

    @property
    def n_coarse(self) -> int:
        """Number of coarse points."""
        return int(np.count_nonzero(self.splitting == CPOINT))

    @property
    def coarse_rows(self) -> np.ndarray:
        """Fine-grid indices of the coarse points, ascending."""
        return np.flatnonzero(self.splitting == CPOINT).astype(np.int64)


def pmis_coarsening(strength: sp.spmatrix, *, seed: int = 42,
                    max_iterations: int = 1000) -> SplittingResult:
    """Compute a PMIS C/F splitting from a strength-of-connection matrix.

    Parameters
    ----------
    strength:
        Strength matrix: ``strength[i, j] != 0`` means ``i`` strongly depends
        on ``j``.
    seed:
        Seed of the random tie-breaking weights (deterministic hierarchies
        make the experiments reproducible).
    max_iterations:
        Safety bound; PMIS converges in a few iterations in practice.
    """
    S = sp.csr_matrix(strength)
    n = S.shape[0]
    if n == 0:
        return SplittingResult(splitting=np.empty(0, dtype=np.int64),
                               coarse_index=np.empty(0, dtype=np.int64))
    sym = symmetrized_strength(S)

    rng = np.random.default_rng(seed)
    # Weight: number of points this point strongly influences (column count of
    # S, i.e. row count of S^T) plus a random fraction for tie breaking.
    influences = np.asarray(S.sum(axis=0)).ravel()
    weights = influences + rng.random(n)

    splitting = np.full(n, _UNDECIDED, dtype=np.int64)
    # Points with no strong connections at all never need interpolation: they
    # become F-points immediately (relaxation handles them), matching hypre.
    isolated = (np.diff(sym.indptr) == 0)
    splitting[isolated] = FPOINT

    for _ in range(max_iterations):
        undecided = splitting == _UNDECIDED
        if not undecided.any():
            break
        active_weights = np.where(undecided, weights, -np.inf)
        finite_weights = np.where(np.isfinite(active_weights), active_weights, -np.inf)
        neighbor_max = _segment_max(finite_weights[sym.indices], sym.indptr)
        # A point becomes coarse when it is undecided and beats every undecided
        # strongly-coupled neighbour.
        new_coarse = undecided & (weights > neighbor_max)
        if not new_coarse.any():
            # Numerical ties (probability ~0 with random weights): promote the
            # highest-weight undecided point to guarantee progress.
            new_coarse = np.zeros(n, dtype=bool)
            new_coarse[int(np.argmax(np.where(undecided, weights, -np.inf)))] = True
        splitting[new_coarse] = CPOINT
        # Undecided neighbours of the new C-points become F-points.
        coarse_indicator = np.zeros(n, dtype=np.float64)
        coarse_indicator[new_coarse] = 1.0
        touched = (sym @ coarse_indicator) > 0
        splitting[(splitting == _UNDECIDED) & touched] = FPOINT
    else:
        raise SolverError("PMIS coarsening did not converge")

    coarse_index = np.full(n, -1, dtype=np.int64)
    coarse_rows = np.flatnonzero(splitting == CPOINT)
    coarse_index[coarse_rows] = np.arange(coarse_rows.size)
    return SplittingResult(splitting=splitting, coarse_index=coarse_index)
