"""Relaxation (smoothing) methods for the V-cycle.

Weighted Jacobi and forward Gauss-Seidel; Hypre's default hybrid
Gauss-Seidel reduces to plain Gauss-Seidel in a sequential setting, so both of
the library's smoothers cover the behaviour that matters here (convergence of
the solve phase whose SpMVs carry the communication being studied).

:class:`DistributedJacobi` is the functional distributed form, written once
for both runtimes: the residual's SpMV (and therefore the halo exchange) runs
through the persistent neighborhood collective — the same communication the
paper times inside BoomerAMG's solve phase — and which data path that is
(one rank's envelopes or the whole communicator's flat engine round) is the
wrapped SpMV's business.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.sparse.parcsr import check_one_partition
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sparse.spmv import DistributedSpMV, WorldSpMV


def _check_system(A: sp.spmatrix, b: np.ndarray, x: np.ndarray) -> sp.csr_matrix:
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValidationError("relaxation requires a square matrix")
    if b.shape != (A.shape[0],) or x.shape != (A.shape[0],):
        raise ValidationError("b and x must match the matrix dimension")
    return A


def weighted_jacobi_iteration(A: sp.spmatrix, b: np.ndarray, x: np.ndarray, *,
                              omega: float = 2.0 / 3.0) -> np.ndarray:
    """One weighted-Jacobi sweep; returns the updated iterate (out of place)."""
    A = _check_system(A, b, x)
    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise ValidationError("Jacobi requires non-zero diagonal entries")
    residual = b - A @ x
    return x + omega * residual / diag


def gauss_seidel_iteration(A: sp.spmatrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One forward Gauss-Seidel sweep (out of place)."""
    A = _check_system(A, b, x)
    lower = sp.tril(A, k=0, format="csr")
    upper = A - lower
    rhs = b - upper @ x
    updated = sp.linalg.spsolve_triangular(lower.tocsr(), rhs, lower=True)
    return np.asarray(updated, dtype=np.float64)


def jacobi(A: sp.spmatrix, b: np.ndarray, x: np.ndarray, *, sweeps: int = 1,
           omega: float = 2.0 / 3.0) -> np.ndarray:
    """Run ``sweeps`` weighted-Jacobi iterations."""
    if sweeps < 0:
        raise ValidationError("sweeps must be >= 0")
    result = np.array(x, dtype=np.float64, copy=True)
    for _ in range(sweeps):
        result = weighted_jacobi_iteration(A, b, result, omega=omega)
    return result


class DistributedJacobi:
    """Weighted-Jacobi smoother over a distributed operator, on either runtime.

    Wraps the operator's SpMV and works on whatever vectors that SpMV does:
    over a :class:`~repro.sparse.spmv.DistributedSpMV` it is one rank's
    smoother on the rank's rows (construction is collective, one instance per
    rank, like the SpMV it wraps); over a
    :class:`~repro.sparse.spmv.WorldSpMV` it smooths the global vectors for
    the whole communicator, one flat halo exchange per sweep.  Either way a
    sweep is the product, then one vector update against the diagonal —
    numerically identical to :func:`weighted_jacobi_iteration` on the
    assembled global system, and byte-identical between the two runtimes.
    """

    def __init__(self, spmv: "DistributedSpMV | WorldSpMV", *,
                 omega: float = 2.0 / 3.0):
        check_one_partition(spmv.matrix, "Jacobi")
        self.spmv = spmv
        self.omega = float(omega)
        first, last = spmv.row_range    # one rank's rows, or the world's
        diagonal = np.asarray(spmv.matrix.matrix.diagonal()[first:last],
                              dtype=np.float64)
        if np.any(diagonal == 0.0):
            raise ValidationError("Jacobi requires non-zero diagonal entries")
        self._diagonal = diagonal

    def sweep(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One weighted-Jacobi sweep on the SpMV's rows (out of place)."""
        b = np.asarray(b, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        shape = self._diagonal.shape
        if b.shape != shape or x.shape != shape:
            raise ValidationError(f"b and x must have shape {shape}")
        residual = b - self.spmv.multiply(x)
        return x + self.omega * residual / self._diagonal

    def smooth(self, b: np.ndarray, x: np.ndarray, *, sweeps: int = 1) -> np.ndarray:
        """Run ``sweeps`` Jacobi sweeps."""
        if sweeps < 0:
            raise ValidationError("sweeps must be >= 0")
        result = np.array(x, dtype=np.float64, copy=True)
        for _ in range(sweeps):
            result = self.sweep(b, result)
        return result
