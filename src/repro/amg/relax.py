"""Relaxation (smoothing) methods for the V-cycle.

Weighted Jacobi and forward Gauss-Seidel; Hypre's default hybrid
Gauss-Seidel reduces to plain Gauss-Seidel in a sequential setting, so both of
the library's smoothers cover the behaviour that matters here (convergence of
the solve phase whose SpMVs carry the communication being studied).

:class:`DistributedJacobi` is the functional distributed form: the residual's
SpMV (and therefore the halo exchange) runs through the world-stepped
neighborhood collective of a :class:`~repro.sparse.spmv.WorldSpMV` — the same
communication the paper times inside BoomerAMG's solve phase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.sparse.parcsr import check_one_partition
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sparse.spmv import WorldSpMV


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
    """Weighted-Jacobi smoother over a distributed operator.

    Wraps the operator's :class:`~repro.sparse.spmv.WorldSpMV` and smooths
    the global vectors for the whole communicator, one flat halo exchange per
    sweep.  A sweep is the product, then one vector update against the
    diagonal — bit for bit :func:`weighted_jacobi_iteration` on the assembled
    global system.
    """

    def __init__(self, spmv: "WorldSpMV", *, omega: float = 2.0 / 3.0):
        check_one_partition(spmv.matrix, "Jacobi")
        self.spmv = spmv
        self.omega = float(omega)
        diagonal = np.asarray(spmv.matrix.matrix.diagonal(), dtype=np.float64)
        if np.any(diagonal == 0.0):
            raise ValidationError("Jacobi requires non-zero diagonal entries")
        self._diagonal = diagonal

    def sweep(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One weighted-Jacobi sweep (out of place)."""
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
