"""Relaxation (smoothing) methods for the V-cycle.

Weighted Jacobi and forward Gauss-Seidel; Hypre's default hybrid
Gauss-Seidel reduces to plain Gauss-Seidel in a sequential setting, so both of
the library's smoothers cover the behaviour that matters here (convergence of
the solve phase whose SpMVs carry the communication being studied).

:class:`DistributedJacobi` is the functional distributed form: one instance
per rank, with the residual's SpMV (and therefore the halo exchange) running
through the array-native persistent neighborhood collective — the same
communication the paper times inside BoomerAMG's solve phase.
:class:`WorldJacobi` is its world-stepped twin: one stacked
:class:`~repro.sparse.spmv.WorldSpMV` product and one vector expression per
sweep for the whole communicator.
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
    """One rank's weighted-Jacobi smoother over a distributed operator.

    Wraps a :class:`~repro.sparse.spmv.DistributedSpMV`: every sweep performs
    the halo exchange through the array-native persistent collective and then
    the local residual update.  Construction is collective (one instance per
    rank, like the SpMV it wraps); a sweep is numerically identical to
    :func:`weighted_jacobi_iteration` on the assembled global system.
    """

    def __init__(self, spmv: "DistributedSpMV", *, omega: float = 2.0 / 3.0):
        check_one_partition(spmv.matrix, "Jacobi")
        self.spmv = spmv
        self.omega = float(omega)
        diagonal = np.asarray(spmv.blocks.diag.diagonal(), dtype=np.float64)
        if np.any(diagonal == 0.0):
            raise ValidationError("Jacobi requires non-zero diagonal entries")
        self._diagonal = diagonal

    def sweep(self, b_local: np.ndarray, x_local: np.ndarray) -> np.ndarray:
        """One weighted-Jacobi sweep on this rank's rows (out of place)."""
        b_local = np.asarray(b_local, dtype=np.float64)
        x_local = np.asarray(x_local, dtype=np.float64)
        n = self.spmv.n_local_rows
        if b_local.shape != (n,) or x_local.shape != (n,):
            raise ValidationError(f"b_local and x_local must have shape ({n},)")
        residual = b_local - self.spmv.multiply(x_local)
        return x_local + self.omega * residual / self._diagonal

    def smooth(self, b_local: np.ndarray, x_local: np.ndarray, *,
               sweeps: int = 1) -> np.ndarray:
        """Run ``sweeps`` distributed Jacobi sweeps."""
        if sweeps < 0:
            raise ValidationError("sweeps must be >= 0")
        result = np.array(x_local, dtype=np.float64, copy=True)
        for _ in range(sweeps):
            result = self.sweep(b_local, result)
        return result


class WorldJacobi:
    """World-stepped weighted-Jacobi smoother over a distributed operator.

    Wraps a :class:`~repro.sparse.spmv.WorldSpMV`: every sweep is one stacked
    product (one flat halo exchange for *all* ranks) and one vector update
    against its diagonal.  A sweep is numerically identical to
    :func:`weighted_jacobi_iteration` on the assembled global system and
    byte-identical to running :class:`DistributedJacobi` on every rank of the
    envelope-routed runtime.  The execution backend is the wrapped SpMV's:
    build the :class:`WorldSpMV` with ``runtime="procs"`` to smooth through
    the shared-memory worker pool.
    """

    def __init__(self, spmv: "WorldSpMV", *, omega: float = 2.0 / 3.0):
        check_one_partition(spmv.matrix, "Jacobi")
        self.spmv = spmv
        self.omega = float(omega)
        diagonal = np.asarray(spmv.diag.diagonal(), dtype=np.float64)
        if np.any(diagonal == 0.0):
            raise ValidationError("Jacobi requires non-zero diagonal entries")
        self._diagonal = diagonal

    def sweep(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One weighted-Jacobi sweep on the global vectors (out of place)."""
        b = np.asarray(b, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        n = self.spmv.n_rows
        if b.shape != (n,) or x.shape != (n,):
            raise ValidationError(f"b and x must have shape ({n},)")
        residual = b - self.spmv.multiply(x)
        return x + self.omega * residual / self._diagonal

    def smooth(self, b: np.ndarray, x: np.ndarray, *, sweeps: int = 1) -> np.ndarray:
        """Run ``sweeps`` world-stepped Jacobi sweeps."""
        if sweeps < 0:
            raise ValidationError("sweeps must be >= 0")
        result = np.array(x, dtype=np.float64, copy=True)
        for _ in range(sweeps):
            result = self.sweep(b, result)
        return result
