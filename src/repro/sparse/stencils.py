"""Stencil problem generators.

The paper's evaluation problem is a 7-point rotated anisotropic diffusion
system (rotation 45 degrees, anisotropy 0.001).  The operator is
``-div(Q diag(1, eps) Q^T grad u)`` with ``Q`` a rotation by ``theta``;
a standard second-order finite-difference discretisation that keeps only the
two diagonal neighbours aligned with the rotation produces exactly seven
non-zeros per interior row.  Poisson stencils in 2-D and 3-D are provided as
additional workloads for examples and tests.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive_int


def rotated_anisotropic_stencil(epsilon: float = 0.001,
                                theta: float = math.pi / 4.0) -> np.ndarray:
    """3x3 stencil of the rotated anisotropic diffusion operator.

    Parameters
    ----------
    epsilon:
        Anisotropy ratio (1.0 gives the isotropic Laplacian).
    theta:
        Rotation angle in radians (the paper uses 45 degrees).

    Returns
    -------
    A 3x3 array ``S`` where ``S[1 + dy, 1 + dx]`` is the coefficient of the
    neighbour at offset ``(dx, dy)``; for the default parameters only seven
    entries are non-zero.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be > 0")
    c, s = math.cos(theta), math.sin(theta)
    # Diffusion tensor D = Q diag(1, eps) Q^T.
    cxx = c * c + epsilon * s * s
    cyy = s * s + epsilon * c * c
    cxy = (1.0 - epsilon) * c * s

    # -cxx u_xx - cyy u_yy - 2 cxy u_xy, discretised with a 7-point formula
    # whose cross term uses the NE/SW diagonal pair (for positive cxy).
    stencil = np.zeros((3, 3), dtype=np.float64)
    # u_xx part
    stencil[1, 0] += -cxx
    stencil[1, 2] += -cxx
    stencil[1, 1] += 2.0 * cxx
    # u_yy part
    stencil[0, 1] += -cyy
    stencil[2, 1] += -cyy
    stencil[1, 1] += 2.0 * cyy
    # cross term: 2 cxy u_xy ~ cxy * (u_NE + u_SW - u_N - u_S - u_E - u_W + 2 u_C)
    # (signs flip when cxy is negative, using the NW/SE pair instead so the
    #  resulting matrix keeps non-positive off-diagonals).
    if cxy >= 0:
        stencil[2, 2] += -cxy   # NE (dx=+1, dy=+1)
        stencil[0, 0] += -cxy   # SW
        sign = 1.0
    else:
        stencil[2, 0] += cxy    # NW
        stencil[0, 2] += cxy    # SE
        sign = -1.0
        cxy = -cxy
    stencil[0, 1] += cxy
    stencil[2, 1] += cxy
    stencil[1, 0] += cxy
    stencil[1, 2] += cxy
    stencil[1, 1] += -2.0 * cxy
    del sign
    return stencil


def stencil_grid(stencil: np.ndarray, grid_shape: Tuple[int, int]) -> sp.csr_matrix:
    """Assemble a sparse matrix applying ``stencil`` on a 2-D grid (Dirichlet).

    Rows are numbered row-major (``index = iy * nx + ix``); connections leaving
    the grid are dropped, which corresponds to homogeneous Dirichlet boundary
    conditions.
    """
    ny, nx = int(grid_shape[0]), int(grid_shape[1])
    check_positive_int("ny", ny)
    check_positive_int("nx", nx)
    if stencil.shape != (3, 3):
        raise ValidationError("stencil must be a 3x3 array")
    n = nx * ny
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    ix = np.arange(nx)
    iy = np.arange(ny)
    gx, gy = np.meshgrid(ix, iy)            # gx, gy shape (ny, nx)
    index = (gy * nx + gx).ravel()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            coeff = stencil[1 + dy, 1 + dx]
            if coeff == 0.0:
                continue
            nx_ok = (gx + dx >= 0) & (gx + dx < nx)
            ny_ok = (gy + dy >= 0) & (gy + dy < ny)
            keep = (nx_ok & ny_ok).ravel()
            neighbor = ((gy + dy) * nx + (gx + dx)).ravel()
            rows.append(index[keep])
            cols.append(neighbor[keep])
            vals.append(np.full(keep.sum(), coeff, dtype=np.float64))
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return matrix.tocsr()


def rotated_anisotropic_diffusion(grid_shape: Tuple[int, int], *,
                                  epsilon: float = 0.001,
                                  theta: float = math.pi / 4.0) -> sp.csr_matrix:
    """The paper's evaluation matrix on a ``grid_shape`` grid (row-major ordering)."""
    return stencil_grid(rotated_anisotropic_stencil(epsilon, theta), grid_shape)


def poisson_2d(grid_shape: Tuple[int, int]) -> sp.csr_matrix:
    """Standard 5-point Laplacian on a 2-D grid."""
    stencil = np.array([[0.0, -1.0, 0.0],
                        [-1.0, 4.0, -1.0],
                        [0.0, -1.0, 0.0]])
    return stencil_grid(stencil, grid_shape)
