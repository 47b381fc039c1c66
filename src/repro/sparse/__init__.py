"""Distributed sparse matrices, stencil problem generators, and SpMV.

This package is the stand-in for Hypre's ParCSR layer: matrices are stored
globally (scipy CSR) together with a row partition over simulated ranks, and
every rank-local view that a real distributed code would hold — the diagonal
block, the off-diagonal block with its ``col_map_offd``, and the description
of which off-process vector entries the rank needs — is derived from that
pair.  That description (hypre's communication package) *is* the
communication pattern the neighborhood collectives optimize.
"""

from repro.sparse.partition import RowPartition
from repro.sparse.stencils import (
    rotated_anisotropic_stencil,
    stencil_grid,
    rotated_anisotropic_diffusion,
    poisson_2d,
    poisson_3d,
)
from repro.sparse.parcsr import (
    ParCSRMatrix,
    LocalBlocks,
)
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.spmv import (
    sequential_spmv,
    distributed_spmv_results,
    DistributedSpMV,
    WorldSpMV,
)
from repro.sparse.generators import (
    ScalingProblem,
    strong_scaling_problem,
    weak_scaling_problem,
    grid_shape_for_rows,
)

__all__ = [
    "RowPartition",
    "rotated_anisotropic_stencil",
    "stencil_grid",
    "rotated_anisotropic_diffusion",
    "poisson_2d",
    "poisson_3d",
    "ParCSRMatrix",
    "LocalBlocks",
    "pattern_from_parcsr",
    "sequential_spmv",
    "distributed_spmv_results",
    "DistributedSpMV",
    "WorldSpMV",
    "ScalingProblem",
    "strong_scaling_problem",
    "weak_scaling_problem",
    "grid_shape_for_rows",
]
