"""A BoomerAMG-style algebraic multigrid solver.

The paper evaluates its collectives inside the solve phase of Hypre's
BoomerAMG; this package provides the equivalent substrate: classical strength
of connection, PMIS coarsening, direct interpolation, Galerkin coarse
operators, weighted-Jacobi relaxation, and a V-cycle solver.
Each level keeps a distributed view (partition inherited from the fine grid),
from which :mod:`repro.amg.comm_analysis` extracts the per-level SpMV
communication patterns that Figures 8-13 are built on.
"""

from repro.amg.strength import classical_strength
from repro.amg.coarsen import pmis_coarsening, SplittingResult, CPOINT
from repro.amg.interp import direct_interpolation
from repro.amg.galerkin import galerkin_product
from repro.amg.relax import DistributedJacobi, weighted_jacobi_iteration
from repro.amg.hierarchy import (
    AMGHierarchy,
    build_hierarchy,
    redistribute_hierarchy,
)
from repro.amg.solver import BoomerAMGSolver, SolveResult
from repro.amg.vcycle import (
    WorldVCycle,
    WorldAMGSolver,
    coarse_gather_pattern,
)
from repro.amg.comm_analysis import (
    level_patterns,
    level_transfer_patterns,
    LevelCommProfile,
    hierarchy_comm_profiles,
)

__all__ = [
    "classical_strength",
    "pmis_coarsening",
    "SplittingResult",
    "CPOINT",
    "direct_interpolation",
    "galerkin_product",
    "DistributedJacobi",
    "weighted_jacobi_iteration",
    "AMGHierarchy",
    "build_hierarchy",
    "redistribute_hierarchy",
    "BoomerAMGSolver",
    "SolveResult",
    "WorldVCycle",
    "WorldAMGSolver",
    "coarse_gather_pattern",
    "level_patterns",
    "level_transfer_patterns",
    "LevelCommProfile",
    "hierarchy_comm_profiles",
]
