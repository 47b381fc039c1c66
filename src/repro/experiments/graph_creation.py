"""Figure 6: cost of ``MPI_Dist_graph_create_adjacent`` vs process count.

The paper strong-scales the 524 288-row rotated anisotropic diffusion system
over 2-2048 processes and times one graph creation per AMG level with two MPI
implementations (Spectrum MPI and MVAPICH); MVAPICH is 8.6x faster at 2048
cores.  We reproduce the series with the calibrated
:class:`~repro.perfmodel.params.GraphCreationModel` applied to the real
per-scale neighbor counts of the same matrix family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.config import ExperimentConfig
from repro.pattern.statistics import average_neighbors
from repro.perfmodel.params import graph_creation_model
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.generators import strong_scaling_problem
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.utils.formatting import format_series


@dataclass
class GraphCreationResult:
    """Graph-creation cost per process count and MPI implementation."""

    process_counts: List[int]
    costs: Dict[str, List[float]] = field(default_factory=dict)

    def speedup_at(self, n_processes: int, fast: str = "mvapich",
                   slow: str = "spectrum") -> float:
        """Ratio slow/fast at one process count (the paper quotes 8.6x at 2048)."""
        index = self.process_counts.index(n_processes)
        return self.costs[slow][index] / self.costs[fast][index]

    def to_table(self) -> str:
        """Render the figure's series as a text table."""
        return format_series(self.costs, self.process_counts,
                             x_label="processes",
                             title="Figure 6: graph creation cost (seconds)")


#: The two MPI implementations Figure 6 compares.
IMPLEMENTATIONS = ("spectrum", "mvapich")


def run_graph_creation(config: ExperimentConfig) -> GraphCreationResult:
    """Reproduce Figure 6.

    For every process count the strong-scaled matrix is re-partitioned, the
    SpMV pattern extracted, and the model of each of
    :data:`IMPLEMENTATIONS` evaluated at that scale with the pattern's real
    average neighbor count.
    """
    problem = strong_scaling_problem(config.n_rows, max(config.graph_creation_ranks),
                                     epsilon=config.epsilon, theta=config.theta)
    matrix = problem.matrix.matrix  # global scipy matrix, re-partitioned per scale

    result = GraphCreationResult(process_counts=list(config.graph_creation_ranks))
    models = {name: graph_creation_model(name) for name in IMPLEMENTATIONS}
    for name in IMPLEMENTATIONS:
        result.costs[name] = []
    for n_processes in config.graph_creation_ranks:
        partition = RowPartition.even(config.n_rows, n_processes)
        pattern = pattern_from_parcsr(ParCSRMatrix(matrix, partition))
        neighbors = average_neighbors(pattern, pattern.active_ranks().tolist())
        for name in IMPLEMENTATIONS:
            result.costs[name].append(models[name].cost(n_processes, neighbors))
    return result
