"""Named parameter sets and auxiliary cost models.

Two things live here:

* :func:`lassen_parameters` — the locality-aware model whose constants
  reflect the Lassen-class measurements the paper cites (cheap intra-CPU
  messages, expensive inter-CPU large messages, shared injection bandwidth
  per node).
* :class:`GraphCreationModel` — the cost of
  ``MPI_Dist_graph_create_adjacent`` as a function of process count for the
  two MPI implementations compared in Figure 6 (Spectrum MPI and MVAPICH).
  The paper reports MVAPICH performing the call 8.6x faster than Spectrum at
  2048 cores with better strong scaling; the constants below are calibrated to
  that observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.perfmodel.locality import LocalityAwareModel, LocalityParameters
from repro.topology.machine import Locality
from repro.utils.errors import ValidationError


def lassen_parameters(*, active_per_node: int = 16) -> LocalityAwareModel:
    """Locality-aware model tuned to a Lassen-class (Power9 + EDR) node.

    Intra-socket messages move through shared cache (sub-microsecond latency,
    tens of GB/s); inter-socket messages cross the X-bus and are the slowest
    per-byte path for large messages; inter-node messages pay network latency
    and share the node's injection bandwidth.
    """
    return LocalityAwareModel(
        parameters={
            Locality.INTRA_SOCKET: LocalityParameters(alpha=4.0e-7, beta=1.8e-11),
            Locality.INTER_SOCKET: LocalityParameters(alpha=8.0e-7, beta=1.9e-10),
            Locality.INTER_NODE: LocalityParameters(alpha=3.4e-6, beta=8.0e-11),
        },
        beta_injection=5.0e-12,
        active_per_node=active_per_node,
    )


@dataclass(frozen=True)
class GraphCreationModel:
    """Cost of creating the distributed-graph topology communicator.

    The modeled cost is ``base + per_process * P + per_neighbor * n`` where
    ``P`` is the communicator size and ``n`` the average neighbor count of the
    calling pattern.  ``MPI_Dist_graph_create_adjacent`` requires a
    synchronisation across the communicator, hence the ``P`` term; the
    per-neighbor term covers building the adjacency structures.
    """

    name: str
    base: float
    per_process: float
    per_neighbor: float = 2.0e-7

    def __post_init__(self):
        if min(self.base, self.per_process, self.per_neighbor) < 0:
            raise ValidationError("graph-creation coefficients must be non-negative")

    def cost(self, n_processes: int, avg_neighbors: float = 0.0) -> float:
        """Seconds for one call on a communicator of ``n_processes`` ranks."""
        if n_processes < 1:
            raise ValidationError("n_processes must be >= 1")
        if avg_neighbors < 0:
            raise ValidationError("avg_neighbors must be >= 0")
        # log term covers the tree-based parts of the synchronisation.
        log_term = math.log2(max(n_processes, 2))
        return (self.base
                + self.per_process * n_processes
                + 5.0e-6 * log_term
                + self.per_neighbor * avg_neighbors)


_GRAPH_MODELS = {
    # Calibrated so that at 2048 processes Spectrum costs ~0.069 s and MVAPICH
    # ~0.008 s (the 8.6x gap reported in Section 4), with both near a couple of
    # milliseconds at trivial scale.
    "spectrum": GraphCreationModel(name="spectrum", base=1.5e-3, per_process=3.3e-5),
    "mvapich": GraphCreationModel(name="mvapich", base=1.5e-3, per_process=3.1e-6),
}


def graph_creation_model(implementation: str) -> GraphCreationModel:
    """Return the graph-creation cost model for an MPI implementation name."""
    key = implementation.lower()
    if key not in _GRAPH_MODELS:
        raise ValidationError(
            f"unknown MPI implementation {implementation!r}; "
            f"available: {sorted(_GRAPH_MODELS)}"
        )
    return _GRAPH_MODELS[key]


@dataclass(frozen=True)
class SetupCostModel:
    """Initialisation cost of a persistent neighborhood collective.

    Figure 7 adds the one-time ``*_init`` cost to ``N`` iterations of
    Start/Wait.  Initialisation of the locality-aware variants must exchange
    and load-balance the aggregated pattern inside each region; we charge a
    per-rank base cost plus costs proportional to the number of setup messages
    and to the redistributed data volume.
    """

    base: float = 3.0e-4
    per_setup_message: float = 1.2e-5
    per_setup_byte: float = 6.0e-9

    def cost(self, n_setup_messages: int, setup_bytes: int) -> float:
        """Seconds of initialisation work beyond graph creation."""
        if n_setup_messages < 0 or setup_bytes < 0:
            raise ValidationError("setup message/byte counts must be non-negative")
        return (self.base
                + self.per_setup_message * n_setup_messages
                + self.per_setup_byte * setup_bytes)
