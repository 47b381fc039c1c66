"""Communication performance models.

The paper's measurements are wall-clock times of ``MPI_Start``/``MPI_Wait`` on
Lassen.  We cannot time a network we do not have, so this package provides the
locality-aware model the related-work section describes — separate
intra-socket / inter-socket / inter-node latency and bandwidth parameters,
with a per-node injection-bandwidth limit — and uses it to turn the message
lists produced by the collective planners into estimated times.  Parameter
sets calibrated to published Lassen-class numbers, and the graph-creation and
setup cost models, live in :mod:`repro.perfmodel.params`.
"""

from repro.perfmodel.base import CostModel
from repro.perfmodel.locality import LocalityAwareModel, LocalityParameters
from repro.perfmodel.params import (
    lassen_parameters,
    graph_creation_model,
    SetupCostModel,
)

__all__ = [
    "CostModel",
    "LocalityAwareModel",
    "LocalityParameters",
    "lassen_parameters",
    "graph_creation_model",
    "SetupCostModel",
]
