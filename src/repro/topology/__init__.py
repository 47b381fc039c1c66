"""Machine topology: nodes, NUMA regions, cores, and rank placement.

The paper's optimizations hinge on a hierarchy of *locality regions* — in the
evaluation a region is the set of MPI ranks sharing a CPU (16 ranks per node on
Lassen).  This package describes machines (:class:`MachineSpec`), maps ranks
onto them (:class:`RankMapping`, :func:`paper_mapping` for the paper's
placement), and answers the locality queries the collectives and performance
models need (which region is a rank in, are two ranks on the same node / same
socket).
"""

from repro.topology.machine import MachineSpec, Locality
from repro.topology.mapping import RankMapping, MappingKind
from repro.topology.presets import paper_mapping

__all__ = [
    "MachineSpec",
    "Locality",
    "RankMapping",
    "MappingKind",
    "paper_mapping",
]
