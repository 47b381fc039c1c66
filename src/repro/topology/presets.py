"""Named machine presets used throughout the experiments.

The presets encode the node architectures mentioned in the paper's background
section: Lassen/Summit-class SMP nodes, Frontier's single-socket 4-NUMA nodes,
Blue Gene/Q's 16-core nodes, and the 2x16-core SMP example of Figure 1.
"""

from __future__ import annotations

from repro.topology.machine import MachineSpec
from repro.topology.mapping import MappingKind, RankMapping


def lassen_like(nodes: int = 256) -> MachineSpec:
    """Lassen-class node: two 22-core Power9 CPUs per node.

    The paper uses only 16 cores of a single CPU per node to avoid the
    expensive inter-CPU path; see :func:`paper_mapping`.
    """
    return MachineSpec(name="lassen-like", nodes=nodes,
                       sockets_per_node=2, cores_per_socket=22)


def paper_mapping(n_ranks: int, *, ranks_per_node: int = 16,
                  nodes: int | None = None) -> RankMapping:
    """The placement used for every result in the paper's Section 4.

    16 ranks per node, block placement, all on the first CPU of a Lassen-like
    node, aggregation regions = nodes.
    """
    needed_nodes = -(-n_ranks // ranks_per_node)
    machine = lassen_like(nodes=nodes if nodes is not None else max(needed_nodes, 1))
    return RankMapping(machine, n_ranks, ranks_per_node=ranks_per_node,
                       kind=MappingKind.BLOCK, region="node")
