"""Machine descriptions.

A :class:`MachineSpec` describes the node architecture of a cluster the way the
paper's Figure 1 does: every node contains ``sockets_per_node`` CPUs (NUMA
regions), every socket ``cores_per_socket`` cores.  Locality classes
(:class:`Locality`) name the three message paths whose costs differ: through
shared cache / memory inside a socket, across sockets inside a node, and across
the network between nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.errors import TopologyError
from repro.utils.validation import check_positive_int


class Locality(enum.IntEnum):
    """Relative location of two communicating ranks.

    The integer ordering reflects increasing distance, which the performance
    models rely on (``SELF < INTRA_SOCKET < INTER_SOCKET < INTER_NODE``).
    """

    SELF = 0
    INTRA_SOCKET = 1
    INTER_SOCKET = 2
    INTER_NODE = 3

    @property
    def is_local(self) -> bool:
        """True when the message never leaves the node."""
        return self in (Locality.SELF, Locality.INTRA_SOCKET, Locality.INTER_SOCKET)


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a homogeneous cluster.

    Parameters
    ----------
    name:
        Human-readable identifier (``"lassen-like"``...).
    nodes:
        Number of nodes available.  Rank mappings may use fewer.
    sockets_per_node:
        CPUs / NUMA regions per node.
    cores_per_socket:
        Cores per CPU.
    """

    name: str
    nodes: int
    sockets_per_node: int
    cores_per_socket: int

    def __post_init__(self):
        check_positive_int("nodes", self.nodes)
        check_positive_int("sockets_per_node", self.sockets_per_node)
        check_positive_int("cores_per_socket", self.cores_per_socket)

    @property
    def cores_per_node(self) -> int:
        """Total cores in one node."""
        return self.sockets_per_node * self.cores_per_socket

    @property
    def total_cores(self) -> int:
        """Total cores in the machine."""
        return self.nodes * self.cores_per_node

    def core_location(self, core: int) -> tuple[int, int, int]:
        """Return ``(node, socket_within_node, core_within_socket)`` of a core id.

        Cores are numbered node-major then socket-major, matching the usual
        ``MPI rank-by-core`` placement on SMP clusters.
        """
        if core < 0 or core >= self.total_cores:
            raise TopologyError(
                f"core {core} out of range for machine with {self.total_cores} cores"
            )
        node, rest = divmod(core, self.cores_per_node)
        socket, core_in_socket = divmod(rest, self.cores_per_socket)
        return node, socket, core_in_socket

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.name}: {self.nodes} nodes x {self.sockets_per_node} sockets x "
            f"{self.cores_per_socket} cores = {self.total_cores} cores"
        )
