"""Rank-to-core placement and locality-region queries.

A :class:`RankMapping` places ``n_ranks`` MPI ranks onto a
:class:`~repro.topology.machine.MachineSpec`.  The paper runs 16 ranks per node
on a single CPU of Lassen's two 22-core CPUs; that corresponds to
``RankMapping(machine, n_ranks, ranks_per_node=16, kind=MappingKind.BLOCK)``.

The mapping also defines the *aggregation region* used by the locality-aware
collectives.  By default a region is a node (all ranks mapped to the same
node); ``region="socket"`` makes each NUMA region its own aggregation region,
which matters on machines where inter-socket traffic is the expensive path.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

from repro.topology.machine import Locality, MachineSpec
from repro.utils.arrays import counts_to_displs, freeze_columns
from repro.utils.errors import TopologyError, ValidationError
from repro.utils.validation import check_positive_int


class MappingKind(enum.Enum):
    """How consecutive ranks are laid out across the machine."""

    #: Rank ``r`` goes to node ``r // ranks_per_node`` (MPI's usual default).
    BLOCK = "block"
    #: Rank ``r`` goes to node ``r % n_nodes`` (cyclic / round-robin placement).
    ROUND_ROBIN = "round_robin"
    #: Placement supplied explicitly as an array of core ids.
    CUSTOM = "custom"


class RankMapping:
    """Placement of MPI ranks on a machine plus locality-region structure."""

    def __init__(
        self,
        machine: MachineSpec,
        n_ranks: int,
        *,
        ranks_per_node: int | None = None,
        kind: MappingKind = MappingKind.BLOCK,
        region: str = "node",
        custom_cores: Sequence[int] | None = None,
    ):
        check_positive_int("n_ranks", n_ranks)
        self.machine = machine
        self.n_ranks = int(n_ranks)
        self.kind = MappingKind(kind)
        if region not in ("node", "socket"):
            raise TopologyError(f"region must be 'node' or 'socket', got {region!r}")
        self.region_kind = region

        if ranks_per_node is None:
            ranks_per_node = min(machine.cores_per_node, self.n_ranks)
        check_positive_int("ranks_per_node", ranks_per_node)
        if ranks_per_node > machine.cores_per_node:
            raise TopologyError(
                f"ranks_per_node={ranks_per_node} exceeds cores per node "
                f"({machine.cores_per_node})"
            )
        self.ranks_per_node = int(ranks_per_node)

        if self.kind is MappingKind.CUSTOM:
            if custom_cores is None:
                raise TopologyError("custom mapping requires custom_cores")
            cores = np.asarray(custom_cores, dtype=np.int64)
            if cores.shape != (self.n_ranks,):
                raise TopologyError(
                    f"custom_cores must have shape ({self.n_ranks},), got {cores.shape}"
                )
            if cores.size and (cores.min() < 0 or cores.max() >= machine.total_cores):
                raise TopologyError("custom_cores contains out-of-range core ids")
            if np.unique(cores).size != cores.size:
                raise TopologyError("custom_cores places two ranks on the same core")
            self._cores = cores
        else:
            self._cores = self._build_cores()

        self._nodes = self._cores // machine.cores_per_node
        within = self._cores % machine.cores_per_node
        self._sockets = (self._nodes * machine.sockets_per_node
                         + within // machine.cores_per_socket)
        if self.region_kind == "node":
            self._regions = self._nodes.copy()
        else:
            self._regions = self._sockets.copy()

        # Regions are renumbered densely in order of first appearance so that
        # region ids are always 0..n_regions-1 even for sparse placements.
        unique, dense = np.unique(self._regions, return_inverse=True)
        self._regions = dense.astype(np.int64)
        self._n_regions = int(unique.size)

        # Region ``r``'s ranks, ascending, are ``members[r, :counts[r]]``; the
        # padding is -1.  One stable sort by region builds the whole table.
        by_region = np.argsort(self._regions, kind="stable")
        counts = np.bincount(self._regions, minlength=self._n_regions)
        sorted_regions = self._regions[by_region]
        slots = (np.arange(self.n_ranks, dtype=np.int64)
                 - counts_to_displs(counts)[sorted_regions])
        members = np.full((self._n_regions, int(counts.max())), -1, dtype=np.int64)
        members[sorted_regions, slots] = by_region
        freeze_columns(members, counts)
        self._members, self._member_counts = members, counts

    # -- construction -----------------------------------------------------

    def _build_cores(self) -> np.ndarray:
        machine = self.machine
        needed_nodes = -(-self.n_ranks // self.ranks_per_node)  # ceil division
        if needed_nodes > machine.nodes:
            raise TopologyError(
                f"{self.n_ranks} ranks at {self.ranks_per_node} per node need "
                f"{needed_nodes} nodes but machine has {machine.nodes}"
            )
        ranks = np.arange(self.n_ranks, dtype=np.int64)
        if self.kind is MappingKind.BLOCK:
            node = ranks // self.ranks_per_node
            slot = ranks % self.ranks_per_node
        elif self.kind is MappingKind.ROUND_ROBIN:
            node = ranks % needed_nodes
            slot = ranks // needed_nodes
            if slot.size and slot.max() >= self.ranks_per_node:
                raise TopologyError(
                    "round-robin placement overflows ranks_per_node; "
                    "increase ranks_per_node or nodes"
                )
        else:  # pragma: no cover - CUSTOM handled by caller
            raise TopologyError("custom mapping must supply custom_cores")
        return node * machine.cores_per_node + slot

    # -- content view ------------------------------------------------------

    def cores_array(self) -> np.ndarray:
        """The rank→core placement column (read-only view).

        Together with the machine geometry and region kind this determines
        every locality query the mapping can answer — it is the mapping's
        contribution to the plan cache's content key.
        """
        view = self._cores.view()
        view.flags.writeable = False
        return view

    # -- per-rank queries --------------------------------------------------

    def region_of(self, rank: int) -> int:
        """Aggregation-region id of ``rank`` (dense, 0-based)."""
        self._check_rank(rank)
        return int(self._regions[rank])

    def locality(self, rank_a: int, rank_b: int) -> Locality:
        """Locality class of a message from ``rank_a`` to ``rank_b``."""
        self._check_rank(rank_a)
        self._check_rank(rank_b)
        if rank_a == rank_b:
            return Locality.SELF
        if self._nodes[rank_a] != self._nodes[rank_b]:
            return Locality.INTER_NODE
        if self._sockets[rank_a] != self._sockets[rank_b]:
            return Locality.INTER_SOCKET
        return Locality.INTRA_SOCKET

    def same_region(self, rank_a: int, rank_b: int) -> bool:
        """True when the two ranks share an aggregation region."""
        self._check_rank(rank_a)
        self._check_rank(rank_b)
        return bool(self._regions[rank_a] == self._regions[rank_b])

    # -- region-level queries ----------------------------------------------

    @property
    def n_regions(self) -> int:
        """Number of aggregation regions actually populated by ranks."""
        return self._n_regions

    def ranks_in_region(self, region: int) -> np.ndarray:
        """Sorted array of ranks belonging to ``region``."""
        if region < 0 or region >= self._n_regions:
            raise TopologyError(f"region {region} out of range [0, {self._n_regions})")
        return self._members[region, :self._member_counts[region]].copy()

    def member_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every region's ranks at once: ``(members, counts)`` (read-only).

        ``members`` is ``(n_regions, max ranks per region)``; row ``r`` holds
        region ``r``'s ranks ascending in its first ``counts[r]`` slots and
        -1 after them.
        """
        return self._members, self._member_counts

    def regions_array(self) -> np.ndarray:
        """Vector of region ids indexed by rank (copy)."""
        return self._regions.copy()

    def region_of_many(self, ranks: Iterable[int]) -> np.ndarray:
        """Vectorised :meth:`region_of`."""
        if not isinstance(ranks, np.ndarray):
            ranks = list(ranks)
        return self._regions[self._checked_rank_array(ranks)]

    def same_region_many(self, ranks_a: np.ndarray, ranks_b: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`same_region` over parallel rank arrays."""
        ranks_a = self._checked_rank_array(ranks_a)
        ranks_b = self._checked_rank_array(ranks_b)
        return self._regions[ranks_a] == self._regions[ranks_b]

    def locality_codes(self, ranks_a: np.ndarray,
                       ranks_b: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locality`, as an int64 array of ``Locality`` values.

        The unboxed form for bulk consumers (the traffic profiler's batch
        counters, a plan's modeled time): codes are :class:`Locality` integer values, so
        ``Locality(code)`` recovers the enum member.
        """
        ranks_a = self._checked_rank_array(ranks_a)
        ranks_b = self._checked_rank_array(ranks_b)
        return np.where(
            ranks_a == ranks_b, 0,
            np.where(self._nodes[ranks_a] != self._nodes[ranks_b], 3,
                     np.where(self._sockets[ranks_a] != self._sockets[ranks_b],
                              2, 1))).astype(np.int64)

    def _checked_rank_array(self, ranks) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size and (int(ranks.min()) < 0 or int(ranks.max()) >= self.n_ranks):
            raise TopologyError(f"rank out of range [0, {self.n_ranks})")
        return ranks

    # -- misc ---------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if rank < 0 or rank >= self.n_ranks:
            raise TopologyError(f"rank {rank} out of range [0, {self.n_ranks})")

    def describe(self) -> str:
        """Human-readable summary used by examples and reports."""
        return (
            f"{self.n_ranks} ranks on {self.machine.name} "
            f"({self.ranks_per_node}/node, {self.kind.value} placement, "
            f"{self._n_regions} {self.region_kind} regions)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankMapping({self.describe()})"


def check_mapping_covers(mapping: RankMapping, n_ranks: int,
                         what: str = "the pattern") -> None:
    """Reject a rank mapping smaller than the ``n_ranks`` it must place.

    Without this up-front guard the mismatch surfaces far from its cause:
    an out-of-range region lookup inside the aggregated planners, or a
    plan that builds and then fails in its statistics or a profiled round.
    The planner and the solve phase (``WorldSpMV``, ``WorldVCycle``) share
    it; ``what`` names what spans ``n_ranks`` in the message.
    """
    if mapping.n_ranks < n_ranks:
        raise ValidationError(
            f"mapping covers {mapping.n_ranks} ranks but {what} spans "
            f"{n_ranks}")
