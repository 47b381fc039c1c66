"""MPI-Advance-style user API for persistent neighborhood collectives.

The entry point mirrors how an application uses MPI Advance, for a whole
simulated communicator at once:

1. describe the exchange as a :class:`~repro.pattern.CommPattern` — every
   rank's send map (for the fully optimized variant, with the item indices:
   the paper's proposed API extension);
2. call :func:`neighbor_alltoallv_init_world`, obtaining a persistent
   collective: the pattern is planned once, every rank's share is compiled
   into one world program and registered with an
   :class:`~repro.simmpi.engine.ExchangeEngine`;
3. call ``exchange`` every iteration with each rank's dense value array.

The exchange is dtype-generic: the pattern's ``dtype`` and ``item_size``
are the element type (e.g. ``random_pattern(..., dtype=np.float32,
item_size=9)`` for a D2Q9 lattice Boltzmann distribution halo) and
determine the wire size of every message.

Example (doctest): rank 0 sends items 0 and 1 to rank 1, rank 1 sends item 5
back, world-stepped.

>>> import numpy as np
>>> from repro.collectives import neighbor_alltoallv_init_world
>>> from repro.pattern import CommPattern
>>> from repro.topology import paper_mapping
>>> pattern = CommPattern(2, {0: {1: [0, 1]}, 1: {0: [5]}})
>>> mapping = paper_mapping(2, ranks_per_node=2)
>>> collective = neighbor_alltoallv_init_world(pattern, mapping,
...                                            variant="standard")
>>> collective.owned_item_ids(0)
array([0, 1])
>>> halos = collective.exchange([np.array([10.0, 11.0]), np.array([50.0])])
>>> halos[1]
array([10., 11.])
>>> halos[0]
array([50.])
"""

from __future__ import annotations

from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.persistent import WorldNeighborCollective
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.comm_pattern import CommPattern
from repro.simmpi.engine import ExchangeEngine
from repro.topology.mapping import RankMapping


def neighbor_alltoallv_init_world(pattern: CommPattern,
                                  mapping: RankMapping,
                                  *,
                                  variant: Variant | str = Variant.PARTIAL,
                                  strategy: BalanceStrategy = BalanceStrategy.BYTES,
                                  engine: ExchangeEngine | None = None,
                                  runtime: str | None = None,
                                  n_workers: int | None = None,
                                  vector_length: int | None = None
                                  ) -> WorldNeighborCollective:
    """Initialise a world-stepped persistent neighborhood all-to-all-v.

    Takes the global ``pattern`` (every rank's send map), plans it once
    (``variant`` standard / partial / full, or point_to_point for the
    Hypre-style reference; ``strategy`` balances the aggregated variants),
    compiles *every* rank's share into one world program, and registers it
    with a world :class:`~repro.simmpi.engine.ExchangeEngine` — so one
    ``exchange`` call moves a whole iteration for all ranks with O(phases)
    numpy calls.

    The element type is the pattern's (``pattern.dtype`` ×
    ``pattern.item_size``), so the plan's byte counts are what the exchange
    moves.  Pass an ``engine`` — the execution configuration: runtime,
    workers and traffic profiler — to share it across collectives; without
    one, ``runtime`` / ``n_workers`` select the private engine's backend
    (``"engine"`` single-process, ``"procs"`` shared-memory worker pool).
    ``vector_length`` registers the exchange on the caller's vector.
    """
    plan = make_plan(pattern, mapping, variant, strategy=strategy)
    return WorldNeighborCollective(plan, engine=engine, runtime=runtime,
                                   n_workers=n_workers,
                                   vector_length=vector_length)
