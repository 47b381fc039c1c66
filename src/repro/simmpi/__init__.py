"""A functional, in-process simulated MPI runtime.

The real system in the paper runs on thousands of MPI ranks; this package
executes the neighborhood collectives of :mod:`repro.collectives` for a whole
simulated communicator at once, so their data movement can be verified for
correctness.  One :class:`ExchangeEngine` runs every registered world program
(:func:`~repro.collectives.exchange.compile_world_exchange`) a phase at a
time for all ranks — in the parent process (``runtime="engine"``) or on a
supervised shared-memory worker pool (``runtime="procs"``) — and accounts
every message it stands for with a :class:`TrafficProfiler`.  The runtime is
about *data movement correctness*, never about wall-clock speed of a real
network (timings come from :mod:`repro.perfmodel`).

Typical use::

    from repro.collectives import neighbor_alltoallv_init_world
    from repro.simmpi import ExchangeEngine, TrafficProfiler

    engine = ExchangeEngine(pattern.n_ranks, profiler=TrafficProfiler(mapping))
    collective = neighbor_alltoallv_init_world(pattern, mapping, engine=engine)
    halos = collective.exchange(owned_values_per_rank)
"""

from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.procs import ProcsPool, RecoveryEvent, default_worker_count
from repro.simmpi.profiler import TrafficProfiler

__all__ = [
    "ExchangeEngine",
    "ProcsPool",
    "RecoveryEvent",
    "default_worker_count",
    "TrafficProfiler",
]
