"""Persistent neighborhood collectives with locality-aware aggregation.

This package is the reproduction of the paper's core contribution:

* :mod:`repro.collectives.planner` — pure planners turning a communication
  pattern plus rank mapping into explicit message schedules for the standard
  (Section 3.1), partially optimized (Section 3.2, three-step aggregation) and
  fully optimized (Section 3.3, duplicate removal) variants;
* :mod:`repro.collectives.exchange` — the compiler from a plan to the world
  program the :class:`~repro.simmpi.engine.ExchangeEngine` runs;
* :mod:`repro.collectives.persistent` — a persistent world-stepped handle
  that executes any plan for every rank at once (init / exchange);
* :mod:`repro.collectives.api` — the MPI-Advance-style entry point
  applications call;
* :mod:`repro.collectives.selection` — model-driven dynamic selection of the
  cheapest variant (the paper's future-work extension);
* :mod:`repro.collectives.autotune` — per-level selection for a whole
  hierarchy: the one selection rule (each level commits its modeled
  argmin, ties broken on candidate order) behind ``variant="auto"`` and
  the drivers' ``auto`` series, and the event that says why a level runs
  its variant.
"""

from repro.collectives.plan import (
    Variant,
    Phase,
    SlotTable,
    CollectivePlan,
    AGGREGATED_PHASES,
)
from repro.collectives.aggregation import (
    BalanceStrategy,
    AggregationAssignment,
    setup_aggregation,
)
from repro.collectives.planner import (
    plan_partial,
    make_plan,
    all_plans,
)
from repro.collectives.exchange import (
    ExchangeSpec,
    WorldExchange,
    WorldPhaseProgram,
    compile_world_exchange,
)
from repro.collectives.plan_cache import (
    clear_plan_cache,
    plan_cache_stats,
)
from repro.collectives.kernels import active_backend
from repro.collectives.persistent import WorldNeighborCollective
from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.selection import select_variant

__all__ = [
    "Variant",
    "Phase",
    "SlotTable",
    "CollectivePlan",
    "AGGREGATED_PHASES",
    "BalanceStrategy",
    "AggregationAssignment",
    "setup_aggregation",
    "plan_partial",
    "make_plan",
    "all_plans",
    "ExchangeSpec",
    "WorldExchange",
    "WorldPhaseProgram",
    "compile_world_exchange",
    "clear_plan_cache",
    "plan_cache_stats",
    "active_backend",
    "WorldNeighborCollective",
    "neighbor_alltoallv_init_world",
    "select_variant",
]
