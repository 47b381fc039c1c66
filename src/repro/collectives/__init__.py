"""Persistent neighborhood collectives with locality-aware aggregation.

This package is the reproduction of the paper's core contribution:

* :mod:`repro.collectives.planner` — pure planners turning a communication
  pattern plus rank mapping into explicit message schedules for the standard
  (Section 3.1), partially optimized (Section 3.2, three-step aggregation) and
  fully optimized (Section 3.3, duplicate removal) variants;
* :mod:`repro.collectives.persistent` — a per-rank persistent handle that
  executes any plan on the simulated MPI runtime (init / start / wait);
* :mod:`repro.collectives.api` — the MPI-Advance-style entry points
  applications call;
* :mod:`repro.collectives.selection` — model-driven dynamic selection of the
  cheapest variant (the paper's future-work extension);
* :mod:`repro.collectives.autotune` — the *online* half of that future work:
  measured probe windows per level, empirical commits, and an auditable
  decision trace.
"""

from repro.collectives.plan import (
    Variant,
    Phase,
    Slot,
    SlotTable,
    PlannedMessage,
    CollectivePlan,
    AGGREGATED_PHASES,
    TERMINAL_PHASES,
)
from repro.collectives.aggregation import (
    BalanceStrategy,
    AggregationAssignment,
    setup_aggregation,
    collect_region_traffic,
)
from repro.collectives.dedup import (
    unique_payload_keys,
    unique_pairs_first_appearance,
    duplicate_item_count,
    dedup_savings_fraction,
    group_slots_by_final_dest,
)
from repro.collectives.planner import (
    plan_standard,
    plan_partial,
    plan_full,
    make_plan,
    all_plans,
)
from repro.collectives.exchange import (
    ExchangeSpec,
    CompiledExchange,
    CompiledPhase,
    WorldExchange,
    WorldPhaseProgram,
    compile_exchange,
    compile_world_exchange,
)
from repro.collectives.plan_cache import (
    PlanCacheWarning,
    clear_plan_cache,
    plan_cache_stats,
)
from repro.collectives.kernels import KernelBackend, active_backend
from repro.collectives.persistent import (
    PersistentNeighborCollective,
    WorldNeighborCollective,
)
from repro.collectives.api import (
    CollectiveRequest,
    neighbor_alltoallv_init,
    neighbor_alltoallv_init_many,
    neighbor_alltoallv_init_world,
    neighbor_alltoallv,
)
from repro.collectives.selection import SelectionResult, select_variant, best_per_pattern
from repro.collectives.autotune import (
    AUTO_VARIANT,
    DEFAULT_CANDIDATES,
    TRACE_SCHEMA_VERSION,
    AutoSimulation,
    DecisionEvent,
    DecisionTrace,
    FixedStepClock,
    OnlineSelector,
    is_auto_variant,
    simulate_modeled_auto,
)

__all__ = [
    "Variant",
    "Phase",
    "Slot",
    "SlotTable",
    "PlannedMessage",
    "CollectivePlan",
    "AGGREGATED_PHASES",
    "TERMINAL_PHASES",
    "BalanceStrategy",
    "AggregationAssignment",
    "setup_aggregation",
    "collect_region_traffic",
    "unique_payload_keys",
    "unique_pairs_first_appearance",
    "duplicate_item_count",
    "dedup_savings_fraction",
    "group_slots_by_final_dest",
    "plan_standard",
    "plan_partial",
    "plan_full",
    "make_plan",
    "all_plans",
    "ExchangeSpec",
    "CompiledExchange",
    "CompiledPhase",
    "WorldExchange",
    "WorldPhaseProgram",
    "compile_exchange",
    "compile_world_exchange",
    "PlanCacheWarning",
    "clear_plan_cache",
    "plan_cache_stats",
    "KernelBackend",
    "active_backend",
    "PersistentNeighborCollective",
    "WorldNeighborCollective",
    "CollectiveRequest",
    "neighbor_alltoallv_init",
    "neighbor_alltoallv_init_many",
    "neighbor_alltoallv_init_world",
    "neighbor_alltoallv",
    "SelectionResult",
    "select_variant",
    "best_per_pattern",
    "AUTO_VARIANT",
    "DEFAULT_CANDIDATES",
    "TRACE_SCHEMA_VERSION",
    "AutoSimulation",
    "DecisionEvent",
    "DecisionTrace",
    "FixedStepClock",
    "OnlineSelector",
    "is_auto_variant",
    "simulate_modeled_auto",
]
