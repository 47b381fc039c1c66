"""Figures 8-11: per-level communication behaviour of the AMG hierarchy.

* Figure 8 — max number of intra-region ("local") messages per process,
  standard vs locality-optimized.
* Figure 9 — max number of inter-region ("global") messages per process.
* Figure 10 — max inter-region bytes per process, partially vs fully optimized
  (the duplicate-removal saving; the paper reports up to 35% on level 4).
* Figure 11 — modeled Start+Wait time of the SpMV communication on every
  level for all four protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.collectives.autotune import DecisionEvent
from repro.collectives.plan import CollectivePlan, Variant
from repro.experiments.config import ExperimentContext
from repro.pattern.statistics import PatternStatistics
from repro.utils.formatting import format_series


@dataclass
class PerLevelResult:
    """All per-level series of Figures 8-11.

    ``times`` includes the ``"auto_selected"`` series — the per-level
    ``A``-pattern time of the variant ``WorldVCycle(variant="auto")``
    commits on that level
    (:attr:`~repro.experiments.config.ExperimentContext.decisions`) — with
    :attr:`decision_trace` justifying each level's commit.  The coarsest
    level's commit prices its gather, not the ``A`` pattern plotted here.
    """

    levels: List[int]
    rows_per_level: List[int]
    local_messages: Dict[str, List[int]] = field(default_factory=dict)
    global_messages: Dict[str, List[int]] = field(default_factory=dict)
    global_bytes: Dict[str, List[int]] = field(default_factory=dict)
    times: Dict[str, List[float]] = field(default_factory=dict)
    decision_trace: Optional[Tuple[DecisionEvent, ...]] = None

    # -- derived headline numbers -------------------------------------------------

    def max_dedup_saving(self) -> float:
        """Largest per-level relative reduction of max inter-region bytes (Fig. 10)."""
        best = 0.0
        for partial, full in zip(self.global_bytes["partially_optimized"],
                                 self.global_bytes["fully_optimized"]):
            if partial > 0:
                best = max(best, 1.0 - full / partial)
        return best

    def table_fig8(self) -> str:
        """Figure 8 series."""
        return format_series(self.local_messages, self.levels, x_label="level",
                             title="Figure 8: max intra-region messages per process",
                             value_format="{:.0f}")

    def table_fig9(self) -> str:
        """Figure 9 series."""
        return format_series(self.global_messages, self.levels, x_label="level",
                             title="Figure 9: max inter-region messages per process",
                             value_format="{:.0f}")

    def table_fig10(self) -> str:
        """Figure 10 series."""
        return format_series(self.global_bytes, self.levels, x_label="level",
                             title="Figure 10: max inter-region bytes per process",
                             value_format="{:.0f}")

    def table_fig11(self) -> str:
        """Figure 11 series."""
        return format_series(self.times, self.levels, x_label="level",
                             title="Figure 11: SpMV communication time per level (seconds)")


def executed_statistics(plan: CollectivePlan) -> PatternStatistics:
    """Statistics *observed* by executing one world-stepped exchange round.

    Runs the plan through the batched
    :class:`~repro.simmpi.engine.ExchangeEngine` with a traffic profiler
    attached and folds the profiler's bulk data-path counters into the same
    :class:`PatternStatistics` container the planner produces.  The planner's
    prediction and the engine's observation must agree exactly — the
    equivalence tests pin it — so Figures 8-10 can be regenerated from real
    executed traffic rather than from plan metadata.
    """
    from repro.collectives.persistent import WorldNeighborCollective
    from repro.simmpi.engine import ExchangeEngine
    from repro.simmpi.profiler import TrafficProfiler

    profiler = TrafficProfiler(plan.mapping)
    with ExchangeEngine(plan.pattern.n_ranks, profiler=profiler) as engine, \
            WorldNeighborCollective(plan, engine=engine) as collective:
        n_owned = int(collective.world.owned_offsets[-1])
        collective.exchange(np.zeros((n_owned, collective.item_size),
                                     dtype=collective.dtype))
    sources, dests, nbytes = profiler.data_columns()
    stats = PatternStatistics(n_ranks=plan.pattern.n_ranks)
    if sources.size:
        stats.add_messages(sources, plan.mapping.same_region_many(sources, dests),
                           nbytes)
    return stats


def executed_cycle_statistics(hierarchy, mapping, variant: Variant | str
                              ) -> List[PatternStatistics]:
    """Per-level statistics observed by executing one whole world-stepped V-cycle.

    Builds a :class:`~repro.amg.vcycle.WorldVCycle` on one engine per
    hierarchy level, each with its own
    :class:`~repro.simmpi.profiler.TrafficProfiler`, runs
    a single cycle (smoother sweeps, residual SpMV, grid transfers, and the
    coarse gather all through the exchange engine), and folds each level's
    bulk data-path counters into a :class:`PatternStatistics`.  Unlike
    :func:`executed_statistics` — one exchange round of the ``A`` pattern —
    these numbers are the *solve-phase* traffic of the level: every halo
    exchange the V-cycle actually performs there.
    """
    from repro.amg.vcycle import WorldVCycle
    from repro.simmpi.engine import ExchangeEngine
    from repro.simmpi.profiler import TrafficProfiler

    n_ranks = hierarchy.levels[0].matrix.n_ranks
    engines = [ExchangeEngine(n_ranks, profiler=TrafficProfiler(mapping))
               for _ in range(hierarchy.n_levels)]
    try:
        vcycle = WorldVCycle(hierarchy, mapping, variant=variant,
                             engine=engines)
        n = vcycle.n_rows
        vcycle.cycle(np.ones(n, dtype=np.float64), np.zeros(n, dtype=np.float64))
    finally:
        for engine in engines:
            engine.close()
    per_level: List[PatternStatistics] = []
    for engine in engines:
        sources, dests, nbytes = engine.profiler.data_columns()
        stats = PatternStatistics(n_ranks=n_ranks)
        if sources.size:
            stats.add_messages(sources, mapping.same_region_many(sources, dests),
                               nbytes)
        per_level.append(stats)
    return per_level


def run_per_level(context: ExperimentContext) -> PerLevelResult:
    """Reproduce the per-level analysis of Section 4.1 (Figures 8-11).

    The message/byte series of Figures 8-10 are the planner's statistics of
    every level's plans.  The executed traffic equals them exactly (the
    equivalence tests pin it): :func:`executed_statistics` observes one
    world-stepped exchange round of a plan, :func:`executed_cycle_statistics`
    every level's traffic of one whole V-cycle.
    """
    profiles = context.profiles

    result = PerLevelResult(levels=[p.level for p in profiles],
                            rows_per_level=[p.n_rows for p in profiles])
    std = [p.statistics[Variant.STANDARD] for p in profiles]
    par = [p.statistics[Variant.PARTIAL] for p in profiles]
    ful = [p.statistics[Variant.FULL] for p in profiles]

    result.local_messages = {
        "standard_local": [s.max_local_messages for s in std],
        "optimized_local": [s.max_local_messages for s in par],
    }
    result.global_messages = {
        "standard_global": [s.max_global_messages for s in std],
        "optimized_global": [s.max_global_messages for s in par],
    }
    result.global_bytes = {
        "partially_optimized": [s.max_global_bytes for s in par],
        "fully_optimized": [s.max_global_bytes for s in ful],
    }
    result.times = {
        "standard_hypre": [p.times[Variant.POINT_TO_POINT] for p in profiles],
        "unoptimized_neighbor": [p.times[Variant.STANDARD] for p in profiles],
        "partially_optimized_neighbor": [p.times[Variant.PARTIAL] for p in profiles],
        "fully_optimized_neighbor": [p.times[Variant.FULL] for p in profiles],
    }
    # Figure 11's future-work overlay: the per-level variant the solver's
    # auto commit runs, one entry per level like every other series, with
    # the decision record attached.
    decisions = context.decisions
    result.times["auto_selected"] = [
        float(profile.times[Variant(decision.variant)])
        for profile, decision in zip(profiles, decisions)
    ]
    result.decision_trace = decisions
    return result
