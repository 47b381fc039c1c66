"""Per-level communication analysis of an AMG hierarchy.

Everything the paper's Figures 8-13 plot starts here: for each level of the
hierarchy, extract the SpMV communication pattern of the level's distributed
operator and (optionally) build the plans of every collective variant, their
message-count/size statistics, and their modeled Start+Wait times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.amg.hierarchy import AMGHierarchy
from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.plan import CollectivePlan, Variant
from repro.collectives.planner import all_plans
from repro.pattern.comm_pattern import CommPattern
from repro.pattern.statistics import PatternStatistics
from repro.perfmodel.base import CostModel
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.topology.mapping import RankMapping
from repro.utils.errors import ValidationError


def level_patterns(hierarchy: AMGHierarchy) -> List[CommPattern]:
    """The SpMV communication pattern of every level of the hierarchy."""
    return [pattern_from_parcsr(level.matrix) for level in hierarchy.levels]


@dataclass
class TransferPatterns:
    """Grid-transfer communication patterns between one level and the next.

    ``prolong`` is the halo pattern of ``P @ x_coarse`` (coarse vector
    entries moving to fine-side owners), ``restrict`` that of ``Pᵀ @ r_fine``
    (fine residual entries moving to coarse-side owners) — the per-level
    patterns the world-stepped V-cycle registers alongside the ``A``-level
    halo patterns.
    """

    level: int
    prolong: CommPattern
    restrict: CommPattern


def level_transfer_patterns(hierarchy: AMGHierarchy) -> List[TransferPatterns]:
    """The grid-transfer patterns of every non-coarsest level."""
    return [TransferPatterns(
                level=index,
                prolong=pattern_from_parcsr(hierarchy.prolongation_matrix(index)),
                restrict=pattern_from_parcsr(hierarchy.restriction_matrix(index)))
            for index in range(hierarchy.n_levels - 1)]


@dataclass
class LevelCommProfile:
    """Plans, statistics, and modeled times of one AMG level."""

    level: int
    n_rows: int
    pattern: CommPattern
    plans: Dict[Variant, CollectivePlan]
    statistics: Dict[Variant, PatternStatistics] = field(default_factory=dict)
    times: Dict[Variant, float] = field(default_factory=dict)


def hierarchy_comm_profiles(hierarchy: AMGHierarchy, mapping: RankMapping, *,
                            model: Optional[CostModel] = None,
                            strategy: BalanceStrategy = BalanceStrategy.BYTES
                            ) -> List[LevelCommProfile]:
    """Build a :class:`LevelCommProfile` for every level of ``hierarchy``.

    Parameters
    ----------
    model:
        When given, modeled Start+Wait times per variant are attached.
    """
    if mapping.n_ranks < hierarchy.levels[0].matrix.n_ranks:
        raise ValidationError("mapping has fewer ranks than the hierarchy's partition")
    patterns = level_patterns(hierarchy)
    profiles: List[LevelCommProfile] = []
    for level, pattern in zip(hierarchy.levels, patterns):
        plans = all_plans(pattern, mapping, strategy=strategy)
        statistics = {variant: plan.statistics() for variant, plan in plans.items()}
        times = {variant: plan.modeled_time(model) for variant, plan in plans.items()} \
            if model is not None else {}
        profiles.append(LevelCommProfile(level=level.index, n_rows=level.n_rows,
                                         pattern=pattern, plans=plans,
                                         statistics=statistics, times=times))
    return profiles
