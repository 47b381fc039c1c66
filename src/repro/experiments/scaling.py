"""Figures 12-13: strong and weak scaling of the SpMV communication.

At every scale the measured quantity is the sum over all AMG levels of the
SpMV communication cost.  Following Section 4.2, the optimized protocols use
the standard strategy on any level where it is cheaper ("summing up the least
expensive of standard communication and the given optimized neighbor collective
at each step"), which is the per-level selection the paper's future-work
discussion wants to automate.  The paper reports a 1.32x speedup (partial) plus
0.07x (full) at 2048 processes for strong scaling and 1.96x + 0.21x for weak
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence

from repro.amg.comm_analysis import hierarchy_comm_profiles
from repro.amg.hierarchy import build_hierarchy
from repro.collectives.plan import Variant
from repro.experiments.config import ExperimentConfig, ExperimentContext
from repro.perfmodel.params import lassen_parameters
from repro.sparse.generators import weak_scaling_problem
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError
from repro.utils.formatting import format_series

#: Labels used in the printed tables (matching the paper's legends).
_PROTOCOLS = {
    "standard_hypre": Variant.POINT_TO_POINT,
    "unoptimized_neighbor": Variant.STANDARD,
    "partially_optimized_neighbor": Variant.PARTIAL,
    "fully_optimized_neighbor": Variant.FULL,
}


@dataclass
class ScalingResult:
    """Total SpMV communication time per protocol over a range of scales."""

    mode: str
    process_counts: List[int]
    times: Dict[str, List[float]] = field(default_factory=dict)

    def speedup(self, protocol: str, *, baseline: str = "standard_hypre") -> List[float]:
        """Per-scale speedup of ``protocol`` over ``baseline``."""
        if protocol not in self.times or baseline not in self.times:
            raise ValidationError(f"unknown protocol {protocol!r}")
        return [b / t if t > 0 else float("inf")
                for b, t in zip(self.times[baseline], self.times[protocol])]

    def speedup_at_largest_scale(self, protocol: str) -> float:
        """Speedup over standard Hypre at the largest process count."""
        return self.speedup(protocol)[-1]

    def to_table(self) -> str:
        """Render the scaling series as a text table."""
        title = ("Figure 12: strong scaling, SpMV communication time (seconds)"
                 if self.mode == "strong"
                 else "Figure 13: weak scaling, SpMV communication time (seconds)")
        return format_series(self.times, self.process_counts,
                             x_label="processes", title=title)


def _protocol_times(level_times: Sequence[Dict[Variant, float]]) -> Dict[str, float]:
    """Sum the modeled per-level times; the optimized protocols fall back to
    standard on any level where it is cheaper."""
    totals: Dict[str, float] = {}
    for label, variant in _PROTOCOLS.items():
        total = 0.0
        for times in level_times:
            time = times[variant]
            if variant in (Variant.PARTIAL, Variant.FULL):
                time = min(time, times[Variant.STANDARD])
            total += time
        totals[label] = total
    return totals


def _scaling_result(mode: str, process_counts: Sequence[int],
                    profiles_at) -> ScalingResult:
    """One series point per process count: the protocol totals of
    ``profiles_at(n_ranks)``."""
    result = ScalingResult(mode=mode, process_counts=list(process_counts))
    for label in _PROTOCOLS:
        result.times[label] = []
    for n_ranks in process_counts:
        for label, total in _protocol_times(
                [profile.times for profile in profiles_at(n_ranks)]).items():
            result.times[label].append(total)
    return result


def run_strong_scaling(context: ExperimentContext) -> ScalingResult:
    """Reproduce Figure 12: fixed problem size, growing process count.

    The hierarchy is redistributed over every ``config.scaling_ranks``
    count, and each protocol's total is the sum of its modeled per-level
    times.  Measured counterparts are the module-level helpers of
    :mod:`repro.experiments.config`.
    """
    return _scaling_result(
        "strong", context.config.scaling_ranks,
        lambda n_ranks: context.redistributed(n_ranks).profiles)


@lru_cache(maxsize=8)
def _weak_setup(rows_per_rank: int, n_ranks: int, epsilon: float, theta: float,
                strength_theta: float, seed: int):
    """Memoized weak-scaling problem + hierarchy for one scale point.

    The AMG setup is a pure function of these parameters, and repeated figure
    sweeps (warm plan-cache runs, parameter studies that only vary the model)
    re-request the same scale points.  Callers must treat the returned
    hierarchy as read-only.
    """
    problem = weak_scaling_problem(rows_per_rank, n_ranks,
                                   epsilon=epsilon, theta=theta)
    hierarchy = build_hierarchy(problem.matrix, strength_theta=strength_theta,
                                seed=seed)
    return problem, hierarchy


def run_weak_scaling(config: ExperimentConfig) -> ScalingResult:
    """Reproduce Figure 13: fixed rows per process, growing process count.

    Every ``config.scaling_ranks`` count solves its own problem of
    ``config.weak_rows_per_rank`` rows per rank; totals are modeled as in
    :func:`run_strong_scaling`.
    """
    model = lassen_parameters(active_per_node=config.ranks_per_node)

    def profiles_at(n_ranks: int):
        _, hierarchy = _weak_setup(config.weak_rows_per_rank, n_ranks,
                                   config.epsilon, config.theta,
                                   config.strength_theta, config.seed)
        mapping = paper_mapping(n_ranks, ranks_per_node=config.ranks_per_node)
        return hierarchy_comm_profiles(hierarchy, mapping, model=model,
                                       strategy=config.strategy)

    return _scaling_result("weak", config.scaling_ranks, profiles_at)
