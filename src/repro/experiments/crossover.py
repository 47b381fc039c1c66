"""Figure 7: initialisation cost amortisation and crossover iteration counts.

For every protocol the figure plots ``init cost + N x per-iteration cost`` over
a range of iteration counts N (init = one graph creation plus one
``MPI_Neighbor_alltoallv_init`` per AMG level; iteration = one Start/Wait per
level).  The paper reports crossovers versus standard Hypre at ~40 iterations
for the partially optimized and ~22 for the fully optimized implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.collectives.autotune import DecisionEvent
from repro.collectives.plan import Variant
from repro.experiments.config import ALL_VARIANTS, ExperimentContext
from repro.utils.formatting import format_series

#: Series key of the per-level auto commit in the result dicts (a plain
#: string next to the :class:`Variant` keys of the fixed protocols).
AUTO_SERIES = "auto"


def _series_label(variant) -> str:
    return variant.value if isinstance(variant, Variant) else str(variant)


@dataclass
class CrossoverResult:
    """Total cost series per protocol and the derived crossover points.

    When the ``"auto"`` series was requested its dict keys are the plain
    string ``"auto"`` (the per-level commit is a policy over the variants,
    not a protocol), and :attr:`decision_trace` holds each level's commit
    and why, one event per level.
    """

    iteration_counts: List[int]
    init_costs: Dict[Variant, float]
    per_iteration: Dict[Variant, float]
    totals: Dict[Variant, List[float]] = field(default_factory=dict)
    crossovers: Dict[Variant, Optional[int]] = field(default_factory=dict)
    decision_trace: Optional[Tuple[DecisionEvent, ...]] = None

    def to_table(self) -> str:
        """Render the cost-vs-iterations series as a text table."""
        series = {_series_label(variant): values
                  for variant, values in self.totals.items()}
        table = format_series(series, self.iteration_counts, x_label="iterations",
                              title="Figure 7: init + N iterations cost (seconds)")
        lines = [table, ""]
        for variant, crossover in self.crossovers.items():
            label = "never within range" if crossover is None else f"{crossover} iterations"
            lines.append(f"crossover vs standard Hypre ({_series_label(variant)}): {label}")
        return "\n".join(lines)


def _initialisation_costs(context: ExperimentContext) -> Dict[Variant, float]:
    """Per-protocol one-time cost of ``MPI_Neighbor_alltoallv_init`` per level.

    Figure 7's caption counts one ``*_init`` call per level plus Start/Wait per
    iteration; the topology-communicator creation of Figure 6 is a separate
    cost and is excluded, as in the paper.  The standard neighborhood
    collective's init simply wraps persistent point-to-point setup, so it
    only pays the base cost.
    """
    init = {Variant.POINT_TO_POINT: 0.0, Variant.STANDARD: 0.0,
            Variant.PARTIAL: 0.0, Variant.FULL: 0.0}
    for profile in context.profiles:
        # Standard neighbor init: wrapping point-to-point persistent setup.
        init[Variant.STANDARD] += context.setup_model.base
        full_setup = context.setup_model.cost(*profile.plans[Variant.FULL].setup_costs())
        partial_setup = context.setup_model.cost(
            *profile.plans[Variant.PARTIAL].setup_costs())
        # The partially optimized implementation wraps the fully optimized one
        # (it re-expands the duplicate values), so its initialisation pays for
        # both; the fully optimized init pays only for itself.
        init[Variant.FULL] += full_setup
        init[Variant.PARTIAL] += full_setup + partial_setup
    return init


def run_crossover(context: ExperimentContext, *,
                  auto: bool = False) -> CrossoverResult:
    """Reproduce Figure 7 for the configured problem and scale.

    The iteration counts are ``config.crossover_iterations``, and the
    per-iteration cost of every protocol is the sum of its modeled per-level
    Start+Wait times (``profile.times``).  Measured counterparts are the
    module-level helpers :func:`~repro.experiments.config.measured_level_times`
    (one world-stepped exchange round per level) and
    :func:`~repro.experiments.config.measured_cycle_times` (one whole
    executed V-cycle).

    ``auto=True`` adds one series beside the four fixed protocols (always
    computed — they are the figure's frame of reference): ``"auto"``, every
    level on the variant ``WorldVCycle(variant="auto")`` commits
    (:attr:`~repro.experiments.config.ExperimentContext.decisions`), priced
    at the same ``A``-pattern times the fixed series use, with the
    decisions on the result.  The coarsest level's commit prices its
    gather, so there it need not be the cheapest ``A`` time.  Its init is
    every candidate's planning, ``init[standard] + init[partial]`` (the
    partial init already performs the full setup it wraps).
    """
    iteration_counts = list(context.config.crossover_iterations)
    init_costs = _initialisation_costs(context)
    level_times = [profile.times for profile in context.profiles]
    per_iteration = {
        variant: sum(times[variant] for times in level_times)
        for variant in ALL_VARIANTS
    }
    decisions: Optional[Tuple[DecisionEvent, ...]] = None
    if auto:
        decisions = context.decisions
        per_iteration[AUTO_SERIES] = sum(
            times[Variant(decision.variant)]
            for times, decision in zip(level_times, decisions))
        init_costs[AUTO_SERIES] = init_costs[Variant.STANDARD] + \
            init_costs[Variant.PARTIAL]

    result = CrossoverResult(iteration_counts=iteration_counts,
                             init_costs=init_costs, per_iteration=per_iteration,
                             decision_trace=decisions)
    for variant in per_iteration:
        result.totals[variant] = [
            init_costs[variant] + n * per_iteration[variant] for n in iteration_counts
        ]

    # Crossover: first iteration count at which a variant's total cost drops
    # below standard Hypre's (point-to-point, no init cost).
    baseline = per_iteration[Variant.POINT_TO_POINT]
    for variant in per_iteration:
        if variant == Variant.POINT_TO_POINT:
            continue
        crossover: Optional[int] = None
        delta_per_iter = baseline - per_iteration[variant]
        if delta_per_iter > 0:
            needed = init_costs[variant] / delta_per_iter
            crossover = int(needed) + 1 if needed >= 0 else 0
        result.crossovers[variant] = crossover
    return result
