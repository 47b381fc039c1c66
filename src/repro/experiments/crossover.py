"""Figure 7: initialisation cost amortisation and crossover iteration counts.

For every protocol the figure plots ``init cost + N x per-iteration cost`` over
a range of iteration counts N (init = one graph creation plus one
``MPI_Neighbor_alltoallv_init`` per AMG level; iteration = one Start/Wait per
level).  The paper reports crossovers versus standard Hypre at ~40 iterations
for the partially optimized and ~22 for the fully optimized implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.collectives.autotune import (
    DecisionTrace,
    is_auto_variant,
    simulate_modeled_auto,
)
from repro.collectives.plan import Variant
from repro.experiments.config import ALL_VARIANTS, ExperimentConfig, ExperimentContext
from repro.pattern.statistics import average_neighbors
from repro.perfmodel.params import GraphCreationModel, graph_creation_model
from repro.utils.errors import ValidationError
from repro.utils.formatting import format_series

#: Series key of the online-autotuned protocol in the result dicts (a plain
#: string next to the :class:`Variant` keys of the fixed protocols).
AUTO_SERIES = "auto"


def _series_label(variant) -> str:
    return variant.value if isinstance(variant, Variant) else str(variant)


@dataclass
class CrossoverResult:
    """Total cost series per protocol and the derived crossover points.

    When the ``"auto"`` series was requested its dict keys are the plain
    string ``"auto"`` (online selection is a policy over the variants, not
    a protocol), its totals include the probe overhead of every cycle the
    selector spent measuring, and :attr:`decision_trace` records why each
    level ended up on its variant.
    """

    iteration_counts: List[int]
    init_costs: Dict[Variant, float]
    per_iteration: Dict[Variant, float]
    totals: Dict[Variant, List[float]] = field(default_factory=dict)
    crossovers: Dict[Variant, Optional[int]] = field(default_factory=dict)
    decision_trace: Optional[DecisionTrace] = None

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


def _initialisation_costs(context: ExperimentContext,
                          graph_model: GraphCreationModel,
                          *, include_graph_creation: bool = False
                          ) -> Dict[Variant, float]:
    """Per-protocol one-time cost of ``MPI_Neighbor_alltoallv_init`` per level.

    Figure 7's caption counts one ``*_init`` call per level plus Start/Wait per
    iteration; the topology-communicator creation of Figure 6 is a separate
    cost and is excluded by default (``include_graph_creation=False``), as in
    the paper.  The standard neighborhood collective's init simply wraps
    persistent point-to-point setup, so it only pays the base cost.
    """
    config = context.config
    init = {Variant.POINT_TO_POINT: 0.0, Variant.STANDARD: 0.0,
            Variant.PARTIAL: 0.0, Variant.FULL: 0.0}
    for profile in context.profiles:
        if include_graph_creation:
            neighbors = average_neighbors(profile.pattern,
                                          profile.pattern.active_ranks().tolist())
            graph_cost = graph_model.cost(config.n_ranks, neighbors)
            for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
                init[variant] += graph_cost
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


def _add_auto_series(result: CrossoverResult,
                     level_times: List[Dict[Variant, float]],
                     window: int) -> None:
    """Simulate the online selector on the per-level times and add its series.

    The auto run registers every candidate variant up front; in the
    initialisation model that costs the standard init plus the partially
    optimized init (which already performs the fully optimized setup it
    wraps), so nothing is double-counted.  Totals come from the simulated
    per-cycle costs — probe windows execute whatever variant they measure,
    so the early iterations carry the real exploration overhead.
    """
    max_n = max(result.iteration_counts) if result.iteration_counts else 0
    sim = simulate_modeled_auto(level_times, window=window,
                                n_cycles=max(max_n, 3 * window + 1))
    init_auto = result.init_costs[Variant.STANDARD] + \
        result.init_costs[Variant.PARTIAL]
    result.init_costs[AUTO_SERIES] = init_auto
    result.per_iteration[AUTO_SERIES] = sim.steady_per_iteration
    result.totals[AUTO_SERIES] = [init_auto + sim.cumulative[n]
                                  for n in result.iteration_counts]
    result.decision_trace = sim.trace

    baseline = result.per_iteration[Variant.POINT_TO_POINT]
    crossover: Optional[int] = None
    horizon = len(sim.cumulative) - 1
    for n in range(1, horizon + 1):
        if init_auto + sim.cumulative[n] < baseline * n:
            crossover = n
            break
    if crossover is None and baseline > sim.steady_per_iteration:
        # Beyond the simulated horizon the series is linear at steady state.
        overhead = init_auto + sim.cumulative[horizon] \
            - horizon * sim.steady_per_iteration
        needed = int(overhead / (baseline - sim.steady_per_iteration)) + 1
        crossover = max(needed, horizon + 1)
    result.crossovers[AUTO_SERIES] = crossover


def run_crossover(context: ExperimentContext | None = None, *,
                  config: ExperimentConfig | None = None,
                  mpi_implementation: str = "spectrum",
                  iteration_counts: Sequence[int] | None = None,
                  use_measured_iteration: bool = False,
                  solve_phase: bool = False,
                  runtime: str | None = None,
                  variants: Sequence[Variant | str] | None = None,
                  autotune_window: int = 3) -> CrossoverResult:
    """Reproduce Figure 7 for the configured problem and scale.

    With ``use_measured_iteration=True`` the per-iteration cost of every
    protocol is *measured* — one world-stepped exchange round per level
    through the batched engine
    (:meth:`ExperimentContext.measured_level_times`) — instead of taken from
    the locality-aware network model.  Measured numbers are this machine's
    Python execution cost, not Lassen network time, so the resulting
    crossovers characterise the simulator itself.

    With ``solve_phase=True`` (which supersedes ``use_measured_iteration``)
    an iteration is one *whole executed V-cycle* — every level's smoother
    sweeps, residual SpMV, grid transfers, and the coarse gather, stepped
    through the exchange engine
    (:meth:`ExperimentContext.measured_cycle_times`) — so the crossover is
    computed against real solve-phase execution rather than summed exchange
    rounds.

    ``runtime`` selects the measuring backend for either flag (``"engine"``
    serial staged kernels or ``"procs"`` shared-memory worker pool).

    ``variants`` requests additional series beyond the four fixed protocols
    (always computed — they are the figure's frame of reference): the only
    recognised addition is ``"auto"``, the online per-level selector of
    :mod:`repro.collectives.autotune` replayed deterministically on the
    same per-level times the fixed series use, with probe overhead in its
    totals and its :class:`~repro.collectives.autotune.DecisionTrace` on
    the result.  ``autotune_window`` sizes its probe windows.  The auto
    series needs a per-level time decomposition, so it cannot be combined
    with ``solve_phase=True`` (whole-cycle measurements only).
    """
    if context is None:
        context = ExperimentContext.build(config or ExperimentConfig.from_environment())
    config = context.config
    iteration_counts = list(iteration_counts if iteration_counts is not None
                            else config.crossover_iterations)
    graph_model = graph_creation_model(mpi_implementation)
    requested = list(variants) if variants is not None else []
    auto_requested = any(is_auto_variant(entry) for entry in requested)
    for entry in requested:
        if not is_auto_variant(entry):
            Variant(entry)
    if auto_requested and solve_phase:
        raise ValidationError(
            "the auto series needs per-level times; solve_phase=True "
            "measures whole cycles only"
        )

    init_costs = _initialisation_costs(context, graph_model)
    level_times: List[Dict[Variant, float]] | None = None
    if solve_phase:
        per_iteration = dict(context.measured_cycle_times(runtime=runtime))
    else:
        level_times = (context.measured_level_times(runtime=runtime)
                       if use_measured_iteration
                       else [profile.times for profile in context.profiles])
        per_iteration = {
            variant: sum(times[variant] for times in level_times)
            for variant in ALL_VARIANTS
        }

    result = CrossoverResult(iteration_counts=iteration_counts,
                             init_costs=init_costs, per_iteration=per_iteration)
    for variant in per_iteration:
        result.totals[variant] = [
            init_costs[variant] + n * per_iteration[variant] for n in iteration_counts
        ]

    # Crossover: first iteration count at which a variant's total cost drops
    # below standard Hypre's (point-to-point, no init cost).
    baseline = per_iteration[Variant.POINT_TO_POINT]
    for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
        crossover: Optional[int] = None
        delta_per_iter = baseline - per_iteration[variant]
        if delta_per_iter > 0:
            needed = init_costs[variant] / delta_per_iter
            crossover = int(needed) + 1 if needed >= 0 else 0
        result.crossovers[variant] = crossover

    if auto_requested:
        _add_auto_series(result, level_times, autotune_window)
    return result
