"""Experiment configuration and shared context.

The paper's configuration (524 288 rows on 2048 ranks, 16 ranks per node on
Lassen) takes minutes of setup in pure Python, so the default configuration is
a proportionally reduced version of the same problem family that preserves the
region structure (16 ranks per node) and therefore the figure shapes.  The
full-size configuration is available through :meth:`ExperimentConfig.paper`
or by setting the ``REPRO_PAPER_SCALE=1`` environment variable.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.amg.comm_analysis import LevelCommProfile, hierarchy_comm_profiles
from repro.amg.hierarchy import AMGHierarchy, build_hierarchy, redistribute_hierarchy
from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.persistent import WorldNeighborCollective
from repro.collectives.plan import Variant
from repro.perfmodel.base import CostModel
from repro.perfmodel.params import SetupCostModel, lassen_parameters
from repro.sparse.generators import strong_scaling_problem
from repro.topology.mapping import RankMapping
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

#: Protocol order shared by the measured-execution helpers.
ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)


def measured_level_times(profiles: Sequence[LevelCommProfile], *,
                         variants: Sequence[Variant] = ALL_VARIANTS,
                         iterations: int = 3,
                         runtime: str | None = None
                         ) -> List[Dict[Variant, float]]:
    """Wall-clock seconds of one world-stepped exchange round, per level and variant.

    The *measured* counterpart of ``profile.times`` (which holds modeled
    network times): every level's plan is compiled into a world exchange and
    executed through the batched
    :class:`~repro.simmpi.engine.ExchangeEngine`; the best of ``iterations``
    rounds is recorded.  This is what "switching the experiment drivers onto
    the world-stepped API" means operationally — the drivers can ask for real
    execution cost at figure scale, which the envelope-routed runtime made
    impractical beyond a few dozen ranks.  ``runtime="procs"`` measures the
    same exchanges through the shared-memory worker pool.
    """
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    times: List[Dict[Variant, float]] = []
    for profile in profiles:
        per_variant: Dict[Variant, float] = {}
        for variant in variants:
            with WorldNeighborCollective(profile.plans[variant],
                                         runtime=runtime) as collective:
                n_owned = int(collective.world.owned_offsets[-1])
                values = np.zeros(n_owned, dtype=collective.dtype)
                collective.exchange(values)  # warm the arenas
                best = float("inf")
                for _ in range(iterations):
                    start = time.perf_counter()
                    collective.exchange(values)
                    best = min(best, time.perf_counter() - start)
                per_variant[variant] = best
        times.append(per_variant)
    return times


def measured_cycle_times(hierarchy, mapping, *,
                         variants: Sequence[Variant] = ALL_VARIANTS,
                         strategy: BalanceStrategy = BalanceStrategy.BYTES,
                         iterations: int = 3,
                         runtime: str | None = None) -> Dict[Variant, float]:
    """Wall-clock seconds of one whole world-stepped V-cycle, per variant.

    The solve-phase counterpart of :func:`measured_level_times`: instead of
    timing one exchange round per level, every variant's
    :class:`~repro.amg.vcycle.WorldVCycle` is built once and a full cycle —
    smoother sweeps, residual SpMV, grid transfers, coarse gather, all
    through the batched engine — is timed; the best of ``iterations`` runs is
    recorded.
    """
    from repro.amg.vcycle import WorldVCycle

    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    times: Dict[Variant, float] = {}
    n = hierarchy.levels[0].matrix.n_rows
    b = np.ones(n, dtype=np.float64)
    x = np.zeros(n, dtype=np.float64)
    for variant in variants:
        with WorldVCycle(hierarchy, mapping, variant=variant,
                         strategy=strategy, runtime=runtime) as vcycle:
            vcycle.cycle(b, x)  # warm the arenas
            best = float("inf")
            for _ in range(iterations):
                start = time.perf_counter()
                vcycle.cycle(b, x)
                best = min(best, time.perf_counter() - start)
            times[variant] = best
    return times


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment."""

    #: Global rows of the rotated anisotropic diffusion system.
    n_rows: int = 65536
    #: Simulated MPI ranks the problem is distributed over.
    n_ranks: int = 256
    #: Ranks placed per node (the paper uses 16 on one CPU of Lassen).
    ranks_per_node: int = 16
    #: Anisotropy and rotation of the diffusion operator.
    epsilon: float = 0.001
    theta: float = math.pi / 4.0
    #: Strength threshold of the AMG setup.
    strength_theta: float = 0.25
    #: Process counts of the strong/weak scaling sweeps (Figures 12-13).
    scaling_ranks: Sequence[int] = (16, 32, 64, 128, 256)
    #: Rows per rank of the weak-scaling sweep.
    weak_rows_per_rank: int = 256
    #: Process counts of the graph-creation sweep (Figure 6).
    graph_creation_ranks: Sequence[int] = (2, 32, 64, 128, 256, 512, 1024, 2048)
    #: Iteration counts of the crossover sweep (Figure 7).
    crossover_iterations: Sequence[int] = tuple(range(0, 61, 2))
    #: Load-balance strategy of the aggregated collectives.
    strategy: BalanceStrategy = BalanceStrategy.BYTES
    #: Seed of the AMG setup (tie-breaking in PMIS).
    seed: int = 42

    def __post_init__(self):
        if self.n_rows <= 0 or self.n_ranks <= 0 or self.ranks_per_node <= 0:
            raise ValidationError("sizes must be positive")

    # -- named configurations ------------------------------------------------------

    @classmethod
    def reduced(cls) -> "ExperimentConfig":
        """Default configuration: fast enough for CI, same structure as the paper."""
        return cls()

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The configuration of the paper's Section 4 (expensive in pure Python)."""
        return cls(
            n_rows=524288,
            n_ranks=2048,
            scaling_ranks=(32, 64, 128, 256, 512, 1024, 2048),
            weak_rows_per_rank=256,
            graph_creation_ranks=(2, 256, 512, 1024, 2048),
        )

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Tiny configuration used by unit tests."""
        return cls(n_rows=4096, n_ranks=64, scaling_ranks=(16, 32, 64),
                   graph_creation_ranks=(2, 16, 64),
                   crossover_iterations=tuple(range(0, 31, 5)))

    @classmethod
    def from_environment(cls) -> "ExperimentConfig":
        """Pick the paper-scale configuration when ``REPRO_PAPER_SCALE`` is set."""
        if os.environ.get("REPRO_PAPER_SCALE", "0") not in ("", "0", "false", "False"):
            return cls.paper()
        return cls.reduced()

    def with_ranks(self, n_ranks: int) -> "ExperimentConfig":
        """Copy of the configuration distributed over ``n_ranks`` ranks."""
        return replace(self, n_ranks=n_ranks)


@dataclass
class ExperimentContext:
    """Everything the per-level and crossover experiments share.

    Building the AMG hierarchy is by far the most expensive step, so the
    context is built once (per configuration) and reused by Figures 7-11 and
    by the benchmark fixtures.
    """

    config: ExperimentConfig
    hierarchy: AMGHierarchy
    mapping: RankMapping
    model: CostModel
    setup_model: SetupCostModel = field(default_factory=SetupCostModel)
    _profiles: Optional[List[LevelCommProfile]] = None

    @classmethod
    def build(cls, config: ExperimentConfig | None = None) -> "ExperimentContext":
        """Construct the shared context for ``config`` (default: reduced)."""
        config = config or ExperimentConfig.reduced()
        problem = strong_scaling_problem(config.n_rows, config.n_ranks,
                                         epsilon=config.epsilon, theta=config.theta)
        hierarchy = build_hierarchy(problem.matrix,
                                    strength_theta=config.strength_theta,
                                    seed=config.seed)
        mapping = paper_mapping(config.n_ranks, ranks_per_node=config.ranks_per_node)
        model = lassen_parameters(active_per_node=config.ranks_per_node)
        return cls(config=config, hierarchy=hierarchy, mapping=mapping, model=model)

    @property
    def profiles(self) -> List[LevelCommProfile]:
        """Per-level communication profiles (computed lazily, cached)."""
        if self._profiles is None:
            self._profiles = hierarchy_comm_profiles(
                self.hierarchy, self.mapping, model=self.model,
                strategy=self.config.strategy)
        return self._profiles

    def redistributed(self, n_ranks: int) -> "ExperimentContext":
        """Same hierarchy distributed over ``n_ranks`` ranks (strong scaling)."""
        hierarchy = redistribute_hierarchy(self.hierarchy, n_ranks)
        mapping = paper_mapping(n_ranks, ranks_per_node=self.config.ranks_per_node)
        return ExperimentContext(config=self.config.with_ranks(n_ranks),
                                 hierarchy=hierarchy, mapping=mapping,
                                 model=self.model, setup_model=self.setup_model)

    def measured_level_times(self, *, variants: Sequence[Variant] = ALL_VARIANTS,
                             iterations: int = 3,
                             runtime: str | None = None
                             ) -> List[Dict[Variant, float]]:
        """World-stepped measured exchange-round times (see module helper)."""
        return measured_level_times(self.profiles, variants=variants,
                                    iterations=iterations, runtime=runtime)

    def measured_cycle_times(self, *, variants: Sequence[Variant] = ALL_VARIANTS,
                             iterations: int = 3,
                             runtime: str | None = None
                             ) -> Dict[Variant, float]:
        """World-stepped measured whole-V-cycle times (see module helper)."""
        return measured_cycle_times(self.hierarchy, self.mapping,
                                    variants=variants,
                                    strategy=self.config.strategy,
                                    iterations=iterations, runtime=runtime)
