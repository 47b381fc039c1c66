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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.amg.comm_analysis import LevelCommProfile, hierarchy_comm_profiles
from repro.amg.hierarchy import AMGHierarchy, build_hierarchy, redistribute_hierarchy
from repro.amg.vcycle import cycle_exchanges
from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.autotune import DecisionEvent, modeled_commit
from repro.collectives.persistent import WorldNeighborCollective
from repro.collectives.plan import Variant
from repro.collectives.planner import all_plans
from repro.perfmodel.base import CostModel
from repro.perfmodel.params import SetupCostModel, lassen_parameters
from repro.sparse.generators import strong_scaling_problem
from repro.topology.mapping import RankMapping
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

#: Protocol order shared by the measured-execution helpers.
ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)

#: The variable :meth:`ExperimentConfig.from_environment` reads, and what
#: each accepted value selects (``True``: the paper's configuration).
PAPER_SCALE_ENV = "REPRO_PAPER_SCALE"
PAPER_SCALE_VALUES = {"0": False, "false": False, "1": True, "true": True}

#: Timed rounds of each measured helper; the best one is recorded.
MEASURED_ROUNDS = 3


def measured_level_times(profiles: Sequence[LevelCommProfile]
                         ) -> List[Dict[Variant, float]]:
    """Wall-clock seconds of one world-stepped exchange round, per level and variant.

    The *measured* counterpart of ``profile.times`` (which holds modeled
    network times): every level's plan is compiled into a world exchange and
    executed through the batched
    :class:`~repro.simmpi.engine.ExchangeEngine`, for every variant of
    :data:`ALL_VARIANTS`; the best of :data:`MEASURED_ROUNDS` rounds is
    recorded.  The figure drivers plot the modeled times; this helper gives
    the real execution cost of the same rounds at figure scale.
    """
    times: List[Dict[Variant, float]] = []
    for profile in profiles:
        per_variant: Dict[Variant, float] = {}
        for variant in ALL_VARIANTS:
            with WorldNeighborCollective(profile.plans[variant]) as collective:
                n_owned = int(collective.world.owned_offsets[-1])
                values = np.zeros((n_owned, collective.item_size),
                                  dtype=collective.dtype)
                collective.exchange(values)  # warm the arenas
                best = float("inf")
                for _ in range(MEASURED_ROUNDS):
                    start = time.perf_counter()
                    collective.exchange(values)
                    best = min(best, time.perf_counter() - start)
                per_variant[variant] = best
        times.append(per_variant)
    return times


def measured_cycle_times(hierarchy, mapping) -> Dict[Variant, float]:
    """Wall-clock seconds of one whole world-stepped V-cycle, per variant.

    The solve-phase counterpart of :func:`measured_level_times`: instead of
    timing one exchange round per level, every variant's
    :class:`~repro.amg.vcycle.WorldVCycle` is built once and a full cycle —
    smoother sweeps, residual SpMV, grid transfers, coarse gather, all
    through the batched engine — is timed, for every variant of
    :data:`ALL_VARIANTS`; the best of :data:`MEASURED_ROUNDS` runs is
    recorded.
    """
    from repro.amg.vcycle import WorldVCycle

    times: Dict[Variant, float] = {}
    n = hierarchy.levels[0].matrix.n_rows
    b = np.ones(n, dtype=np.float64)
    x = np.zeros(n, dtype=np.float64)
    for variant in ALL_VARIANTS:
        with WorldVCycle(hierarchy, mapping, variant=variant) as vcycle:
            vcycle.cycle(b, x)  # warm the arenas
            best = float("inf")
            for _ in range(MEASURED_ROUNDS):
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
        """The paper-scale configuration when ``REPRO_PAPER_SCALE`` is ``1``
        or ``true``, the reduced one when it is ``0``, ``false`` or unset
        (case-insensitive).  Any other value raises
        :class:`ValidationError`: a typo must not silently start minutes of
        paper-scale set-up."""
        value = os.environ.get(PAPER_SCALE_ENV, "").strip().lower() or "0"
        if value not in PAPER_SCALE_VALUES:
            raise ValidationError(
                f"{PAPER_SCALE_ENV} must be one of "
                f"{tuple(PAPER_SCALE_VALUES)} or unset, got {value!r}")
        return cls.paper() if PAPER_SCALE_VALUES[value] else cls.reduced()

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
    _decisions: Optional[Tuple[DecisionEvent, ...]] = None

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

    @property
    def decisions(self) -> Tuple[DecisionEvent, ...]:
        """Each level's ``WorldVCycle(variant="auto", model=self.model)``
        commit, which the drivers' ``auto`` series read (computed lazily,
        cached): :func:`~repro.collectives.autotune.modeled_commit` over
        the level's :func:`~repro.amg.vcycle.cycle_exchanges`, with the
        ``A`` plans of :attr:`profiles` and the ``R``, ``P`` and gather
        patterns planned beside them; nothing is compiled."""
        if self._decisions is None:
            self._decisions = tuple(
                modeled_commit(profile.level, [
                    (exchange.solve_rounds,
                     profile.plans if exchange.operator == "A" else
                     all_plans(exchange.pattern(), self.mapping,
                               strategy=self.config.strategy))
                    for exchange in exchanges], self.model)
                for profile, exchanges in zip(
                    self.profiles, cycle_exchanges(self.hierarchy)))
        return self._decisions

    def redistributed(self, n_ranks: int) -> "ExperimentContext":
        """Same hierarchy distributed over ``n_ranks`` ranks (strong scaling)."""
        hierarchy = redistribute_hierarchy(self.hierarchy, n_ranks)
        mapping = paper_mapping(n_ranks, ranks_per_node=self.config.ranks_per_node)
        return ExperimentContext(config=self.config.with_ranks(n_ranks),
                                 hierarchy=hierarchy, mapping=mapping,
                                 model=self.model, setup_model=self.setup_model)
