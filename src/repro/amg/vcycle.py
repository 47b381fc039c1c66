"""The distributed AMG solve phase: whole V-cycles through the exchange layer.

The seed :class:`~repro.amg.solver.BoomerAMGSolver` validates the hierarchy by
relaxing and grid-transferring on the assembled global operators; the classes
here execute the same V-cycle *distributed*, so every SpMV and smoother halo
exchange of every hierarchy level — the irregular communication the paper
times inside BoomerAMG's solve phase — actually runs through the
neighborhood collectives.

Per non-coarsest level the cycle runs an operator SpMV, a
:class:`~repro.amg.relax.DistributedJacobi` smoother over it, and two more
SpMVs for the grid transfers (restrict ``Pᵀ r``, prolong-correct ``x + P e``),
each with its own communication pattern derived from the operator's column
map; then pre-smooth → residual → restrict → coarse solve → prolong-correct →
post-smooth.

* :class:`WorldVCycle` compiles every level's exchanges once and registers
  them with the batched :class:`~repro.simmpi.engine.ExchangeEngine`; its
  operators are :class:`~repro.sparse.spmv.WorldSpMV` on the engine's work
  array and its vectors global, so one ``cycle`` call runs a whole V-cycle
  for *all* ranks with O(phases) numpy calls per level — no per-message
  Python work, and an iterate bit-equal to
  :meth:`~repro.amg.solver.BoomerAMGSolver.vcycle`.  It runs in place: each
  level's vectors are allocated once, every product and smoother step is
  written into one of them with ``out=`` in the order the out-of-place
  expressions read, and only the caller's ``x`` is copied in and the result
  copied out.
* :class:`WorldAMGSolver` is the ``BoomerAMGSolver.solve``-equivalent built
  on top: the same stationary iteration
  (:func:`~repro.amg.solver.stationary_solve`) with residual norms computed
  through the fine-level world SpMV, so no assembled-matrix multiply remains
  on the data path.

The coarsest-level direct solve needs every rank to see the full coarse
right-hand side.  Instead of an object allgather on the control plane, the
gather is expressed as one more neighborhood collective
(:func:`coarse_gather_pattern`: every owning rank sends its coarse entries to
every other rank) and executed through the same engine as the halo
exchanges, so its traffic is accounted like theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.amg.hierarchy import AMGHierarchy, build_hierarchy
from repro.amg.relax import DistributedJacobi
from repro.amg.solver import SolveResult, stationary_solve
from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.autotune import (
    DecisionTrace,
    OnlineSelector,
    is_auto_variant,
)
from repro.collectives.persistent import WorldNeighborCollective
from repro.collectives.plan import Variant
from repro.pattern.comm_pattern import CommPattern
from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.profiler import TrafficProfiler
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import WorldSpMV, check_mapping_covers
from repro.topology.mapping import RankMapping
from repro.utils.arrays import INDEX_DTYPE
from repro.utils.errors import SolverError, ValidationError


def coarse_gather_pattern(partition: RowPartition, *,
                          dtype=np.float64, item_size: int = 1) -> CommPattern:
    """The all-gather of the coarsest level as a neighborhood pattern.

    Every rank owning coarse rows sends them to every *other* rank (item ids
    are global coarse row indices), so after one exchange round each rank
    holds the full coarse right-hand side: its own entries plus everything
    the pattern delivered.  Expressing the gather as a pattern lets the
    coarse solve ride the same collective machinery — and the same traffic
    accounting — as the halo exchanges.
    """
    n_ranks = partition.n_ranks
    srcs: List[int] = []
    dests: List[int] = []
    item_arrays: List[np.ndarray] = []
    for src in partition.active_ranks().tolist():
        items = partition.rows_of(src)
        for dest in range(n_ranks):
            if dest == src:
                continue
            srcs.append(src)
            dests.append(dest)
            item_arrays.append(items)
    return CommPattern.from_edge_lists(
        n_ranks, np.asarray(srcs, dtype=INDEX_DTYPE),
        np.asarray(dests, dtype=INDEX_DTYPE), item_arrays,
        dtype=dtype, item_size=item_size)


@dataclass
class _Level:
    """One (non-coarsest) level's operators on the world data path."""

    spmv: WorldSpMV
    smoother: DistributedJacobi
    restrict: WorldSpMV
    prolong: WorldSpMV


class WorldVCycle:
    """A whole V-cycle for all ranks, stepped through the exchange engine.

    Every level's halo exchanges (operator SpMV inside the smoother and the
    residual, restrict ``Pᵀ``, prolong ``P``) are compiled once and
    registered with a world :class:`~repro.simmpi.engine.ExchangeEngine`;
    ``cycle`` then advances the whole communicator through
    pre-smooth → residual → restrict → coarse-solve → prolong-correct →
    post-smooth with O(phases) numpy calls per level and no per-message
    Python work anywhere on the data path.  Results are byte-identical to the
    seed :meth:`~repro.amg.solver.BoomerAMGSolver.vcycle` on the assembled
    operators — the solve-phase equivalence suite pins it.

    Pass ``engine`` to register all levels with a shared engine (e.g.
    ``ExchangeEngine(n_ranks, profiler=...)``), ``profiler`` for a
    private engine around one profiler, or ``level_profilers`` (one per
    level) for per-level engines, each accounting its own level's traffic.
    ``runtime`` / ``n_workers`` select and size the backend of every engine
    the cycle creates itself (``"engine"`` staged single-process, ``"procs"``
    shared-memory worker pool); ``close`` — or context-manager exit —
    releases those engines' workers and shared segments deterministically (a
    caller-supplied engine stays open).

    ``variant="auto"`` turns on online selection: every candidate variant's
    exchanges are registered up front (the plan cache keeps this cheap), an
    :class:`~repro.collectives.autotune.OnlineSelector` — seeded from
    ``model``'s modeled times when given — picks each level's variant per
    cycle, and the engines' per-round timing hook feeds it measured
    seconds.  Switching variants is a per-level table swap, results stay
    byte-identical to any fixed variant, and every decision lands on
    :attr:`decision_trace`.  ``selector`` supplies a configured (fresh)
    selector, ``clock`` a deterministic timer for the cycle's own engines.
    """

    def __init__(self, hierarchy: AMGHierarchy, mapping: RankMapping, *,
                 variant: Variant | str = Variant.PARTIAL,
                 strategy: BalanceStrategy = BalanceStrategy.BYTES,
                 pre_sweeps: int = 1, post_sweeps: int = 1,
                 omega: float = 2.0 / 3.0,
                 engine: ExchangeEngine | None = None,
                 profiler: TrafficProfiler | None = None,
                 level_profilers: Optional[Sequence[TrafficProfiler]] = None,
                 runtime: str | None = None,
                 n_workers: int | None = None,
                 selector: OnlineSelector | None = None,
                 model=None,
                 clock=None):
        if hierarchy.n_levels == 0:
            raise SolverError("hierarchy has no levels")
        if pre_sweeps < 0 or post_sweeps < 0:
            raise ValidationError("sweep counts must be non-negative")
        check_mapping_covers(mapping, hierarchy.levels[0].matrix.n_ranks)
        if level_profilers is not None \
                and len(level_profilers) != hierarchy.n_levels:
            raise ValidationError(
                f"level_profilers must have one entry per level "
                f"({hierarchy.n_levels}), got {len(level_profilers)}"
            )
        if level_profilers is not None and engine is not None:
            raise ValidationError(
                "pass either a shared engine or per-level profilers, not both"
            )
        if profiler is not None and (engine is not None
                                     or level_profilers is not None):
            raise ValidationError(
                "pass either a profiler (for a private shared engine) or an "
                "engine / per-level profilers, not both"
            )
        if engine is not None and (runtime is not None or n_workers is not None
                                   or clock is not None):
            raise ValidationError(
                "a shared engine already fixed its runtime; pass runtime/"
                "n_workers/clock only when the cycle creates its own engines"
            )
        auto = is_auto_variant(variant)
        if not auto and (selector is not None or model is not None):
            raise ValidationError(
                "selector= and model= configure online selection; pass "
                "variant='auto' to enable it"
            )
        if auto:
            selector = selector if selector is not None else OnlineSelector()
            if selector.seeded_levels():
                raise ValidationError(
                    "variant='auto' needs a fresh selector (levels are "
                    "seeded by the cycle itself)"
                )
        self.hierarchy = hierarchy
        self.mapping = mapping
        self.pre_sweeps = int(pre_sweeps)
        self.post_sweeps = int(post_sweeps)
        self.omega = float(omega)
        # Coarsest level: a (redundant, deterministic) factorization of the
        # assembled coarse operator — the distributed analogue of hypre's
        # gathered Gaussian elimination; None for a zero-row level.
        coarsest = hierarchy.levels[-1].matrix
        self._coarse_partition = coarsest.partition
        self._coarse_solver = spla.factorized(sp.csc_matrix(coarsest.matrix)) \
            if coarsest.n_rows > 0 else None
        self.n_ranks = hierarchy.levels[0].matrix.n_ranks
        self._selector = selector if auto else None
        self._active: Dict[int, Variant] = {}
        n_levels = hierarchy.n_levels
        if level_profilers is not None:
            engines = [ExchangeEngine(self.n_ranks, profiler=level_profiler,
                                      runtime=runtime, n_workers=n_workers,
                                      clock=clock)
                       for level_profiler in level_profilers]
            self._owned_engines = list(engines)
        else:
            shared = engine if engine is not None else \
                ExchangeEngine(self.n_ranks, profiler=profiler,
                               runtime=runtime, n_workers=n_workers,
                               clock=clock)
            engines = [shared] * n_levels
            self._owned_engines = [] if engine is not None else [shared]
        self.engines = engines
        self._unique_engines = list({id(e): e for e in engines}.values())

        # In auto mode every candidate's exchanges register up front against
        # the same engines (the plan/exchange cache makes the extra variants
        # cheap); switching a level's variant is then a pure table swap.
        build_variants = self._selector.candidates if auto \
            else (Variant(variant),)

        def build_level(index: int, build_variant: Variant) -> _Level:
            """Level ``index``'s ``A``, ``Pᵀ`` and ``P`` on its engine."""
            spmv, restrict, prolong = (
                WorldSpMV(operator, mapping, variant=build_variant,
                          strategy=strategy, engine=engines[index])
                for operator in (hierarchy.levels[index].matrix,
                                 hierarchy.restriction_matrix(index),
                                 hierarchy.prolongation_matrix(index)))
            return _Level(spmv=spmv,
                          smoother=DistributedJacobi(spmv, omega=self.omega),
                          restrict=restrict, prolong=prolong)

        self._variant_levels: Dict[Variant, List[_Level]] = {
            build_variant: [build_level(index, build_variant)
                            for index in range(n_levels - 1)]
            for build_variant in build_variants}
        self.levels = self._variant_levels[build_variants[0]]

        self._coarse_collectives: Dict[Variant, WorldNeighborCollective] = {}
        self._coarse_collective: WorldNeighborCollective | None = None
        pattern = coarse_gather_pattern(self._coarse_partition)
        if pattern.n_messages:
            for build_variant in build_variants:
                self._coarse_collectives[build_variant] = \
                    neighbor_alltoallv_init_world(
                        pattern, mapping, variant=build_variant,
                        strategy=strategy, engine=engines[n_levels - 1])
            self._coarse_collective = self._coarse_collectives[
                build_variants[0]]

        # The cycle's vectors, allocated once and shared by every candidate
        # variant: per smoothed level the iterate and one more vector (A x,
        # then the residual, then the prolonged correction), and per coarser
        # level the right-hand side the restriction writes.
        sizes = [level.matrix.n_rows for level in hierarchy.levels]
        self._vectors = [(np.empty(size), np.empty(size))
                         for size in sizes[:-1]]
        self._rhs = [None] + [np.empty(size) for size in sizes[1:]]

        # Residual norms of an iterative solve need the fine operator even on
        # a single-level hierarchy, where no smoothing level exists.
        self.fine_spmv = self.levels[0].spmv if self.levels else \
            WorldSpMV(hierarchy.levels[0].matrix, mapping,
                      variant=build_variants[0], strategy=strategy,
                      engine=engines[0])

        self._observed_engines: List[ExchangeEngine] = []
        if auto:
            self._seed_selector(model)
            self._attach_observers()

    # -- online selection -----------------------------------------------------

    @property
    def selector(self) -> OnlineSelector | None:
        """The online selector (``None`` unless ``variant="auto"``)."""
        return self._selector

    @property
    def decision_trace(self) -> DecisionTrace | None:
        """Every seed/probe/commit/switch decision (``None`` on fixed variants)."""
        return self._selector.trace if self._selector is not None else None

    def _seed_selector(self, model) -> None:
        """Seed every communicating level from the cost model's plan times.

        A level's cycle cost under one variant is the modeled time of its
        operator-SpMV exchange once per smoother sweep plus once for the
        residual, plus one restrict and one prolong exchange; the coarsest
        level contributes its gather.  Without a model every candidate
        seeds equal (zero), so the probe schedule alone decides.
        """
        weight = self.pre_sweeps + self.post_sweeps + 1
        for index in range(self.hierarchy.n_levels - 1):
            modeled = {}
            for build_variant, built in self._variant_levels.items():
                level = built[index]
                if model is None:
                    modeled[build_variant] = 0.0
                else:
                    modeled[build_variant] = (
                        weight * level.spmv.collective.plan.modeled_time(model)
                        + level.restrict.collective.plan.modeled_time(model)
                        + level.prolong.collective.plan.modeled_time(model))
            self._selector.seed(index, modeled)
        if self._coarse_collectives:
            modeled = {
                build_variant: (0.0 if model is None
                                else collective.plan.modeled_time(model))
                for build_variant, collective
                in self._coarse_collectives.items()
            }
            self._selector.seed(self.hierarchy.n_levels - 1, modeled)

    def _attach_observers(self) -> None:
        """Point every engine's timing hook at the selector, by handle."""
        tables: Dict[int, Dict[int, int]] = {}
        engines_by_id: Dict[int, ExchangeEngine] = {}

        def note(collective, level_index: int) -> None:
            tables.setdefault(id(collective.engine), {})[
                collective.handle] = level_index
            engines_by_id[id(collective.engine)] = collective.engine

        for built in self._variant_levels.values():
            for index, level in enumerate(built):
                note(level.spmv.collective, index)
                note(level.restrict.collective, index)
                note(level.prolong.collective, index)
        for collective in self._coarse_collectives.values():
            note(collective, self.hierarchy.n_levels - 1)
        for engine_id, table in tables.items():
            observed = engines_by_id[engine_id]
            observed.set_run_observer(self._make_observer(table))
            self._observed_engines.append(observed)

    def _make_observer(self, table: Dict[int, int]):
        selector = self._selector

        def observer(handle: int, seconds: float) -> None:
            level = table.get(handle)
            if level is not None:
                selector.record(level, seconds)

        return observer

    def _recovery_events(self) -> int:
        """Supervision events recorded so far across this cycle's engines."""
        return sum(len(used.events) for used in self._unique_engines)

    @property
    def n_rows(self) -> int:
        """Global rows of the fine-level operator."""
        return self.hierarchy.levels[0].matrix.n_rows

    def close(self) -> None:
        """Release every engine this cycle created (workers, shared segments)."""
        for observed in self._observed_engines:
            if not observed.closed:
                observed.set_run_observer(None)
        self._observed_engines = []
        for owned in self._owned_engines:
            owned.close()

    def __enter__(self) -> "WorldVCycle":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Fine-level residual ``b - A x`` through the world-stepped SpMV."""
        return b - self.fine_spmv.multiply(x)

    # -- the data path --------------------------------------------------------

    def _coarse_solve(self, b: np.ndarray) -> np.ndarray:
        """Direct solve of the coarsest system from engine-delivered values.

        The gather collective runs on the coarsest level's engine (its wire
        traffic accounted like any halo exchange); the solve then consumes
        the delivered values: the full coarse RHS is
        reassembled from rank 0's received halo plus its owned slice, which
        is bitwise the global ``b`` — no assembled-vector shortcut.
        """
        if self._coarse_solver is None:
            return np.zeros(self._coarse_partition.n_rows, dtype=np.float64)
        full = np.empty(self._coarse_partition.n_rows, dtype=np.float64)
        collective = self._coarse_active()
        if collective is not None:
            # Owned item ids are global coarse rows: the input is one gather
            # from ``b``, and rank 0's share leads the flat result.
            halo = collective.exchange_flat(b[collective.world.owned_items_all])
            received = collective.recv_item_ids(0)
            full[received] = halo[:received.size]
        full[self._coarse_partition.rows_of(0)] = b[self._coarse_partition.rows_of(0)]
        return np.asarray(self._coarse_solver(full), dtype=np.float64)

    def _coarse_active(self) -> WorldNeighborCollective | None:
        """The coarse gather of the cycle's active (or fixed) variant."""
        if self._selector is None or not self._coarse_collectives:
            return self._coarse_collective
        active = self._active.get(self.hierarchy.n_levels - 1)
        if active is None:
            return self._coarse_collective
        return self._coarse_collectives[active]

    def _level(self, index: int) -> _Level:
        """The level's collectives under the cycle's active (or fixed) variant."""
        if self._selector is None:
            return self.levels[index]
        active = self._active.get(index)
        built = self.levels if active is None else self._variant_levels[active]
        return built[index]

    def _cycle(self, index: int, b: np.ndarray) -> np.ndarray:
        """The cycle from level ``index`` down, on the level's own vectors.

        Starts from the iterate in the level's first vector and returns the
        one of its two vectors that holds the new iterate (each sweep writes
        into the other and the two swap) — on the coarsest level, the direct
        solution.  Every update is the out-of-place expression's arithmetic
        in its order, written with ``out=``, so the iterate is bit-equal.
        """
        if index == self.hierarchy.n_levels - 1:
            return self._coarse_solve(b)
        level = self._level(index)
        smoother = level.smoother
        x, y = self._vectors[index]
        for _ in range(self.pre_sweeps):
            smoother.sweep(b, x, out=y)
            x, y = y, x
        level.spmv.multiply(x, out=y)
        np.subtract(b, y, out=y)                # the residual b - A x
        coarse_b = self._rhs[index + 1]
        level.restrict.multiply(y, out=coarse_b)
        if index + 1 < len(self._vectors):
            self._vectors[index + 1][0].fill(0.0)   # the coarse start: zero
        level.prolong.multiply(self._cycle(index + 1, coarse_b), out=y)
        np.add(x, y, out=x)                     # x + P e
        for _ in range(self.post_sweeps):
            smoother.sweep(b, x, out=y)
            x, y = y, x
        return x

    def cycle(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply one V-cycle to ``A x = b`` for the whole communicator.

        Under ``variant="auto"`` the cycle is one measurement window: the
        selector fixes each level's variant up front (so a cycle never
        mixes variants within a level), the engines time every exchange
        round into it, and a cycle overlapped by engine fault recovery is
        discarded rather than scored — supervision stalls are not protocol
        cost.

        ``x`` is copied into the cycle's own vectors and neither argument is
        written; the result is a new array.
        """
        b = np.asarray(b, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if b.shape != (self.n_rows,) or x.shape != (self.n_rows,):
            raise ValidationError(f"b and x must have shape {(self.n_rows,)}")
        if self._vectors:
            self._vectors[0][0][...] = x
        if self._selector is None:
            return self._cycle(0, b).copy()
        self._selector.begin_cycle()
        self._active = {level: self._selector.variant_for(level)
                        for level in self._selector.seeded_levels()}
        events_before = self._recovery_events()
        try:
            result = self._cycle(0, b).copy()
        except BaseException:
            self._selector.abort_cycle()
            raise
        self._selector.end_cycle(
            recovered=self._recovery_events() > events_before)
        return result


class WorldAMGSolver:
    """BoomerAMG-style V-cycle solver executed entirely world-stepped.

    The drop-in distributed equivalent of
    :class:`~repro.amg.solver.BoomerAMGSolver`: same setup knobs, same
    :class:`~repro.amg.solver.SolveResult`, but relaxation, grid transfers,
    the coarse gather, *and* the convergence-check residuals all run through
    the batched exchange engine — the hierarchy traffic the experiments
    analyse is executed, not modeled, on every iteration.
    """

    def __init__(self, matrix, mapping: RankMapping, *,
                 strength_theta: float = 0.25,
                 max_levels: int = 25,
                 max_coarse_size: int = 16,
                 pre_sweeps: int = 1,
                 post_sweeps: int = 1,
                 omega: float = 2.0 / 3.0,
                 truncation: float = 0.0,
                 seed: int = 42,
                 variant: Variant | str = Variant.PARTIAL,
                 strategy: BalanceStrategy = BalanceStrategy.BYTES,
                 hierarchy: Optional[AMGHierarchy] = None,
                 engine: ExchangeEngine | None = None,
                 profiler: TrafficProfiler | None = None,
                 level_profilers: Optional[Sequence[TrafficProfiler]] = None,
                 runtime: str | None = None,
                 n_workers: int | None = None,
                 selector: OnlineSelector | None = None,
                 model=None,
                 clock=None):
        self.matrix = matrix
        self.hierarchy = hierarchy or build_hierarchy(
            matrix, strength_theta=strength_theta, max_levels=max_levels,
            max_coarse_size=max_coarse_size, truncation=truncation, seed=seed)
        if self.hierarchy.n_levels == 0:
            raise SolverError("hierarchy construction produced no levels")
        self.vcycle_executor = WorldVCycle(
            self.hierarchy, mapping, variant=variant, strategy=strategy,
            pre_sweeps=pre_sweeps, post_sweeps=post_sweeps, omega=omega,
            engine=engine, profiler=profiler, level_profilers=level_profilers,
            runtime=runtime, n_workers=n_workers,
            selector=selector, model=model, clock=clock)

    @property
    def selector(self) -> OnlineSelector | None:
        """The online selector (``None`` unless ``variant="auto"``)."""
        return self.vcycle_executor.selector

    @property
    def decision_trace(self) -> DecisionTrace | None:
        """Every autotuning decision of the solve (``None`` on fixed variants)."""
        return self.vcycle_executor.decision_trace

    def close(self) -> None:
        """Release the underlying V-cycle's engines (workers, shared segments)."""
        self.vcycle_executor.close()

    def __enter__(self) -> "WorldAMGSolver":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def vcycle(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply one world-stepped V-cycle to ``A x = b`` starting from ``x``."""
        return self.vcycle_executor.cycle(b, x)

    def solve(self, b: np.ndarray, *, x0: Optional[np.ndarray] = None,
              tol: float = 1e-8, max_iterations: int = 100) -> SolveResult:
        """Solve ``A x = b`` with stationary world-stepped V-cycle iterations.

        :meth:`BoomerAMGSolver.solve`'s own loop
        (:func:`~repro.amg.solver.stationary_solve`) — same convergence
        criterion, same :class:`SolveResult` — with every residual computed
        through the fine-level world SpMV instead of the assembled matrix.
        """
        executor = self.vcycle_executor
        result = stationary_solve(executor.cycle, executor.residual, b,
                                  n_rows=self.matrix.n_rows, x0=x0, tol=tol,
                                  max_iterations=max_iterations)
        result.decision_trace = self.decision_trace
        return result
