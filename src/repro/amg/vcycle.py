"""The distributed AMG solve phase: whole V-cycles through the exchange layer.

:class:`WorldVCycle` runs the V-cycle of the sequential
:class:`~repro.amg.solver.BoomerAMGSolver` with every halo exchange of every
level — the irregular communication the paper times inside BoomerAMG's solve
phase — through the neighborhood collectives on the batched
:class:`~repro.simmpi.engine.ExchangeEngine`: per smoothed level an operator
SpMV under a :class:`~repro.amg.relax.DistributedJacobi` smoother and two
grid-transfer SpMVs (restrict ``Pᵀ r``, prolong-correct ``x + P e``), each
on its own pattern, and on the coarsest level a gather-to-all expressed as
one more pattern (:func:`coarse_gather_pattern`), so no control-plane object
gather remains and its traffic is accounted like theirs.  One ``cycle`` call
makes O(phases) numpy calls per level, in place on vectors allocated once,
and its iterate is bit-equal to the sequential one;
:attr:`WorldVCycle.schedule` says which exchanges it makes, how often.
:class:`WorldAMGSolver` runs the sequential solver's stationary iteration
(:func:`~repro.amg.solver.stationary_solve`) with every residual through the
fine-level world SpMV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.amg.hierarchy import AMGHierarchy
from repro.amg.relax import DistributedJacobi
from repro.amg.solver import (SolveResult, check_cycle_parameters,
                              solver_hierarchy, stationary_solve)
from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.autotune import (AUTO_VARIANT, DecisionEvent,
                                        modeled_commit)
from repro.collectives.persistent import WorldNeighborCollective
from repro.collectives.plan import Variant
from repro.collectives.planner import all_plans
from repro.pattern.comm_pattern import CommPattern
from repro.perfmodel.params import lassen_parameters
from repro.simmpi.engine import ExchangeEngine
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import WorldSpMV
from repro.topology.mapping import RankMapping, check_mapping_covers
from repro.utils.arrays import INDEX_DTYPE, counts_to_displs, freeze_columns
from repro.utils.errors import SolverError, ValidationError


def coarse_gather_pattern(partition: RowPartition) -> CommPattern:
    """The all-gather of the coarsest level as a neighborhood pattern.

    Every rank owning coarse rows sends them to every *other* rank (item ids
    are global coarse row indices), so after one exchange round each rank
    holds the full coarse right-hand side: its own entries plus everything
    the pattern delivered.  Expressing the gather as a pattern lets the
    coarse solve ride the same collective machinery — and the same traffic
    accounting — as the halo exchanges.  The CSR columns are built whole: an
    active rank's ``n_ranks - 1`` edges skip the rank itself, and each edge
    lists the rank's owned row range.

    >>> pattern = coarse_gather_pattern(RowPartition.from_sizes([2, 0, 1]))
    >>> [column.tolist() for column in pattern.csr()]
    [[0, 2, 2, 4], [1, 2, 0, 1], [0, 2, 4, 5, 6], [0, 1, 0, 1, 2, 2]]
    """
    n_ranks = partition.n_ranks
    fan_out = n_ranks - 1
    active = partition.active_ranks()
    srcs = np.repeat(active, fan_out)
    others = np.tile(np.arange(fan_out, dtype=INDEX_DTYPE), active.size)
    dests = others + (others >= srcs)
    first_rows = partition.offsets[srcs]
    sizes = partition.offsets[srcs + 1] - first_rows
    item_offsets = counts_to_displs(sizes)
    items = (np.arange(item_offsets[-1], dtype=INDEX_DTYPE)
             + np.repeat(first_rows - item_offsets[:-1], sizes))
    src_offsets = counts_to_displs(np.bincount(srcs, minlength=n_ranks))
    freeze_columns(src_offsets, dests, item_offsets, items)
    return CommPattern.from_csr(n_ranks, src_offsets, dests, item_offsets, items)


@dataclass
class _Level:
    """One (non-coarsest) level's operators on the world data path."""

    spmv: WorldSpMV
    smoother: DistributedJacobi
    restrict: WorldSpMV
    prolong: WorldSpMV


class ScheduleRow(NamedTuple):
    """One exchange of :attr:`WorldVCycle.schedule`, and why it runs its
    variant (``decision``, one event shared by every row of the level)."""

    level: int
    operator: str
    cycle_rounds: int
    solve_rounds: int
    collective: WorldNeighborCollective
    decision: DecisionEvent


class CycleExchange(NamedTuple):
    """A :class:`ScheduleRow` before set-up: ``source`` is the matrix an
    ``"A"``, ``"R"`` or ``"P"`` row multiplies by, or the gather pattern."""

    level: int
    operator: str
    cycle_rounds: int
    solve_rounds: int
    source: ParCSRMatrix | CommPattern

    def pattern(self) -> CommPattern:
        """The pattern the exchange moves (built on every call)."""
        return self.source if self.operator == "gather" else \
            pattern_from_parcsr(self.source)


def cycle_exchanges(hierarchy: AMGHierarchy, pre_sweeps: int = 1,
                    post_sweeps: int = 1) -> List[List[CycleExchange]]:
    """Every exchange of a V-cycle on ``hierarchy``, one list per level:
    the one place the cycle's exchange schedule is written.

    A smoothed level makes one ``A`` product per smoother sweep and one for
    the residual, one ``R`` and one ``P``; the coarsest level the gather, if
    any rank sends (else its list is empty).  A steady ``solve`` iteration
    hands the cycle its checked residual, so with a pre-sweep the fine level
    makes one product fewer, and the check is one more — a single-level
    hierarchy's only product.
    """
    smoothed = pre_sweeps + post_sweeps + 1
    n_levels = hierarchy.n_levels
    levels = []
    for level in range(n_levels - 1):
        solve = smoothed - (pre_sweeps > 0) + 1 if level == 0 else smoothed
        levels.append([
            CycleExchange(level, "A", smoothed, solve,
                          hierarchy.levels[level].matrix),
            CycleExchange(level, "R", 1, 1, hierarchy.restriction_matrix(level)),
            CycleExchange(level, "P", 1, 1,
                          hierarchy.prolongation_matrix(level))])
    coarsest = []
    if n_levels == 1:
        coarsest.append(CycleExchange(0, "A", 0, 1, hierarchy.levels[0].matrix))
    gather = coarse_gather_pattern(hierarchy.levels[-1].matrix.partition)
    if gather.n_messages > 0:
        coarsest.append(CycleExchange(n_levels - 1, "gather", 1, 1, gather))
    return levels + [coarsest]


class WorldVCycle:
    """A whole V-cycle for all ranks, stepped through the exchange engine.

    Every exchange of :attr:`schedule` is compiled once and registered with
    a world :class:`~repro.simmpi.engine.ExchangeEngine`; ``cycle`` then runs
    pre-smooth → residual → restrict → coarse-solve → prolong-correct →
    post-smooth for the whole communicator with no per-message Python work,
    byte-identical to :meth:`~repro.amg.solver.BoomerAMGSolver.vcycle`.

    The engine is the execution configuration: its runtime, its worker
    count and its traffic profiler.  Pass one
    :class:`~repro.simmpi.engine.ExchangeEngine` as ``engine`` to register
    every level with it, or a sequence of one engine per hierarchy level
    to give each level its own (and so its own profiler).  Without one the
    cycle builds a private engine on ``runtime`` (``"engine"``
    single-process, ``"procs"`` shared-memory worker pool; default
    ``REPRO_RUNTIME``), and ``close`` — or context-manager exit — releases
    that engine's workers and shared segments.  An engine the caller passes
    belongs to the caller and stays open.

    >>> from repro.amg import build_hierarchy
    >>> from repro.simmpi import ExchangeEngine, TrafficProfiler
    >>> from repro.sparse import ParCSRMatrix, RowPartition
    >>> from repro.sparse.stencils import poisson_2d
    >>> from repro.topology import paper_mapping
    >>> matrix = ParCSRMatrix(poisson_2d((16, 16)), RowPartition.even(256, 8))
    >>> hierarchy = build_hierarchy(matrix)
    >>> mapping = paper_mapping(8, ranks_per_node=4)
    >>> engines = [ExchangeEngine(8, profiler=TrafficProfiler(mapping))
    ...            for _ in range(hierarchy.n_levels)]
    >>> with WorldVCycle(hierarchy, mapping, engine=engines) as cycle:
    ...     x = cycle.cycle(np.ones(256), np.zeros(256))
    >>> [engine.profiler.total().message_count for engine in engines]
    [80, 120, 146, 28]
    >>> [engine.profiler.total().byte_count for engine in engines]
    [7664, 6312, 3544, 672]
    >>> [engine.closed for engine in engines]    # the caller's to close
    [False, False, False, False]
    >>> [row[:4] for row in cycle.schedule[-4:]]  # the rounds that sent them
    [(2, 'A', 3, 3), (2, 'R', 1, 1), (2, 'P', 1, 1), (3, 'gather', 1, 1)]
    >>> cycle.schedule[-1].decision              # and why on that variant
    DecisionEvent(level=3, variant='partial', estimates={}, reason='fixed by caller')
    >>> for engine in engines:
    ...     engine.close()

    ``variant="auto"`` picks each level's variant at set-up: every
    candidate's plans are built, and the level commits the one the cost
    ``model`` (default: :func:`~repro.perfmodel.params.lassen_parameters`
    at the mapping's ranks per node) prices cheapest over one solve
    iteration: the sum of ``solve_rounds`` × modeled time over the level's
    :func:`cycle_exchanges` (so a single-level hierarchy prices its fine
    product with its gather, and a deeper one's coarsest level its gather
    alone, not its ``A`` pattern).  Ties break on candidate order.  Only the
    committed variant's exchanges are compiled, so the cycle is then a
    fixed-variant cycle whose levels differ in variant; results are
    byte-identical to any fixed variant.  Each row of :attr:`schedule` says
    why its level runs its variant: ``row.decision`` is the level's
    :func:`~repro.collectives.autotune.modeled_commit`, or under a fixed
    variant the variant with no estimates and the reason ``"fixed by
    caller"``.
    """

    def __init__(self, hierarchy: AMGHierarchy, mapping: RankMapping, *,
                 variant: Variant | str = Variant.PARTIAL,
                 strategy: BalanceStrategy = BalanceStrategy.BYTES,
                 pre_sweeps: int = 1, post_sweeps: int = 1,
                 omega: float = 2.0 / 3.0,
                 engine: ExchangeEngine | Sequence[ExchangeEngine] | None = None,
                 runtime: str | None = None,
                 model=None):
        if hierarchy.n_levels == 0:
            raise SolverError("hierarchy has no levels")
        self.pre_sweeps, self.post_sweeps, self.omega = check_cycle_parameters(
            pre_sweeps, post_sweeps, omega)
        check_mapping_covers(mapping, hierarchy.levels[0].matrix.n_ranks,
                             "the matrix partition")
        n_levels = hierarchy.n_levels
        if engine is not None and runtime is not None:
            raise ValidationError(
                "an engine already fixed its runtime; pass runtime only when "
                "the cycle builds its own engine"
            )
        if engine is not None and not isinstance(engine, ExchangeEngine) and (
                not isinstance(engine, Sequence) or len(engine) != n_levels
                or not all(isinstance(item, ExchangeEngine) for item in engine)):
            raise ValidationError(
                f"engine must be one ExchangeEngine or one per level "
                f"(n_levels={n_levels}), got {engine!r}")
        auto = isinstance(variant, str) and \
            variant.strip().lower() == AUTO_VARIANT
        if not auto:
            try:
                variant = Variant(variant)
            except ValidationError:
                raise ValidationError(
                    f"variant must be 'auto' or one of "
                    f"{tuple(v.value for v in Variant)}, got {variant!r}"
                ) from None
            if model is not None:
                raise ValidationError(
                    "model= prices the candidates of variant='auto'; pass "
                    "it only with variant='auto'"
                )
        elif model is None:
            model = lassen_parameters(active_per_node=mapping.ranks_per_node)
        self.hierarchy = hierarchy
        self.mapping = mapping
        # Coarsest level: a (redundant, deterministic) factorization of the
        # assembled coarse operator — the distributed analogue of hypre's
        # gathered Gaussian elimination; None for a zero-row level.
        coarsest = hierarchy.levels[-1].matrix
        self._coarse_partition = coarsest.partition
        self._coarse_solver = spla.factorized(sp.csc_matrix(coarsest.matrix)) \
            if coarsest.n_rows > 0 else None
        self.n_ranks = hierarchy.levels[0].matrix.n_ranks
        self._owns_engine = engine is None
        if engine is None:
            engine = ExchangeEngine(self.n_ranks, runtime=runtime)
        self.engines = engines = [engine] * n_levels \
            if isinstance(engine, ExchangeEngine) else list(engine)
        products, rows = {}, []
        self._coarse_collective: WorldNeighborCollective | None = None
        for index, exchanges in enumerate(cycle_exchanges(
                hierarchy, self.pre_sweeps, self.post_sweeps)):
            if not exchanges:       # the coarsest, when no rank sends
                continue
            if auto:
                decision = modeled_commit(
                    index, [(exchange.solve_rounds,
                             all_plans(exchange.pattern(), mapping,
                                       strategy=strategy))
                            for exchange in exchanges], model)
            else:
                decision = DecisionEvent(index, variant.value, {},
                                         "fixed by caller")
            chosen = Variant(decision.variant)
            for level, name, cycle_rounds, solve_rounds, source in exchanges:
                if name == "gather":
                    collective = self._coarse_collective = \
                        neighbor_alltoallv_init_world(
                            source, mapping, variant=chosen,
                            strategy=strategy, engine=engines[index])
                else:
                    products[index, name] = WorldSpMV(
                        source, mapping, variant=chosen,
                        strategy=strategy, engine=engines[index])
                    collective = products[index, name].collective
                rows.append(ScheduleRow(level, name, cycle_rounds,
                                        solve_rounds, collective, decision))
        self._schedule = tuple(rows)
        self.levels = [
            _Level(spmv=products[index, "A"],
                   smoother=DistributedJacobi(products[index, "A"],
                                              omega=self.omega),
                   restrict=products[index, "R"],
                   prolong=products[index, "P"])
            for index in range(n_levels - 1)]
        # The solve's residual norms; on a single-level hierarchy no cycle
        # round runs on it.
        self.fine_spmv = products[0, "A"]

        # The cycle's vectors, allocated once: per smoothed level the iterate
        # and one more vector (A x, then the residual, then the prolonged
        # correction), and per coarser level the right-hand side the
        # restriction writes.
        sizes = [level.matrix.n_rows for level in hierarchy.levels]
        self._vectors = [(np.empty(size), np.empty(size))
                         for size in sizes[:-1]]
        self._rhs = [None] + [np.empty(size) for size in sizes[1:]]

    @property
    def schedule(self) -> Tuple[ScheduleRow, ...]:
        """Every exchange of the cycle, level by level, as a
        ``(level, operator, cycle_rounds, solve_rounds, collective,
        decision)`` row: ``operator`` is ``"A"`` (smoother sweeps and
        residual), ``"R"`` (``Pᵀ``), ``"P"`` or ``"gather"``; the rounds are
        one ``cycle`` call's and one steady-state ``solve`` iteration's;
        ``collective`` is the committed one they run on (``.variant``,
        ``.plan``, ``.world``, ``.handle``), and ``decision`` the level's
        :class:`~repro.collectives.autotune.DecisionEvent` saying why: the
        rows of :func:`cycle_exchanges`, set up."""
        return self._schedule

    @property
    def n_rows(self) -> int:
        """Global rows of the fine-level operator."""
        return self.hierarchy.levels[0].matrix.n_rows

    def close(self) -> None:
        """Release the engine this cycle built (workers, shared segments); a
        caller's engine stays open."""
        if self._owns_engine:
            self.engines[0].close()

    def __enter__(self) -> "WorldVCycle":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Fine-level residual ``b - A x`` through the world-stepped SpMV.

        ``b`` and ``x`` must have :meth:`cycle`'s shape, so an ``(n, 1)``
        ``b`` raises instead of broadcasting into an ``(n, n)`` result.  The
        difference is written into the product's own fresh array: one
        n-vector per call, bit for bit ``b - A x``.
        """
        if np.shape(b) != (self.n_rows,) or np.shape(x) != (self.n_rows,):
            raise ValidationError(f"b and x must have shape {(self.n_rows,)}")
        product = self.fine_spmv.multiply(x)
        return np.subtract(b, product, out=product)

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
        collective = self._coarse_collective
        if collective is not None:
            # Owned item ids are global coarse rows: the input is one gather
            # from ``b``, and rank 0's share leads the flat result.
            halo = collective.exchange_flat(b[collective.world.owned_items_all])
            received = collective.recv_item_ids(0)
            full[received] = halo[:received.size]
        full[self._coarse_partition.rows_of(0)] = b[self._coarse_partition.rows_of(0)]
        return np.asarray(self._coarse_solver(full), dtype=np.float64)

    def _cycle(self, index: int, b: np.ndarray,
               residual: np.ndarray | None = None) -> np.ndarray:
        """The cycle from level ``index`` down, on the level's own vectors.

        Starts from the iterate in the level's first vector and returns the
        one of its two vectors that holds the new iterate (each sweep writes
        into the other and the two swap) — on the coarsest level, the direct
        solution.  Every update is the out-of-place expression's arithmetic
        in its order, written with ``out=``, so the iterate is bit-equal.
        A given ``residual`` is ``b - A x`` of that starting iterate, as the
        solve's convergence check computed it: the first pre-smoothing sweep
        continues from it instead of making the product again.
        """
        if index == self.hierarchy.n_levels - 1:
            return self._coarse_solve(b)
        level = self.levels[index]
        smoother = level.smoother
        x, y = self._vectors[index]
        sweeps = self.pre_sweeps
        if residual is not None and sweeps:
            smoother._correct(x, residual, y)
            x, y, sweeps = y, x, sweeps - 1
        for _ in range(sweeps):
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

        ``x`` is copied into the cycle's own vectors and neither argument is
        written; the result is a new array.
        """
        return self._cycle_from(b, x, None)

    def _cycle_from(self, b: np.ndarray, x: np.ndarray,
                    residual: np.ndarray | None) -> np.ndarray:
        """:meth:`cycle`, handed ``residual = b - A x`` when the caller has
        just computed it (the solve loop's convergence check), which saves
        the fine level's first product."""
        b = np.asarray(b, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if b.shape != (self.n_rows,) or x.shape != (self.n_rows,):
            raise ValidationError(f"b and x must have shape {(self.n_rows,)}")
        if self._vectors:
            self._vectors[0][0][...] = x
        return self._cycle(0, b, residual).copy()


class WorldAMGSolver:
    """BoomerAMG-style V-cycle solver executed entirely world-stepped.

    The drop-in distributed equivalent of
    :class:`~repro.amg.solver.BoomerAMGSolver`: the same ``hierarchy``
    (default ``build_hierarchy(matrix)``) and cycle knobs, the same
    :class:`~repro.amg.solver.SolveResult`, but relaxation, grid transfers,
    the coarse gather, *and* the convergence-check residuals all run through
    the batched exchange engine — the hierarchy traffic the experiments
    analyse is executed, not modeled, on every iteration.  ``variant`` and
    ``model`` are :class:`WorldVCycle`'s (``"auto"`` commits each level's
    modeled-cheapest variant at set-up); ``vcycle_executor.schedule`` says
    what each level runs and why.
    """

    def __init__(self, matrix, mapping: RankMapping, *,
                 pre_sweeps: int = 1, post_sweeps: int = 1,
                 omega: float = 2.0 / 3.0,
                 variant: Variant | str = Variant.PARTIAL,
                 strategy: BalanceStrategy = BalanceStrategy.BYTES,
                 hierarchy: Optional[AMGHierarchy] = None,
                 engine: ExchangeEngine | Sequence[ExchangeEngine] | None = None,
                 runtime: str | None = None,
                 model=None):
        self.matrix = matrix
        self.hierarchy = solver_hierarchy(matrix, hierarchy)
        self.vcycle_executor = WorldVCycle(
            self.hierarchy, mapping, variant=variant, strategy=strategy,
            pre_sweeps=pre_sweeps, post_sweeps=post_sweeps, omega=omega,
            engine=engine, runtime=runtime, model=model)

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
        Each cycle's first pre-smoothing sweep starts from the residual the
        convergence check just computed, so the fine level makes one product
        per iteration fewer, with the same iterates to the bit.
        """
        executor = self.vcycle_executor
        return stationary_solve(executor._cycle_from, executor.residual, b,
                                n_rows=self.matrix.n_rows, x0=x0, tol=tol,
                                max_iterations=max_iterations)
