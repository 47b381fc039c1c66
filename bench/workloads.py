"""The four benchmark workloads.

Each workload knows how to generate its raw inputs from a seed (before any
clock starts), how to build every library object again from those raw inputs
(one *pass*), how to run one steady-state iteration, how to verify what the
library returned, and which exchanges one iteration performs (for the exact
traffic counts).  Only public functions of ``repro`` are called.

Sizes are fixed; only the pass count, the block length and the number of
whole solves (one) were cut to fit the contract's time cap (see ``Protocol``
below and ``bench/README.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.amg import (
    BoomerAMGSolver,
    SolveResult,
    WorldAMGSolver,
    build_hierarchy,
    coarse_gather_pattern,
)
from repro.collectives import clear_plan_cache, neighbor_alltoallv_init_world
from repro.pattern import CommPattern, halo_exchange_pattern, random_pattern
from repro.simmpi import TrafficProfiler
from repro.sparse import ParCSRMatrix, RowPartition, strong_scaling_problem
from repro.topology import Locality, paper_mapping

#: The engine runtime is passed explicitly everywhere so that neither
#: ``REPRO_RUNTIME`` nor a changed default can fork the trajectory.
RUNTIME = "engine"
RANKS_PER_NODE = 16
SOLVE_TOL = 1e-6
SOLVE_MAX_ITERATIONS = 200
#: Relative agreement demanded between the world-stepped and the sequential
#: solver (they differ only in the order of floating-point sums).
SOLUTION_RTOL = 1e-10
#: Exchange rounds whose outputs are compared with the oracle: the first,
#: the last, and every CHECK_EVERY-th of each block.
CHECK_EVERY = 50


@dataclass(frozen=True)
class Protocol:
    """How much one run measures.

    Timed passes repeat until ``--seconds`` of pass time are spent, but
    never fewer than ``p_min`` nor more than ``p_max``.  Every pass runs
    ``blocks`` blocks of ``block`` timed iterations.  On the exchange
    workloads every block is one ``solve_s`` sample, which is why they run
    several short blocks per pass: the minimum over many short windows finds
    a quiet one, the minimum over a few long windows does not.
    """

    p_min: int
    p_max: int
    block: int
    blocks: int = 1


SMOKE_PROTOCOL = Protocol(p_min=1, p_max=1, block=4, blocks=2)


class Checks:
    """Attempted and failed verifications of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Traffic:
    """Messages and bytes of one profiled iteration, by locality."""

    msgs: Dict[str, int]
    bytes: Dict[str, int]
    max_msgs_rank_inter_node: int


@dataclass
class Exchange:
    """One registered exchange of an iteration and how often it runs."""

    plan: object
    world: object
    rounds: int                 # rounds per iteration
    level: int                  # AMG level (0 on the exchange workloads)
    handle: int | None          # engine handle; None when not reachable


_LOCALITY_NAMES = {Locality.INTRA_SOCKET: "intra_socket",
                   Locality.INTER_SOCKET: "inter_socket",
                   Locality.INTER_NODE: "inter_node"}


def profile_iteration(engines: Sequence, mapping, iterate, checks: Checks,
                      exchanges: Sequence[Exchange]) -> Traffic:
    """Run one extra iteration with a profiler attached, then detach it.

    Never called during timed passes.  ``exchanges`` lists every exchange
    the iteration performs; the executed totals must equal the planner's
    own statistics.
    """
    profiler = TrafficProfiler(mapping)
    for engine in engines:
        engine.profiler = profiler
    try:
        iterate()
    finally:
        for engine in engines:
            engine.profiler = None
    by_locality = profiler.by_locality()
    traffic = Traffic(
        msgs={name: by_locality[loc].message_count if loc in by_locality else 0
              for loc, name in _LOCALITY_NAMES.items()},
        bytes={name: by_locality[loc].byte_count if loc in by_locality else 0
               for loc, name in _LOCALITY_NAMES.items()},
        max_msgs_rank_inter_node=profiler.max_messages_per_rank(
            localities=[Locality.INTER_NODE]))
    local_msgs = global_msgs = local_bytes = global_bytes = 0
    for exchange in exchanges:
        stats = exchange.plan.statistics()
        rounds = exchange.rounds
        local_msgs += rounds * stats.total_local_messages
        global_msgs += rounds * stats.total_global_messages
        local_bytes += rounds * int(stats.local_bytes.sum())
        global_bytes += rounds * stats.total_global_bytes
    total = profiler.total()
    checks.expect(total.message_count == local_msgs + global_msgs
                  and total.byte_count == local_bytes + global_bytes,
                  "profiled message/byte totals differ from plan.statistics()")
    # Aggregation regions are nodes (paper_mapping), so the planner's
    # inter-region totals are the profiler's inter-node totals.
    checks.expect(traffic.msgs["inter_node"] == global_msgs
                  and traffic.bytes["inter_node"] == global_bytes,
                  "profiled inter-node traffic differs from plan.statistics()")
    return traffic


def payload_ratio(exchanges: Sequence[Exchange]) -> float:
    """Values physically packed ÷ routing slots, over one iteration."""
    payload = slots = 0
    for exchange in exchanges:
        for message in exchange.plan.messages():
            payload += exchange.rounds * message.payload_count()
            slots += exchange.rounds * message.n_slots
    return payload / slots if slots else 1.0


# -- exchange workloads -------------------------------------------------------------


def oracle_values(item_ids: np.ndarray, item_size: int, salt: int) -> np.ndarray:
    """Closed-form value of every item: a function of its id only.

    Exactly representable in float64, so a delivered value either equals the
    oracle bit for bit or the exchange moved the wrong item.
    """
    base = ((item_ids * 2654435761 + salt) % 1000003).astype(np.float64)
    if item_size == 1:
        return base
    return base[:, None] + np.arange(item_size, dtype=np.float64) / 16.0


class ExchangeWorkload:
    """A persistent neighbourhood exchange driven round after round."""

    kind = "exchange"

    def __init__(self, name: str, *, variant: str, flat_io: bool,
                 protocol: Protocol, pattern_factory, smoke_factory):
        self.name = name
        self.variant = variant
        self.flat_io = flat_io
        self.protocol = protocol
        self._pattern_factory = pattern_factory
        self._smoke_factory = smoke_factory
        self.collective = None
        self.pattern = None
        self._values = None
        self._expected = None
        self._round = 0
        self._block_last = 0
        self._first_output = None
        self._held: List[Tuple[int, List[np.ndarray]]] = []

    # -- inputs (before the clock) ----------------------------------------------------

    def prepare(self, seed: int, smoke: bool) -> None:
        generated = (self._smoke_factory if smoke else self._pattern_factory)(seed)
        self.n_ranks = generated.n_ranks
        self.dtype = generated.dtype
        self.item_size = generated.item_size
        # The library only ever sees copies of these raw CSR columns.
        self.columns = [np.array(column) for column in generated.csr()]
        self.mapping = paper_mapping(self.n_ranks, ranks_per_node=RANKS_PER_NODE)
        self.salts = (seed % 1000, seed % 1000 + 7)
        self.smoke = smoke
        if smoke:
            self.protocol = SMOKE_PROTOCOL

    def describe(self) -> Dict:
        return {"n_ranks": self.n_ranks, "variant": self.variant,
                "io": "flat" if self.flat_io else "lists",
                "item_size": self.item_size, "dtype": str(self.dtype)}

    # -- one pass -----------------------------------------------------------------

    def fresh_columns(self) -> List[np.ndarray]:
        return [column.copy() for column in self.columns]

    def build_pattern(self, columns) -> CommPattern:
        return CommPattern.from_csr(self.n_ranks, *columns, dtype=self.dtype,
                                    item_size=self.item_size)

    def init_collective(self, pattern: CommPattern, runtime: str = RUNTIME,
                        **engine_options):
        return neighbor_alltoallv_init_world(
            pattern, self.mapping, variant=self.variant, runtime=runtime,
            **engine_options)

    def before_pass(self) -> None:
        """Untimed preparation of a pass: cold caches, copied inputs."""
        self.release()
        clear_plan_cache()
        self._fresh = self.fresh_columns()

    def take_raw(self) -> List[np.ndarray]:
        """The pass's copied raw columns (handed out once)."""
        columns, self._fresh = self._fresh, None
        return columns

    def build(self) -> None:
        """Raw columns → registered collective (the timed set-up)."""
        self.pattern = self.build_pattern(self.take_raw())
        self.collective = self.init_collective(self.pattern)

    def _inputs(self, salt: int):
        """Every rank's owned values under ``salt``, in the workload's I/O style."""
        world = self.collective.world
        flat = oracle_values(world.owned_items_all, self.item_size, salt)
        return flat if self.flat_io else np.split(flat, world.owned_offsets[1:-1])

    def first_iteration(self) -> None:
        # The values follow the collective's owned-item order, so the first
        # round's input is packed inside the set-up clock — as an
        # application's first pack would be.
        self._first_output = self.collective.exchange(self._inputs(self.salts[0]))

    def prepare_block(self, block: int) -> None:
        """Untimed: the two alternating inputs and their oracles."""
        result_items = self.collective.world.result_items_all
        self._values = [self._inputs(salt) for salt in self.salts]
        self._expected = [oracle_values(result_items, self.item_size, salt)
                          for salt in self.salts]
        self._round = 0
        self._block_last = block - 1
        self._held = []

    def iterate(self) -> None:
        """One round; alternating inputs so a stale result cannot pass."""
        index = self._round
        output = self.collective.exchange(self._values[index & 1])
        if index % CHECK_EVERY == CHECK_EVERY - 1 or index == 0 \
                or index == self._block_last:
            self._held.append((index, output))
        self._round = index + 1

    def verify_block(self, checks: Checks) -> None:
        """Compare the held rounds of the last block with the oracle (untimed)."""
        if self._first_output is not None:
            checks.expect(np.array_equal(np.concatenate(self._first_output),
                                         self._expected[0]),
                          f"{self.name}: first round differs from the oracle")
            self._first_output = None
        for index, output in self._held:
            delivered = np.concatenate(output)
            checks.expect(np.array_equal(delivered, self._expected[index & 1]),
                          f"{self.name}: round {index} differs from the oracle")
        self._held = []

    def release(self) -> None:
        if self.collective is not None:
            self.collective.close()
        self.collective = None
        self.pattern = None
        self._values = self._expected = self._first_output = None
        self._held = []

    # -- after the timed passes -----------------------------------------------------

    def exchanges(self) -> List[Exchange]:
        collective = self.collective
        return [Exchange(plan=collective.plan, world=collective.world, rounds=1,
                         level=0, handle=collective.handle)]

    def engines(self) -> List:
        return [self.collective.engine]


# -- AMG workloads ----------------------------------------------------------------


class AMGWorkload:
    """Hierarchy build + collectives set-up + V-cycles to tolerance."""

    kind = "amg"

    def __init__(self, name: str, *, n_rows: int, n_ranks: int,
                 smoke_rows: int, variant: str, protocol: Protocol):
        self.name = name
        self.n_rows = n_rows
        self.n_ranks = n_ranks
        self._smoke_rows = smoke_rows
        self.variant = variant
        self.protocol = protocol
        self.solver = None
        self.hierarchy = None
        self.matrix = None
        self._block = 0
        self._block_results: List[np.ndarray] = []

    def prepare(self, seed: int, smoke: bool) -> None:
        self.smoke = smoke
        if smoke:
            self.n_rows, self.n_ranks = self._smoke_rows, 64
            self.protocol = SMOKE_PROTOCOL
        problem = strong_scaling_problem(self.n_rows, self.n_ranks,
                                         epsilon=0.001, theta=math.pi / 4.0)
        # Raw inputs: the assembled CSR operator, the right-hand side and
        # the start vector.  Partition and ParCSR wrapper (which caches the
        # per-rank blocks) are rebuilt inside every pass.
        self.csr = problem.matrix.matrix
        self.mapping = paper_mapping(self.n_ranks, ranks_per_node=RANKS_PER_NODE)
        self.b = np.random.default_rng(seed).standard_normal(self.n_rows)
        self.x0 = np.zeros(self.n_rows)

    def describe(self) -> Dict:
        return {"n_rows": self.n_rows, "n_ranks": self.n_ranks,
                "variant": self.variant, "tol": SOLVE_TOL,
                "rows_per_rank": self.n_rows / self.n_ranks}

    # -- one pass -----------------------------------------------------------------

    def before_pass(self) -> None:
        self.release()
        clear_plan_cache()
        self._fresh = self.csr.copy()

    def build_matrix(self, csr) -> ParCSRMatrix:
        return ParCSRMatrix(csr, RowPartition.even(self.n_rows, self.n_ranks))

    def build_solver(self, matrix, hierarchy) -> WorldAMGSolver:
        return WorldAMGSolver(matrix, self.mapping, variant=self.variant,
                              hierarchy=hierarchy, runtime=RUNTIME)

    def take_raw(self):
        """The pass's copied CSR operator (handed out once)."""
        csr, self._fresh = self._fresh, None
        return csr

    def build(self) -> None:
        self.matrix = self.build_matrix(self.take_raw())
        self.hierarchy = build_hierarchy(self.matrix)
        self.solver = self.build_solver(self.matrix, self.hierarchy)

    def first_iteration(self) -> None:
        self.solver.vcycle(self.b, self.x0)

    def prepare_block(self, block: int) -> None:
        if block != self._block:
            self._block_results = []      # only equal-length blocks compare
        self._block = block
        self._x = self.x0

    def iterate(self) -> None:
        self._x = self.solver.vcycle(self.b, self._x)

    def verify_block(self, checks: Checks) -> None:
        """Every pass's block must end on the same vector, bit for bit."""
        self._block_results.append(self._x)
        checks.expect(np.array_equal(self._x, self._block_results[0]),
                      f"{self.name}: block result differs between passes")

    def release(self) -> None:
        if self.solver is not None:
            self.solver.close()
        self.solver = None
        self.hierarchy = None
        self.matrix = None

    # -- after the timed passes -----------------------------------------------------

    def solve_with(self, solver):
        """One whole solve to tolerance on ``solver`` (world or sequential)."""
        return solver.solve(self.b, tol=SOLVE_TOL,
                            max_iterations=SOLVE_MAX_ITERATIONS)

    def solve(self):
        return self.solve_with(self.solver)

    def solve_stepwise(self, clock):
        """``WorldAMGSolver.solve`` spelled out, every step under the clock.

        The same public calls in the same order — initial residual, then
        V-cycle and convergence check until the residual norm falls below
        ``tol`` times the initial one — so the iterates are those of
        :meth:`solve` bit for bit, but each cycle and each check is one timed
        sample instead of the whole solve being one.  Returns the result and
        the two sample lists (seconds).
        """
        cycle = self.solver.vcycle_executor
        b, x = self.b, self.x0
        norms = [float(np.linalg.norm(cycle.residual(b, x)))]
        cycle_s: List[float] = []
        residual_s: List[float] = []
        converged = False
        while not converged and len(cycle_s) < SOLVE_MAX_ITERATIONS:
            tick = clock()
            x = self.solver.vcycle(b, x)
            tock = clock()
            residual = cycle.residual(b, x)
            done = clock()
            cycle_s.append(tock - tick)
            residual_s.append(done - tock)
            norms.append(float(np.linalg.norm(residual)))
            converged = norms[-1] <= SOLVE_TOL * norms[0]
        result = SolveResult(solution=x, residual_norms=norms,
                             iterations=len(cycle_s), converged=converged)
        return result, cycle_s, residual_s

    def exchanges(self) -> List[Exchange]:
        """Every exchange one V-cycle performs, finest level first."""
        cycle = self.solver.vcycle_executor
        sweeps = cycle.pre_sweeps + cycle.post_sweeps
        found = []
        for index, level in enumerate(cycle.levels):
            for operator, rounds in ((level.spmv, sweeps + 1),
                                     (level.restrict, 1), (level.prolong, 1)):
                collective = operator.collective
                found.append(Exchange(plan=collective.plan, world=collective.world,
                                      rounds=rounds, level=index,
                                      handle=collective.handle))
        gather = coarse_gather_pattern(
            self.hierarchy.levels[-1].matrix.partition)
        if gather.n_messages:
            # The cycle keeps its gather collective private; the same
            # content initialised again is served from the plan cache.
            with neighbor_alltoallv_init_world(
                    gather, self.mapping, variant=self.variant,
                    runtime=RUNTIME) as twin:
                found.append(Exchange(plan=twin.plan, world=twin.world, rounds=1,
                                      level=self.hierarchy.n_levels - 1,
                                      handle=None))
        return found

    def engines(self) -> List:
        return list({id(e): e for e in self.solver.vcycle_executor.engines}.values())

    def sequential_solver(self) -> BoomerAMGSolver:
        return BoomerAMGSolver(self.matrix, hierarchy=self.hierarchy)

    def final_checks(self, checks: Checks, result) -> Dict:
        """The world-stepped solve against the sequential solver and ``A``."""
        sequential = self.sequential_solver()
        reference = self.solve_with(sequential)
        checks.expect(result.converged, f"{self.name}: solve did not converge")
        checks.expect(result.iterations == reference.iterations,
                      f"{self.name}: {result.iterations} iterations, sequential "
                      f"solver took {reference.iterations}")
        scale = float(np.linalg.norm(reference.solution))
        difference = float(np.linalg.norm(result.solution - reference.solution))
        checks.expect(difference <= SOLUTION_RTOL * scale,
                      f"{self.name}: solution differs from the sequential "
                      f"solver by {difference / scale:.2e} relative")
        residual = float(np.linalg.norm(self.b - self.csr @ result.solution))
        # x0 = 0, so the solver's target is tol * ||b||; the assembled
        # product sums in another order, hence the last-digit allowance.
        target = SOLVE_TOL * float(np.linalg.norm(self.b))
        checks.expect(residual <= target * (1.0 + 1e-9),
                      f"{self.name}: ||b - A x|| = {residual:.3e} > {target:.3e}")
        x = self.x0
        for _ in range(self._block):
            x = sequential.vcycle(self.b, x)
        drift = float(np.linalg.norm(self._block_results[-1] - x))
        checks.expect(drift <= SOLUTION_RTOL * float(np.linalg.norm(x)),
                      f"{self.name}: block of V-cycles differs from the "
                      f"sequential solver")
        return {"iterations": result.iterations,
                "convergence_factor": result.convergence_factor(),
                "final_relative_residual": residual / float(np.linalg.norm(self.b))}


# -- the registry -------------------------------------------------------------------


def _halo(seed: int) -> CommPattern:
    return halo_exchange_pattern((64, 64), points_per_cell=16, item_size=1,
                                 periodic=True)


def _halo_smoke(seed: int) -> CommPattern:
    return halo_exchange_pattern((8, 8), points_per_cell=16, item_size=1,
                                 periodic=True)


def _irregular(seed: int) -> CommPattern:
    return random_pattern(1024, avg_neighbors=24, avg_items_per_message=24,
                          duplicate_fraction=0.3, items_per_rank=128,
                          item_size=8, seed=seed)


def _irregular_smoke(seed: int) -> CommPattern:
    return random_pattern(64, avg_neighbors=8, avg_items_per_message=24,
                          duplicate_fraction=0.3, items_per_rank=128,
                          item_size=8, seed=seed)


def make_workloads() -> Dict[str, object]:
    """Fresh workload objects by name (the names later issues refer to)."""
    workloads = [
        AMGWorkload("amg_solve_256", n_rows=65536, n_ranks=256, smoke_rows=1024,
                    variant="partial",
                    protocol=Protocol(p_min=2, p_max=2, block=10)),
        AMGWorkload("amg_thin_512", n_rows=8192, n_ranks=512, smoke_rows=512,
                    variant="partial",
                    protocol=Protocol(p_min=2, p_max=3, block=8)),
        ExchangeWorkload("halo_exchange_4096", variant="standard", flat_io=False,
                         protocol=Protocol(p_min=3, p_max=11, block=25, blocks=4),
                         pattern_factory=_halo, smoke_factory=_halo_smoke),
        ExchangeWorkload("irregular_exchange_1024_wide", variant="full",
                         flat_io=True,
                         protocol=Protocol(p_min=2, p_max=3, block=10, blocks=3),
                         pattern_factory=_irregular,
                         smoke_factory=_irregular_smoke),
    ]
    return {workload.name: workload for workload in workloads}


