"""Microbenchmarks and counted guards of the library itself.

Unlike the figure benchmarks (whose communication times are *modeled*), these
measure the real Python cost of the hot library paths: planning each collective
variant, validating plans, building communication packages, and executing a
functional exchange on the simulated runtime.  They exist so that regressions
in the reproduction's own code show up in ``pytest benchmarks --benchmark-only``.

The guards pin what made each path fast without racing two stopwatches: they
count calls (``count_calls``, root ``conftest.py``) and assert that the count
does not grow with ranks, items or messages.  Only two absolute budgets read
a clock in an assert: the 1024-rank plan pipeline and dead-worker detection.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import emit_bench

from repro.collectives import (
    Variant,
    all_plans,
    make_plan,
    neighbor_alltoallv_init,
    plan_full,
    plan_partial,
    plan_standard,
    setup_aggregation,
)
from repro.collectives.persistent import PersistentNeighborCollective
from repro.pattern import random_pattern
from repro.pattern.builders import neighbor_lists, pattern_from_edges
from repro.perfmodel import lassen_parameters
from repro.simmpi import SimWorld, dist_graph_create_adjacent, run_spmd
from repro.sparse import pattern_from_parcsr, strong_scaling_problem
from repro.topology import paper_mapping


@pytest.fixture(scope="module")
def micro_pattern():
    """A mid-sized irregular pattern shared by the planner microbenchmarks."""
    return random_pattern(256, avg_neighbors=12, avg_items_per_message=24,
                          duplicate_fraction=0.4, seed=11)


@pytest.fixture(scope="module")
def micro_mapping():
    """Placement for the microbenchmark pattern (16 ranks per node)."""
    return paper_mapping(256, ranks_per_node=16)


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL, Variant.FULL])
def test_micro_plan_construction(benchmark, micro_pattern, micro_mapping, variant):
    """Time the planner for each collective variant."""
    plan = benchmark(make_plan, micro_pattern, micro_mapping, variant)
    assert plan.n_messages > 0


def test_micro_plan_cost_evaluation(benchmark, micro_pattern, micro_mapping):
    """Time the locality-aware cost evaluation of a partial plan."""
    plan = make_plan(micro_pattern, micro_mapping, Variant.PARTIAL)
    model = lassen_parameters()
    time = benchmark(plan.modeled_time, model)
    assert time > 0.0


def test_micro_comm_pkg_construction(benchmark):
    """Time the ParCSR communication-package extraction of a 65k-row matrix."""
    problem = strong_scaling_problem(65536, 256)
    pattern = benchmark(pattern_from_parcsr, problem.matrix)
    assert pattern.n_messages > 0


def test_micro_functional_exchange(benchmark):
    """Time one functional locality-aware exchange on 16 simulated ranks."""
    n_ranks = 16
    mapping = paper_mapping(n_ranks, ranks_per_node=4)
    pattern = random_pattern(n_ranks, avg_neighbors=6, seed=5)

    def one_exchange():
        def program(comm):
            rank = comm.rank
            send_items = {d: pattern.send_items(rank, d).tolist()
                          for d in pattern.send_ranks(rank)}
            recv_items = {s: pattern.recv_items(rank, s).tolist()
                          for s in pattern.recv_ranks(rank)}
            sources, dests = neighbor_lists(pattern, rank)
            graph = dist_graph_create_adjacent(comm, sources, dests, validate=False)
            collective = neighbor_alltoallv_init(graph, send_items, recv_items, mapping,
                                                 variant=Variant.FULL)
            received = collective.exchange(
                collective.owned_item_ids.astype(np.float64))
            return received, collective.recv_item_ids
        return run_spmd(n_ranks, program, timeout=120)

    results = benchmark.pedantic(one_exchange, iterations=1, rounds=3)
    assert len(results) == n_ranks
    received = [(values, ids) for values, ids in results if ids.size]
    assert received, "at least one rank should receive halo data"
    for values, ids in received:
        assert values.tobytes() == ids.astype(np.float64).tobytes()


def test_micro_columnar_planner_speedup_over_slot_list(count_calls, micro_pattern,
                                                      micro_mapping):
    """Guard: planning is whole-array work — as many calls at 1024 ranks as at 256.

    The columnar planner replaced a per-slot implementation (one Python
    ``Slot`` per routed item, dict-of-list grouping, per-slot validation),
    kept as the oracle ``tests/collectives/test_plan_equivalence.py`` pins it
    to.  What made it fast is counted instead of timed: with the leader
    assignment precomputed, ``plan_standard`` + ``plan_partial`` +
    ``plan_full`` and the ``validate()`` of each make the same number of
    Python + C calls on the 256-rank micro pattern as on the same generator
    at 1024 ranks — four times the ranks, messages and slots.
    ``setup_aggregation`` stays outside the count: it is a per-region-pair
    Python loop (its calls grow ~15x from 256 to 1024 ranks).
    """
    def counted_plans(pattern, mapping):
        assignment = setup_aggregation(pattern, mapping)

        def plan_and_validate():
            for plan in (plan_standard(pattern, mapping),
                         plan_partial(pattern, mapping, assignment=assignment),
                         plan_full(pattern, mapping, assignment=assignment)):
                plan.validate()

        plan_and_validate()     # the pattern's cached edge tables settle
        return count_calls(plan_and_validate)

    wider = random_pattern(1024, avg_neighbors=12, avg_items_per_message=24,
                           duplicate_fraction=0.4, seed=11)
    counts = [counted_plans(micro_pattern, micro_mapping),
              counted_plans(wider, paper_mapping(1024, ranks_per_node=16))]
    print(f"\nplan_standard + plan_partial + plan_full + validate(): "
          f"{counts[0]} calls at 256 ranks, {counts[1]} at 1024")
    assert counts[0] == counts[1], counts


def test_micro_plan_pipeline_scales_to_1024_ranks():
    """The full plan pipeline at 1024 simulated ranks finishes in seconds.

    ``all_plans`` + ``statistics()`` + ``validate()`` for every variant on a
    1024-rank irregular pattern took the seed's slot-list implementation
    ~17 s; the columnar pipeline runs it in ~3 s.  The generous 60 s bound
    only catches a regression back to per-slot Python loops, not machine
    noise.
    """
    pattern = random_pattern(1024, avg_neighbors=16, avg_items_per_message=48,
                             duplicate_fraction=0.4, seed=11)
    mapping = paper_mapping(1024, ranks_per_node=16)
    start = time.perf_counter()
    plans = all_plans(pattern, mapping)
    for plan in plans.values():
        plan.statistics()
        plan.validate()
    elapsed = time.perf_counter() - start
    print(f"\n1024-rank all_plans + statistics + validate: {elapsed:.2f} s")
    assert elapsed < 60.0, \
        f"1024-rank plan pipeline took {elapsed:.1f}s — slot-loop regression?"


def test_micro_pattern_construction_speedup_over_dict_build(count_calls):
    """Guard: pattern construction is per-edge work, never per-item work.

    A 1024-rank irregular pattern's edge triples are assembled into a pattern
    with its columnar edge table (``edge_arrays()``) through the production
    CSR path (``pattern_from_edges`` -> ``CommPattern.from_edge_lists``),
    once as generated and once with every item list four times longer.  The
    seed's build extended nested dicts item by item (kept as the oracle of
    ``tests/collectives/test_construction_equivalence.py``); the CSR build
    converts each edge's list with one array call and canonicalises all
    edges with one stable lexsort, so both builds make the same number of
    Python + C calls — about eleven per edge, whatever the items.
    """
    n_ranks = 1024
    base = random_pattern(n_ranks, avg_neighbors=16, avg_items_per_message=48,
                          duplicate_fraction=0.4, seed=11)
    triples = [(src, dest, items) for src, dest, items in base.edges()]
    longer = [(src, dest, (4 * items[:, None] + np.arange(4)).ravel())
              for src, dest, items in triples]
    assert pattern_from_edges(n_ranks, longer).total_items \
        == 4 * base.total_items
    counts = [count_calls(lambda edges=edges:
                          pattern_from_edges(n_ranks, edges).edge_arrays())
              for edges in (triples, longer)]
    print(f"\n1024-rank pattern construction ({len(triples)} edges): "
          f"{counts[0]} calls at {base.total_items} items, {counts[1]} at 4x")
    assert counts[0] == counts[1], counts


def test_micro_world_engine_speedup_over_envelope_path(count_calls):
    """Guard: a world-engine round is the envelope round, in O(phases) calls.

    One exchange round of a 1024-rank irregular pattern, executed twice from
    the same plan: once through per-rank ``PersistentNeighborCollective``
    handles stepped rank-by-rank in a Python loop (the envelope-routed
    reference — every message becomes an ``Envelope`` through the mailbox
    fabric; eager delivery makes single-threaded stepping of the direct-phase
    variant deadlock-free), and once through the batched ``ExchangeEngine``.
    Clock-free: the results must be byte-identical per rank, and what makes
    the engine fast is counted instead of timed — a round is one
    ``_execute`` and one kernel ``gather`` per non-terminal receive step plus
    the output gather (which makes the terminal deliveries), whatever the
    rank or message count.  Both timings are recorded; neither is asserted.
    """
    from repro.collectives import WorldNeighborCollective, kernels
    from repro.collectives.persistent import PersistentNeighborCollective
    from repro.simmpi import ExchangeEngine, SimWorld

    rounds = 3
    n_ranks = 1024
    pattern = random_pattern(n_ranks, avg_neighbors=8, avg_items_per_message=16,
                             duplicate_fraction=0.3, seed=17)
    mapping = paper_mapping(n_ranks, ranks_per_node=16)
    plan = make_plan(pattern, mapping, Variant.STANDARD)

    # Envelope-routed reference: one per-rank handle each, stepped in a loop.
    world = SimWorld(n_ranks, timeout=120)
    per_rank = [PersistentNeighborCollective(world.comm(rank), plan)
                for rank in range(n_ranks)]
    values = [100.0 * rank + handle.owned_item_ids.astype(np.float64)
              for rank, handle in enumerate(per_rank)]

    def envelope_round():
        for handle, owned in zip(per_rank, values):
            handle.start(owned)
        return [handle.wait() for handle in per_rank]

    # World-stepped engine: same plan, one registration, one call per round.
    # The numpy kernels are Python functions, so their calls are countable.
    with ExchangeEngine(n_ranks, runtime="engine") as engine:
        collective = WorldNeighborCollective(plan, engine=engine)

        def engine_round():
            return collective.exchange(values)

        reference = envelope_round()  # warm + correctness sample
        batched = engine_round()
        for rank in range(n_ranks):
            assert reference[rank].tobytes() == batched[rank].tobytes()

        # One direct phase, whose receive step is the last hop: kept with
        # an empty range, its deliveries made by the output gather.
        steps = engine._programs[collective.handle].steps
        assert [b - a for _, src, a, b in steps if src is not None] == [0]
        counts = [count_calls(engine_round, of=of)
                  for of in ([ExchangeEngine._execute],
                             [kernels._numpy_gather])]
        assert counts == [1, 0 + 1]     # non-terminal receive steps + output

        envelope_best = engine_best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            envelope_round()
            envelope_best = min(envelope_best, time.perf_counter() - start)
        for _ in range(rounds):
            start = time.perf_counter()
            engine_round()
            engine_best = min(engine_best, time.perf_counter() - start)
    speedup = envelope_best / engine_best
    print(f"\n1024-rank exchange round ({plan.n_messages} messages): "
          f"envelope path {envelope_best * 1e3:.1f} ms, "
          f"world engine {engine_best * 1e3:.2f} ms, ratio {speedup:.1f}x; "
          f"1 _execute, 1 kernel gather per round")
    emit_bench("world_engine", speedup=speedup, baseline_s=envelope_best,
               optimized_s=engine_best, n_ranks=n_ranks,
               n_messages=plan.n_messages, kernel_backend="numpy")


def test_micro_array_path_speedup_over_dict_path(count_calls):
    """Guard: an array round enters no per-item Python frame.

    Two ranks exchange ``n`` float64 items each way through two
    ``PersistentNeighborCollective`` handles on one ``SimWorld``, stepped in
    one thread (eager delivery makes that deadlock-free).  Packing is one
    ``take`` per phase into a send arena and unpacking its mirror scatter, so
    one round makes the same number of Python + C calls at 10k and at 40k
    items, on the direct path (``standard``) and on the aggregated one
    (``full``: the two ranks sit on two nodes).  Every round's results must
    be byte-equal to the item ids the values were made from.
    """
    def counted_round(variant, n_items):
        mapping = paper_mapping(2, ranks_per_node=1)
        pattern = pattern_from_edges(2, [
            (0, 1, np.arange(n_items)),
            (1, 0, np.arange(n_items, 2 * n_items)),
        ])
        plan = make_plan(pattern, mapping, variant)
        world = SimWorld(2, timeout=60)
        handles = [PersistentNeighborCollective(world.comm(rank), plan)
                   for rank in range(2)]
        values = [handle.owned_item_ids.astype(np.float64)
                  for handle in handles]
        results = []

        def one_round():
            for handle, owned in zip(handles, values):
                handle.start(owned)
            results.append([handle.wait() for handle in handles])

        one_round()             # lazy state settles before counting
        calls = count_calls(one_round)
        for received in results:
            for handle, halo in zip(handles, received):
                assert halo.tobytes() \
                    == handle.recv_item_ids.astype(np.float64).tobytes()
        return calls

    for variant in (Variant.STANDARD, Variant.FULL):
        counts = [counted_round(variant, n) for n in (10_000, 40_000)]
        print(f"\none {variant.value} round of two handles: {counts[0]} calls "
              f"at 10k items, {counts[1]} at 40k")
        assert counts[0] == counts[1], (variant, counts)


def test_micro_world_vcycle_speedup_over_envelope_cycle(count_calls):
    """Guard: the engine-stepped V-cycle is the envelope cycle, in O(levels) calls.

    One whole AMG V-cycle (pre-smooth, residual, restrict, coarse gather +
    solve, prolong-correct, post-smooth) on a 1600-row anisotropic hierarchy,
    executed with ``DistributedVCycle`` on the thread-per-rank envelope-routed
    runtime (every halo exchange an ``Envelope`` through the mailbox fabric),
    with ``WorldVCycle`` through the batched ``ExchangeEngine``, and with the
    sequential ``BoomerAMGSolver``.  Clock-free: the three iterates must be
    equal to the bit, and what made the engine cycle fast is counted instead
    of timed — five engine rounds per smoothed level plus the coarse gather,
    one kernel ``gather`` per receive step, nothing validated after set-up, and
    not one call more at 64 ranks than at 32 (no per-rank or per-message
    Python work on the solve path).
    """
    from repro.amg import BoomerAMGSolver, build_hierarchy
    from repro.amg.vcycle import DistributedVCycle, WorldVCycle
    from repro.collectives import kernels
    from repro.simmpi import ExchangeEngine
    from repro.simmpi import engine as engine_module
    from repro.sparse import ParCSRMatrix, RowPartition, rotated_anisotropic_diffusion

    stencil = rotated_anisotropic_diffusion((40, 40))
    rng = np.random.default_rng(5)
    b = rng.standard_normal(1600)
    x0 = rng.standard_normal(1600)

    def setup(n_ranks):
        matrix = ParCSRMatrix(stencil, RowPartition.even(1600, n_ranks))
        return (matrix, build_hierarchy(matrix, seed=1),
                paper_mapping(n_ranks, ranks_per_node=16))

    def envelope_cycle(n_ranks):
        matrix, hierarchy, mapping = setup(n_ranks)

        def program(comm):
            vcycle = DistributedVCycle(comm, hierarchy, mapping,
                                       variant=Variant.STANDARD)
            first, last = matrix.partition.row_range(comm.rank)
            return vcycle.cycle(b[first:last], x0[first:last])

        return np.concatenate([np.asarray(part) for part in
                               run_spmd(n_ranks, program, timeout=300)])

    def counted_world_cycle(n_ranks):
        """The iterate and ``(_execute, gather, _checked_steps, all)`` calls
        of one cycle."""
        matrix, hierarchy, mapping = setup(n_ranks)
        iterates = []
        # The numpy kernels are Python functions, so their calls are countable.
        with ExchangeEngine(n_ranks, runtime="engine") as engine:
            world = WorldVCycle(hierarchy, mapping, variant=Variant.STANDARD,
                                engine=engine)
            world.cycle(b, x0)          # lazy caches settle before counting

            def cycle():
                iterates.append(world.cycle(b, x0))

            counts = tuple(
                count_calls(cycle, of=of) for of in (
                    [ExchangeEngine._execute], [kernels._numpy_gather],
                    [engine_module._checked_steps], None))
            exchanges = [operator.collective.world for level in world.levels
                         for operator in (level.spmv,) * 3
                         + (level.restrict, level.prolong)]
            coarse = world._coarse_active()
            exchanges += [coarse.world] if coarse is not None else []
        assert len(exchanges) == 5 * (hierarchy.n_levels - 1) + (coarse is not None)
        receive_steps = sum(1 for exchange in exchanges
                            for kind, phase in exchange.steps
                            if kind == "recv" and exchange.programs[phase].scatter.size)
        assert counts[:3] == (len(exchanges), receive_steps, 0)
        assert all(np.array_equal(iterate, iterates[0]) for iterate in iterates)
        sequential = BoomerAMGSolver(matrix, hierarchy=hierarchy).vcycle(b, x0)
        assert np.array_equal(iterates[0], sequential)
        return iterates[0], counts

    world_x, counts = counted_world_cycle(32)
    assert np.array_equal(world_x, envelope_cycle(32))
    wider_x, wider_counts = counted_world_cycle(64)
    assert np.array_equal(wider_x, world_x)     # the partition never shows
    assert wider_counts == counts
    print(f"\none V-cycle, 32 and 64 ranks: {counts[0]} engine rounds, "
          f"{counts[1]} kernel gathers, {counts[3]} calls in all")


def test_micro_fused_kernel_speedup_over_unfused(count_calls):
    """Guard: an engine round is one ``take`` per phase, equal to the 3 passes.

    One synthetic phase big enough to be memory-bound (300k wire rows of
    4-component float64 items, duplicate deliveries included) wrapped as a
    one-phase :class:`WorldExchange` in the compiler's layout: rows
    ``[owned | delivered, in first-delivery order]``.  The unfused form pays
    gather-to-wire, wire permutation and scatter; the engine runs the phase —
    a last hop, folded into the output — as one kernel ``gather``.
    Clock-free: the round must be byte-equal to the unfused composition and,
    counted, make exactly one ``gather`` call and no ``fused`` one.  Both
    timings are recorded for the trajectory; neither is asserted.
    """
    from repro.collectives import kernels
    from repro.collectives.exchange import (ExchangeSpec, WorldExchange,
                                            WorldPhaseProgram)
    from repro.collectives.plan import Phase
    from repro.simmpi import ExchangeEngine

    rounds = 5
    n_owned, n_wire, item_size = 200_000, 300_000, 4
    rng = np.random.default_rng(23)
    gather = rng.integers(0, n_owned, size=n_wire).astype(np.int64)
    perm = rng.permutation(n_wire).astype(np.int64)
    # Every source row has one target row, numbered in first-delivery order,
    # so repeat deliveries are value-consistent — the world-exchange invariant.
    copied = gather[perm]
    sources, first, target_of = np.unique(copied, return_index=True,
                                          return_inverse=True)
    row_of = np.empty(sources.size, dtype=np.int64)
    row_of[np.argsort(first)] = np.arange(sources.size)
    scatter = n_owned + row_of[target_of]
    n_rows = n_owned + sources.size
    result_rows = n_owned + rng.permutation(sources.size)
    empty = np.empty(0, dtype=np.int64)
    world = WorldExchange(
        variant=Variant.STANDARD,
        spec=ExchangeSpec(dtype=np.dtype(np.float64), item_size=item_size),
        n_ranks=1, n_world_rows=n_rows, n_unbound_rows=n_owned,
        owned_offsets=np.array([0, n_owned]),
        result_rows=result_rows, result_offsets=np.array([0, sources.size]),
        steps=(("send", Phase.DIRECT), ("recv", Phase.DIRECT)),
        programs={Phase.DIRECT: WorldPhaseProgram(
            phase=Phase.DIRECT, tag=10, gather=gather, scatter=scatter,
            wire_perm=perm, msg_sources=empty, msg_dests=empty,
            msg_nbytes=empty, src=copied[np.sort(first)], a=n_owned,
            b=n_rows)},
        owned_items_all=np.arange(n_owned), result_items_all=result_rows,
        result_sources_all=np.zeros(sources.size, dtype=np.int64))
    values = rng.standard_normal((n_owned, item_size))

    backend = kernels.active_backend()
    unfused_work = np.zeros((n_rows, item_size))
    wire = np.empty((n_wire, item_size))

    def unfused_round():
        unfused_work[:n_owned] = values
        backend.gather(unfused_work, gather, wire)
        unfused_work[scatter] = wire[perm]
        return unfused_work[result_rows]

    with ExchangeEngine(1, runtime="engine") as engine:
        handle = engine.register(world)
        assert engine.run(handle, values).tobytes() == unfused_round().tobytes()
        # The numpy kernels are Python functions, so their calls are countable.
        calls = [count_calls(engine.run, handle, values, of=[kernel])
                 for kernel in (kernels._numpy_gather, kernels._numpy_fused)]

        unfused_best = engine_best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            unfused_round()
            unfused_best = min(unfused_best, time.perf_counter() - start)
        for _ in range(rounds):
            start = time.perf_counter()
            engine.run(handle, values)
            engine_best = min(engine_best, time.perf_counter() - start)
    assert calls == [1, 0]

    speedup = unfused_best / engine_best
    print(f"\n{n_wire}-row phase ({backend.name} kernels): "
          f"unfused {unfused_best * 1e3:.2f} ms, "
          f"engine round {engine_best * 1e3:.2f} ms, ratio {speedup:.2f}x")
    emit_bench("fused_kernels", speedup=speedup, baseline_s=unfused_best,
               optimized_s=engine_best, n_ranks=1, n_wire_rows=n_wire,
               kernel_backend=backend.name)


def test_micro_procs_pool_speedup_over_single_process(count_calls):
    """Guard: a pool round is the engine's round, run by the workers.

    A communication-heavy world exchange (64 ranks, 8-component items, the
    three-step aggregated path) executed through the same compiled program
    twice: by the parent, then by a ``runtime="procs"`` pool of 4 workers.
    Clock-free — no machine this runs on has the four cores a speed gate
    needs, and what the pool is kept for is supervision: the results must be
    byte-identical per rank, a healthy round is one ``_execute`` in which the
    parent gathers exactly once (the output, which also makes the terminal
    deliveries), the program lives in two shared segments, every terminal
    receive step keeps its slot with an empty range, and each worker's share
    of every other receive step is the even split.
    """
    from repro.collectives import WorldNeighborCollective, kernels
    from repro.simmpi import ExchangeEngine
    from repro.simmpi.procs import SharedBlock, _share
    from repro.utils.arrays import partition_evenly

    n_workers = 4
    n_ranks = 64
    pattern = random_pattern(n_ranks, avg_neighbors=8,
                             avg_items_per_message=64, items_per_rank=512,
                             duplicate_fraction=0.2, seed=29, item_size=8)
    mapping = paper_mapping(n_ranks, ranks_per_node=16)
    plan = make_plan(pattern, mapping, Variant.FULL)

    # The numpy kernels are Python functions, so their calls are countable.
    with WorldNeighborCollective(plan, runtime="engine") as serial, \
            ExchangeEngine(n_ranks, runtime="procs",
                           n_workers=n_workers) as engine:
        pooled = WorldNeighborCollective(plan, engine=engine)
        values = [np.tile(100.0 * rank
                          + serial.owned_item_ids(rank).astype(np.float64),
                          (8, 1)).T.copy()
                  for rank in range(n_ranks)]
        reference = serial.exchange(values)
        results = []
        counts = [count_calls(lambda: results.append(pooled.exchange(values)),
                              of=of)
                  for of in ([ExchangeEngine._execute],
                             [kernels._numpy_gather])]
        assert counts == [1, 1]
        assert not engine.degraded and not engine.events
        for round_results in results:
            for rank in range(n_ranks):
                assert reference[rank].tobytes() == round_results[rank].tobytes()

        shared = engine._programs[pooled.handle].shared
        blocks = [value for value in vars(shared).values()
                  if isinstance(value, SharedBlock)]
        assert len(blocks) == 2 and len({block.name for block in blocks}) == 2
        receive_steps = [(a, b) for kind, a, b in shared.steps if kind == "recv"]
        terminal = _terminal_receive_steps(pooled.world)
        assert len(receive_steps) == len(terminal) and terminal[-1]
        assert all(a == b for (a, b), last_hop in zip(receive_steps, terminal)
                   if last_hop)
        non_empty = [(a, b) for a, b in receive_steps if b > a]
        assert non_empty and all(b - a >= n_workers for a, b in non_empty)
        assert shared.work.shape[0] == non_empty[-1][1]
        for a, b in non_empty:
            shares = [_share(b - a, worker, n_workers)
                      for worker in range(n_workers)]
            assert shares[0][0] == 0 and shares[-1][1] == b - a
            assert all(hi == lo for (_, hi), (lo, _) in zip(shares, shares[1:]))
            assert sorted(hi - lo for lo, hi in shares) == \
                sorted(np.diff(partition_evenly(b - a, n_workers)).tolist())
    print(f"\n{n_ranks}-rank world exchange ({plan.n_messages} messages, "
          f"{n_workers} workers): 1 _execute, 1 parent gather, 2 segments, "
          f"{len(non_empty)} of {len(receive_steps)} receive steps split "
          f"evenly, {sum(terminal)} folded into the output")


def _terminal_receive_steps(world):
    """Per receive step of ``world``, whether it is a last hop: no send step
    after it gathers a row it delivers first (rows counted in ``world``'s
    own numbering, a repeat delivery's sources included)."""
    held = np.zeros(world.n_world_rows, dtype=bool)
    held[:world.owned_items_all.size] = True
    firsts, read_after = [], []
    for kind, phase in world.steps:
        program = world.programs[phase]
        if kind == "send":
            read_after = [reads | set(program.gather.tolist())
                          for reads in read_after]
            continue
        rows = np.unique(program.scatter)
        firsts.append(rows[~held[rows]])
        held[rows] = True
        read_after.append(set())
    return [not reads.intersection(rows.tolist())
            for rows, reads in zip(firsts, read_after)]


def test_bench_procs_crash_recovery():
    """Crash-recovery latency of the supervised procs runtime.

    A worker is SIGKILLed mid-round by the deterministic fault harness.  Two
    numbers matter: *detection* (how long until the supervisor diagnoses the
    dead worker from its process sentinel) and *recovery* (the full faulted
    round: detect, respawn the pool, re-register the shared program, re-run).
    The baseline is the 120 s default ack timeout the legacy sequential
    ``poll(timeout)`` loop would have burned before noticing anything; the
    acceptance gate from the fault-tolerance work is detection < 5 s.
    """
    from repro.collectives import WorldNeighborCollective
    from repro.simmpi import ExchangeEngine, FaultPlan, FaultSpec
    from repro.simmpi.procs import _WORKER_TIMEOUT
    from repro.utils.errors import WorkerError

    n_ranks = 16
    n_workers = 2
    pattern = random_pattern(n_ranks, avg_neighbors=6,
                             avg_items_per_message=64, items_per_rank=512,
                             duplicate_fraction=0.2, seed=31)
    mapping = paper_mapping(n_ranks, ranks_per_node=4)
    plan = make_plan(pattern, mapping, Variant.FULL)

    def values(collective):
        return [100.0 * rank
                + collective.owned_item_ids(rank).astype(np.float64)
                for rank in range(n_ranks)]

    fault = FaultPlan([FaultSpec("crash", round=1, phase="send", worker=0)])

    # Detection: a generous timeout proves the diagnosis is sentinel-driven.
    engine = ExchangeEngine(n_ranks, runtime="procs", n_workers=n_workers,
                            on_failure="raise", fault_plan=fault)
    with WorldNeighborCollective(plan, engine=engine) as detect:
        detect.exchange(values(detect))  # warm round 0
        start = time.perf_counter()
        try:
            detect.exchange(values(detect))
        except WorkerError:
            detection_s = time.perf_counter() - start
        else:  # pragma: no cover - harness failure
            raise AssertionError("injected crash was not detected")
    engine.close()

    # Recovery: the same crash, but the engine respawns and retries.
    engine = ExchangeEngine(n_ranks, runtime="procs", n_workers=n_workers,
                            retry_backoff=0.01, fault_plan=fault)
    with WorldNeighborCollective(plan) as serial, \
            WorldNeighborCollective(plan, engine=engine) as pooled:
        reference = serial.exchange(values(serial))
        pooled.exchange(values(pooled))  # warm round 0
        start = time.perf_counter()
        results = pooled.exchange(values(pooled))  # faulted + recovered round
        recovery_s = time.perf_counter() - start
        for rank in range(n_ranks):
            assert np.array_equal(reference[rank], results[rank])
        assert [event.action for event in pooled.engine.events] == ["retry"]
    engine.close()

    speedup = _WORKER_TIMEOUT / detection_s
    print(f"\ncrash recovery ({n_ranks} ranks, {n_workers} workers): "
          f"detection {detection_s * 1e3:.1f} ms vs {_WORKER_TIMEOUT:.0f} s "
          f"legacy timeout ({speedup:.0f}x), full recovery "
          f"{recovery_s * 1e3:.1f} ms")
    emit_bench("procs_recovery", speedup=speedup, baseline_s=_WORKER_TIMEOUT,
               optimized_s=detection_s, n_ranks=n_ranks, n_workers=n_workers,
               detection_s=detection_s, recovery_s=recovery_s)
    assert detection_s < 5.0, \
        f"dead-worker detection took {detection_s:.2f}s, gate is 5s"
