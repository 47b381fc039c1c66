"""Golden solve-phase equivalence suite.

:class:`WorldVCycle` runs whole cycles for all ranks through the batched
:class:`ExchangeEngine` — on both engine runtimes (single-process and
the ``"procs"`` shared-memory worker pool).  Its iterate is pinned
*byte-identical* to the seed :class:`BoomerAMGSolver` relaxing on the
assembled global operators (every product sums its rows in the assembled
operator's stored order) across stencils x partitions x mappings x sweep
counts x variants.  The traffic a cycle executes is pinned to the plans: per
level, the profiler's message columns are the plans' phase-table columns,
and the per-rank totals are the planner's predicted statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg.hierarchy import build_hierarchy
from repro.amg.solver import BoomerAMGSolver
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle
from repro.collectives.planner import make_plan
from repro.collectives.plan import Variant
from repro.pattern.statistics import PatternStatistics
from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.profiler import TrafficProfiler
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError
from oracles import schedule_pattern

N_RANKS = 8

#: stencil x partition variations; the uneven partition includes an empty rank.
CONFIGS = {
    "poisson_even": (poisson_2d((20, 20)),
                     RowPartition.even(400, N_RANKS)),
    "anisotropic_uneven": (rotated_anisotropic_diffusion((24, 24)),
                           RowPartition([0, 90, 170, 170, 260, 350, 440, 510, 576])),
}


def _build(config_key: str):
    stencil, partition = CONFIGS[config_key]
    matrix = ParCSRMatrix(stencil, partition)
    hierarchy = build_hierarchy(matrix, seed=1)
    return matrix, hierarchy


def _level_plans(hierarchy, mapping, variant, schedule, index):
    """The plans of every exchange level ``index`` runs in one cycle: per
    row of the cycle's ``schedule`` on the level, a plan made here from the
    row's pattern, ``cycle_rounds`` times."""
    return [plan for row in schedule if row.level == index and row.cycle_rounds
            for plan in [make_plan(schedule_pattern(hierarchy, index,
                                                    row.operator),
                                   mapping, variant)] * row.cycle_rounds]


def _sorted(sources, dests, nbytes):
    order = np.lexsort((nbytes, dests, sources))
    return sources[order], dests[order], nbytes[order]


def _planned_columns(plans):
    """``(srcs, dests, payload bytes)`` of every message of ``plans``, sorted."""
    tables = [(table, plan.item_bytes) for plan in plans
              for table in plan.phases.values()]
    return _sorted(np.concatenate([table.srcs for table, _ in tables]),
                   np.concatenate([table.dests for table, _ in tables]),
                   np.concatenate([table.payload_counts * item_bytes
                                   for table, item_bytes in tables]))


@pytest.mark.parametrize("runtime,n_workers", [("engine", None), ("procs", 2)])
@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL])
def test_world_cycle_byte_identical_to_seed(config_key, variant, runtime,
                                            n_workers, rng):
    matrix, hierarchy = _build(config_key)
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)

    with ExchangeEngine(N_RANKS, runtime=runtime,
                        n_workers=n_workers) as engine:
        world_x = WorldVCycle(hierarchy, mapping, variant=variant,
                              engine=engine).cycle(b, x0)
    seed_x = BoomerAMGSolver(matrix, hierarchy=hierarchy).vcycle(b, x0)
    assert world_x.tobytes() == seed_x.tobytes()


@pytest.mark.parametrize("pre_sweeps,post_sweeps", [(2, 0), (0, 2), (2, 2)])
def test_world_cycle_equivalence_across_sweep_counts(pre_sweeps, post_sweeps, rng):
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=8)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)

    world = WorldVCycle(hierarchy, mapping, variant=Variant.FULL,
                        pre_sweeps=pre_sweeps, post_sweeps=post_sweeps)
    seed = BoomerAMGSolver(matrix, hierarchy=hierarchy,
                           pre_sweeps=pre_sweeps, post_sweeps=post_sweeps)
    assert world.cycle(b, x0).tobytes() == seed.vcycle(b, x0).tobytes()


@pytest.mark.parametrize("ranks_per_node", [4, 8])
def test_world_cycle_identical_across_mappings(ranks_per_node, rng):
    """The mapping changes plans (regions), never the numerical result."""
    matrix, hierarchy = _build("anisotropic_uneven")
    mapping = paper_mapping(N_RANKS, ranks_per_node=ranks_per_node)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)
    world_x = WorldVCycle(hierarchy, mapping, variant=Variant.FULL).cycle(b, x0)
    seed_x = BoomerAMGSolver(matrix, hierarchy=hierarchy).vcycle(b, x0)
    assert world_x.tobytes() == seed_x.tobytes()


@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL])
def test_per_level_profiler_totals_identical(config_key, variant, rng):
    """Every message a level sends in a cycle is a message of its plans.

    Per level, the profiler's ``(src, dest, nbytes)`` columns are — as a
    multiset — the phase-table columns ``(srcs, dests, payload_counts *
    item_bytes)`` of each exchange of the cycle's schedule on the level, once
    per cycle round: the operator's once per smoother sweep and once for the
    residual, then the restriction's and the prolongation's; on the coarsest
    level, the coarse gather's.
    """
    matrix, hierarchy = _build(config_key)
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)
    n_levels = hierarchy.n_levels

    engines = _level_engines(mapping, n_levels)
    world = WorldVCycle(hierarchy, mapping, variant=variant, engine=engines)
    world.cycle(b, x0)

    for index, engine in enumerate(engines):
        planned = _planned_columns(
            _level_plans(hierarchy, mapping, variant, world.schedule, index))
        observed = _sorted(*engine.profiler.data_columns())
        assert planned[0].size, f"level {index} planned no traffic"
        for observed_column, planned_column in zip(observed, planned):
            assert np.array_equal(observed_column, planned_column), index


def _level_engines(mapping, n_levels):
    """One engine per level, each accounting its level's traffic on its
    own profiler."""
    return [ExchangeEngine(N_RANKS, profiler=TrafficProfiler(mapping))
            for _ in range(n_levels)]


def _merged(parts):
    """Element-wise sum of per-plan statistics."""
    return PatternStatistics(n_ranks=parts[0].n_ranks, **{
        name: sum(getattr(part, name) for part in parts)
        for name in ("local_messages", "global_messages", "local_bytes",
                     "global_bytes")})


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
def test_executed_cycle_statistics_match_planned(variant, rng):
    """Per-level executed traffic of a cycle equals the planner's prediction.

    Each row of the cycle's schedule runs its ``cycle_rounds``: a
    (non-coarsest) level one operator exchange per smoother sweep and one
    for the residual, plus one restriction and one prolongation, the
    coarsest level one gather round.  Summing the planned per-rank
    statistics of those plans must reproduce the profiler-observed traffic
    exactly.
    """
    matrix, hierarchy = _build("anisotropic_uneven")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)
    n_levels = hierarchy.n_levels

    engines = _level_engines(mapping, n_levels)
    world = WorldVCycle(hierarchy, mapping, variant=variant, engine=engines)
    world.cycle(b, x0)

    for index in range(n_levels):
        expected = _merged([plan.statistics() for plan in _level_plans(
            hierarchy, mapping, variant, world.schedule, index)])
        sources, dests, nbytes = engines[index].profiler.data_columns()
        observed = PatternStatistics(n_ranks=N_RANKS)
        if sources.size:
            observed.add_messages(sources,
                                  mapping.same_region_many(sources, dests),
                                  nbytes)
        assert np.array_equal(observed.local_messages, expected.local_messages)
        assert np.array_equal(observed.global_messages, expected.global_messages)
        assert np.array_equal(observed.local_bytes, expected.local_bytes)
        assert np.array_equal(observed.global_bytes, expected.global_bytes)


def test_world_solver_matches_seed_solver(rng):
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    x_exact = rng.random(matrix.n_rows)
    b = matrix.matrix @ x_exact

    seed_result = BoomerAMGSolver(matrix, hierarchy=hierarchy).solve(
        b, tol=1e-8, max_iterations=100)
    world_result = WorldAMGSolver(matrix, mapping,
                                  hierarchy=hierarchy).solve(
        b, tol=1e-8, max_iterations=100)

    assert world_result.converged and seed_result.converged
    assert world_result.iterations == seed_result.iterations
    assert np.array_equal(world_result.solution, seed_result.solution)
    assert world_result.residual_norms == seed_result.residual_norms


def test_world_solver_reuses_shared_engine(rng):
    """All levels of a solve can register with one caller-supplied engine."""
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    profiler = TrafficProfiler(mapping)
    with ExchangeEngine(N_RANKS, profiler=profiler) as engine:
        solver = WorldAMGSolver(matrix, mapping, hierarchy=hierarchy,
                                engine=engine)
        b = rng.standard_normal(matrix.n_rows)
        result = solver.solve(b, tol=1e-6, max_iterations=50)
        assert not engine.closed        # the solver leaves it to its owner
    assert result.converged
    assert profiler.total().message_count > 0


def test_cycle_closes_only_the_engine_it_built():
    """``close`` releases the cycle's private engine; one engine or one per
    level that the caller passed belongs to the caller and stays open."""
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    with WorldVCycle(hierarchy, mapping) as private:
        built = private.engines[0]
        assert all(engine is built for engine in private.engines)
    assert built.closed
    engines = _level_engines(mapping, hierarchy.n_levels)
    with WorldVCycle(hierarchy, mapping, engine=engines) as per_level:
        assert per_level.engines == engines
    assert not any(engine.closed for engine in engines)


def test_vcycle_validation():
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    world = WorldVCycle(hierarchy, mapping)
    with pytest.raises(ValidationError):
        world.cycle(np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError):
        WorldVCycle(hierarchy, mapping, pre_sweeps=-1)
    with pytest.raises(ValidationError, match="n_levels"):
        WorldVCycle(hierarchy, mapping, engine=[ExchangeEngine(N_RANKS)])
    # A runtime alongside an engine would be silently ignored; the
    # conflict must be rejected instead.
    with pytest.raises(ValidationError, match="runtime"):
        WorldVCycle(hierarchy, mapping, engine=ExchangeEngine(N_RANKS),
                    runtime="engine")
    # A mapping smaller than the hierarchy's partition must fail up front
    # with a clear error, not deep inside the planner.
    with pytest.raises(ValidationError, match="mapping covers"):
        WorldVCycle(hierarchy, paper_mapping(4, ranks_per_node=4))


@pytest.mark.parametrize("engine", [5, [5, 5, 5, 5]],
                         ids=["int", "list-of-int"])
def test_an_engine_that_is_no_engine_is_a_validation_error(engine):
    """``engine=`` takes one ExchangeEngine or a sequence of one per level;
    anything else is refused with the documented error, not a TypeError
    from deep in the set-up."""
    _, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    with pytest.raises(ValidationError, match="one ExchangeEngine or one per "
                                              "level"):
        WorldVCycle(hierarchy, mapping, engine=engine)


def _mismatched_inputs():
    """``(matrix, hierarchy)`` pairs whose fine operator differs from the
    matrix: in shape (16 rows against 64), and in partition offsets only."""
    small = ParCSRMatrix(poisson_2d((4, 4)), RowPartition.even(16, N_RANKS))
    large = ParCSRMatrix(poisson_2d((8, 8)), RowPartition.even(64, N_RANKS))
    shifted = ParCSRMatrix(poisson_2d((8, 8)), RowPartition(
        [0, 4, 16, 24, 32, 40, 48, 56, 64]))
    return [(small, build_hierarchy(large)), (shifted, build_hierarchy(large))]


@pytest.mark.parametrize("pair", [0, 1], ids=["shape", "partition"])
def test_a_hierarchy_of_another_matrix_is_refused_at_construction(pair):
    """Both solvers refuse a hierarchy whose fine operator is not the
    matrix's — same shape and same partition offsets — when they are built,
    instead of constructing and then rejecting a correct right-hand side at
    the first solve."""
    matrix, hierarchy = _mismatched_inputs()[pair]
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    with pytest.raises(ValidationError, match="does not match the matrix"):
        WorldAMGSolver(matrix, mapping, hierarchy=hierarchy)
    with pytest.raises(ValidationError, match="does not match the matrix"):
        BoomerAMGSolver(matrix, hierarchy=hierarchy)


@pytest.mark.parametrize("variant", ["bogus", "Partial", 3])
def test_an_unknown_variant_is_a_validation_error_naming_the_accepted_ones(
        variant):
    """Every entry point refuses a variant it cannot parse with a
    :class:`ValidationError` (a ``ReproError``) that lists what it takes:
    the solve path ``"auto"`` and the protocols, the planner the protocols.
    """
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    protocols = r"\('point_to_point', 'standard', 'partial', 'full'\)"
    with pytest.raises(ValidationError, match=rf"'auto' or one of {protocols}"):
        WorldVCycle(hierarchy, mapping, variant=variant)
    with pytest.raises(ValidationError, match=rf"'auto' or one of {protocols}"):
        WorldAMGSolver(matrix, mapping, hierarchy=hierarchy, variant=variant)
    with pytest.raises(ValidationError, match=f"one of {protocols}"):
        make_plan(pattern_from_parcsr(matrix), mapping, variant)
