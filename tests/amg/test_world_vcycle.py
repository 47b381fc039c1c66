"""Golden solve-phase equivalence suite.

The distributed V-cycle exists in three forms that must agree:

* the seed :class:`BoomerAMGSolver` relaxing on the assembled global
  operators (the numerical reference),
* :class:`DistributedVCycle`, one rank per thread on the envelope-routed
  runtime (the pinned byte-level reference for the engine), and
* :class:`WorldVCycle`, whole cycles for all ranks through the batched
  :class:`ExchangeEngine` — on both engine runtimes (single-process fused
  kernels and the ``"procs"`` shared-memory worker pool).

World vs envelope is pinned *byte-identical* — results and per-level
data-path profiler totals — across stencils x partitions x mappings x sweep
counts x variants; both are pinned *equal* to the seed solver as well (every
product sums its rows in the assembled operator's stored order), and the
executed per-level traffic of a cycle is pinned equal to the planner's
predicted statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg.hierarchy import build_hierarchy
from repro.amg.solver import BoomerAMGSolver
from repro.amg.vcycle import (
    DistributedVCycle,
    WorldAMGSolver,
    WorldVCycle,
    coarse_gather_pattern,
)
from repro.collectives.planner import make_plan
from repro.collectives.plan import Variant
from repro.pattern.statistics import PatternStatistics
from repro.simmpi.profiler import TrafficProfiler
from repro.simmpi.world import run_spmd
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

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


def _distributed_cycle(hierarchy, mapping, b, x0, *, variant,
                       pre_sweeps=1, post_sweeps=1, level_profilers=None):
    """One envelope-routed V-cycle for all ranks; returns the global iterate."""
    partition = hierarchy.levels[0].matrix.partition

    def program(comm):
        vcycle = DistributedVCycle(comm, hierarchy, mapping, variant=variant,
                                   pre_sweeps=pre_sweeps, post_sweeps=post_sweeps,
                                   level_profilers=level_profilers)
        first, last = partition.row_range(comm.rank)
        return vcycle.cycle(b[first:last], x0[first:last])

    per_rank = run_spmd(partition.n_ranks, program, timeout=120)
    return np.concatenate([np.asarray(values) for values in per_rank])


def _sorted_columns(profiler):
    sources, dests, nbytes = profiler.data_columns()
    order = np.lexsort((nbytes, dests, sources))
    return sources[order], dests[order], nbytes[order]


@pytest.mark.parametrize("runtime,n_workers", [("engine", None), ("procs", 2)])
@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL])
def test_world_cycle_byte_identical_to_envelope_and_matches_seed(
        config_key, variant, runtime, n_workers, rng):
    matrix, hierarchy = _build(config_key)
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)

    with WorldVCycle(hierarchy, mapping, variant=variant, runtime=runtime,
                     n_workers=n_workers) as world:
        world_x = world.cycle(b, x0)
    envelope_x = _distributed_cycle(hierarchy, mapping, b, x0, variant=variant)
    assert np.array_equal(world_x, envelope_x)

    seed_x = BoomerAMGSolver(matrix, hierarchy=hierarchy).vcycle(b, x0)
    assert np.array_equal(world_x, seed_x)


@pytest.mark.parametrize("pre_sweeps,post_sweeps", [(2, 0), (0, 2), (2, 2)])
def test_world_cycle_equivalence_across_sweep_counts(pre_sweeps, post_sweeps, rng):
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=8)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)

    world = WorldVCycle(hierarchy, mapping, variant=Variant.FULL,
                        pre_sweeps=pre_sweeps, post_sweeps=post_sweeps)
    world_x = world.cycle(b, x0)
    envelope_x = _distributed_cycle(hierarchy, mapping, b, x0,
                                    variant=Variant.FULL,
                                    pre_sweeps=pre_sweeps,
                                    post_sweeps=post_sweeps)
    assert np.array_equal(world_x, envelope_x)

    seed = BoomerAMGSolver(matrix, hierarchy=hierarchy,
                           pre_sweeps=pre_sweeps, post_sweeps=post_sweeps)
    assert np.array_equal(world_x, seed.vcycle(b, x0))


@pytest.mark.parametrize("ranks_per_node", [4, 8])
def test_world_cycle_identical_across_mappings(ranks_per_node, rng):
    """The mapping changes plans (regions), never the numerical result."""
    matrix, hierarchy = _build("anisotropic_uneven")
    mapping = paper_mapping(N_RANKS, ranks_per_node=ranks_per_node)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)
    world_x = WorldVCycle(hierarchy, mapping, variant=Variant.FULL).cycle(b, x0)
    envelope_x = _distributed_cycle(hierarchy, mapping, b, x0,
                                    variant=Variant.FULL)
    assert np.array_equal(world_x, envelope_x)
    assert np.array_equal(
        world_x, BoomerAMGSolver(matrix, hierarchy=hierarchy).vcycle(b, x0))


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
def test_per_level_profiler_totals_identical(variant, rng):
    """World engine and envelope runtime move identical per-level traffic."""
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)
    n_levels = hierarchy.n_levels

    world_profilers = [TrafficProfiler(mapping) for _ in range(n_levels)]
    WorldVCycle(hierarchy, mapping, variant=variant,
                level_profilers=world_profilers).cycle(b, x0)

    envelope_profilers = [TrafficProfiler(mapping) for _ in range(n_levels)]
    _distributed_cycle(hierarchy, mapping, b, x0, variant=variant,
                       level_profilers=envelope_profilers)

    for world_prof, envelope_prof in zip(world_profilers, envelope_profilers):
        for world_column, envelope_column in zip(_sorted_columns(world_prof),
                                                 _sorted_columns(envelope_prof)):
            assert np.array_equal(world_column, envelope_column)


def _merged(parts):
    result = parts[0]
    for part in parts[1:]:
        result = result.merged_with(part)
    return result


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
def test_executed_cycle_statistics_match_planned(variant, rng):
    """Per-level executed traffic of a cycle equals the planner's prediction.

    A (non-coarsest) level performs ``pre_sweeps + 1 + post_sweeps`` operator
    exchanges plus one restriction and one prolongation; the coarsest level
    performs one gather round.  Summing the planned per-rank statistics of
    those plans must reproduce the profiler-observed traffic exactly.
    """
    matrix, hierarchy = _build("anisotropic_uneven")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)
    n_levels = hierarchy.n_levels

    profilers = [TrafficProfiler(mapping) for _ in range(n_levels)]
    WorldVCycle(hierarchy, mapping, variant=variant,
                level_profilers=profilers).cycle(b, x0)

    for index in range(n_levels):
        if index < n_levels - 1:
            operator_stats = make_plan(
                pattern_from_parcsr(hierarchy.levels[index].matrix), mapping,
                variant).statistics()
            restrict_stats = make_plan(
                pattern_from_parcsr(hierarchy.restriction_matrix(index)), mapping,
                variant).statistics()
            prolong_stats = make_plan(
                pattern_from_parcsr(hierarchy.prolongation_matrix(index)), mapping,
                variant).statistics()
            expected = _merged([operator_stats] * 3
                               + [restrict_stats, prolong_stats])
        else:
            expected = make_plan(
                coarse_gather_pattern(hierarchy.levels[index].matrix.partition),
                mapping, variant).statistics()
        sources, dests, nbytes = profilers[index].data_columns()
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
    from repro.simmpi.world import SimWorld

    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    world = SimWorld(N_RANKS, profiler=TrafficProfiler(mapping))
    engine = world.exchange_engine()
    solver = WorldAMGSolver(matrix, mapping, hierarchy=hierarchy, engine=engine)
    b = rng.standard_normal(matrix.n_rows)
    result = solver.solve(b, tol=1e-6, max_iterations=50)
    assert result.converged
    assert world.profiler.total().message_count > 0


def test_vcycle_validation():
    matrix, hierarchy = _build("poisson_even")
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    world = WorldVCycle(hierarchy, mapping)
    with pytest.raises(ValidationError):
        world.cycle(np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError):
        WorldVCycle(hierarchy, mapping, pre_sweeps=-1)
    with pytest.raises(ValidationError):
        WorldVCycle(hierarchy, mapping,
                    level_profilers=[TrafficProfiler(mapping)])
    # A profiler alongside an engine (or per-level profilers) would be
    # silently ignored; the conflict must be rejected instead.
    from repro.simmpi.engine import ExchangeEngine

    with pytest.raises(ValidationError):
        WorldVCycle(hierarchy, mapping, engine=ExchangeEngine(N_RANKS),
                    profiler=TrafficProfiler(mapping))
    # A mapping smaller than the hierarchy's partition must fail up front
    # with a clear error, not deep inside the planner.
    with pytest.raises(ValidationError, match="mapping covers"):
        WorldVCycle(hierarchy, paper_mapping(4, ranks_per_node=4))
