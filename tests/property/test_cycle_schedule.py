"""The V-cycle's exchange schedule against what the cycle runs.

:attr:`~repro.amg.vcycle.WorldVCycle.schedule` is the one place that says
which exchanges a V-cycle makes: per level, each row's rounds in one
``cycle`` call and in one steady ``solve`` iteration, and the collective
they run on.  The ``variant="auto"`` commit prices levels from it, and the
tests that count rounds read it, so it is checked here against the cycle
itself:

* **traffic** (hypothesis) — over random small hierarchies and sweep
  counts, one profiled cycle with one engine per level moves exactly
  ``Σ cycle_rounds × plan.statistics()`` over each level's rows, per rank
  and in total;
* **rounds** — a steady solve iteration makes ``Σ solve_rounds`` engine
  rounds;
* **literal** — the table of one fixed 4-level geometry, and of a
  single-level hierarchy, is pinned to numbers written out here, so the
  table cannot pass by agreeing with itself.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle
from repro.collectives.plan import Variant
from repro.pattern.statistics import PatternStatistics
from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.profiler import TrafficProfiler
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping

FIELDS = ("local_messages", "global_messages", "local_bytes", "global_bytes")

STENCILS = {"poisson": poisson_2d, "anisotropic": rotated_anisotropic_diffusion}


def _rows(schedule):
    """The schedule without its collectives."""
    return [(row.level, row.operator, row.cycle_rounds, row.solve_rounds)
            for row in schedule]


def _observed(profiler, mapping, n_ranks) -> PatternStatistics:
    """A profiler's traffic folded into per-rank statistics."""
    sources, dests, nbytes = profiler.data_columns()
    stats = PatternStatistics(n_ranks=n_ranks)
    if sources.size:
        stats.add_messages(sources, mapping.same_region_many(sources, dests),
                           nbytes)
    return stats


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stencil=st.sampled_from(sorted(STENCILS)),
       grid=st.integers(min_value=10, max_value=18),
       n_ranks=st.integers(min_value=2, max_value=8),
       max_levels=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=3),
       pre_sweeps=st.integers(min_value=0, max_value=2),
       post_sweeps=st.integers(min_value=0, max_value=2),
       variant=st.sampled_from([Variant.STANDARD, Variant.PARTIAL,
                                Variant.FULL]))
def test_the_schedule_is_what_a_cycle_and_a_solve_run(
        count_calls, stencil, grid, n_ranks, max_levels, seed, pre_sweeps,
        post_sweeps, variant):
    n = grid * grid
    matrix = ParCSRMatrix(STENCILS[stencil]((grid, grid)),
                          RowPartition.even(n, n_ranks))
    hierarchy = build_hierarchy(matrix, max_levels=max_levels, seed=seed)
    assume(hierarchy.n_levels >= 2)
    mapping = paper_mapping(n_ranks, ranks_per_node=2)
    engines = [ExchangeEngine(n_ranks, runtime="engine",
                              profiler=TrafficProfiler(mapping))
               for _ in range(hierarchy.n_levels)]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    try:
        with WorldAMGSolver(matrix, mapping, hierarchy=hierarchy,
                            variant=variant, pre_sweeps=pre_sweeps,
                            post_sweeps=post_sweeps,
                            engine=engines) as solver:
            cycle = solver.vcycle_executor
            cycle.cycle(b, np.zeros(n))
            for index, engine in enumerate(engines):
                rows = [row for row in cycle.schedule if row.level == index]
                planned = [sum((row.cycle_rounds * getattr(
                    row.collective.plan.statistics(), name) for row in rows),
                    np.zeros(n_ranks, dtype=np.int64)) for name in FIELDS]
                observed = _observed(engine.profiler, mapping, n_ranks)
                for name, expected in zip(FIELDS, planned):
                    assert np.array_equal(getattr(observed, name), expected), \
                        (index, name)
                total = engine.profiler.total()
                assert total.message_count == planned[0].sum() + planned[1].sum()
                assert total.byte_count == planned[2].sum() + planned[3].sum()
            rounds = [count_calls(solver.solve, b, tol=0.0, max_iterations=k,
                                  of=[ExchangeEngine.run]) for k in (2, 3)]
            assert rounds[1] - rounds[0] == \
                sum(row.solve_rounds for row in cycle.schedule)
    finally:
        for engine in engines:
            engine.close()


def _poisson_16x16():
    matrix = ParCSRMatrix(poisson_2d((16, 16)), RowPartition.even(256, 8))
    return matrix, build_hierarchy(matrix), paper_mapping(8, ranks_per_node=4)


def test_the_table_of_a_fixed_4_level_geometry():
    """Two pre-sweeps and none after: a smoothed level makes 3 operator
    rounds per cycle; the fine one hands a solve's checked residual to its
    first sweep and so makes 3 per iteration too, the check included.  With
    no pre-sweep it has nothing to hand over, and a solve iteration makes
    one fine round more than the cycle."""
    matrix, hierarchy, mapping = _poisson_16x16()
    assert hierarchy.n_levels == 4
    with WorldVCycle(hierarchy, mapping, pre_sweeps=2, post_sweeps=0,
                     runtime="engine") as cycle:
        assert _rows(cycle.schedule) == [
            (0, "A", 3, 3), (0, "R", 1, 1), (0, "P", 1, 1),
            (1, "A", 3, 3), (1, "R", 1, 1), (1, "P", 1, 1),
            (2, "A", 3, 3), (2, "R", 1, 1), (2, "P", 1, 1),
            (3, "gather", 1, 1)]
        levels = cycle.levels
        assert [row.collective for row in cycle.schedule] == [
            collective for level in levels for collective in (
                level.spmv.collective, level.restrict.collective,
                level.prolong.collective)] + [cycle._coarse_collective]
    with WorldVCycle(hierarchy, mapping, pre_sweeps=0, post_sweeps=2,
                     runtime="engine") as cycle:
        assert _rows(cycle.schedule)[:4] == [
            (0, "A", 3, 4), (0, "R", 1, 1), (0, "P", 1, 1), (1, "A", 3, 3)]
    with WorldVCycle(hierarchy, mapping, pre_sweeps=2, post_sweeps=2,
                     runtime="engine") as cycle:
        assert sum(row.cycle_rounds for row in cycle.schedule) == 22
        assert sum(row.solve_rounds for row in cycle.schedule) == 22


def test_a_single_level_hierarchy_checks_on_its_operator_and_cycles_on_its_gather(
        count_calls):
    """No level is smoothed: the cycle is the coarse gather and solve, one
    round, and a solve iteration adds the convergence check's product on
    the fine operator, which no cycle round runs on."""
    matrix, _, mapping = _poisson_16x16()
    hierarchy = build_hierarchy(matrix, max_levels=1)
    b = np.ones(matrix.n_rows)
    with ExchangeEngine(8, runtime="engine") as engine, \
            WorldAMGSolver(matrix, mapping, hierarchy=hierarchy,
                           engine=engine) as solver:
        cycle = solver.vcycle_executor
        assert _rows(cycle.schedule) == [(0, "A", 0, 1), (0, "gather", 1, 1)]
        assert cycle.schedule[0].collective is cycle.fine_spmv.collective
        assert count_calls(cycle.cycle, b, np.zeros(matrix.n_rows),
                           of=[ExchangeEngine.run]) == 1
        rounds = [count_calls(solver.solve, b, tol=0.0, max_iterations=k,
                              of=[ExchangeEngine.run]) for k in (2, 3)]
        assert rounds[1] - rounds[0] == 2
