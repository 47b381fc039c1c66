"""Figure 11 benchmark: per-level SpMV communication time for all four protocols."""

from __future__ import annotations

from conftest import emit

from repro.experiments.per_level import run_per_level


def test_fig11_per_level_times(experiment_context):
    """Regenerate the Figure 11 series.

    Fine levels have little communication (standard may win there thanks to
    the extra redistribution the optimized variants pay); the coarse/middle
    levels are where locality-aware aggregation pays off.
    """
    result = run_per_level(experiment_context)
    emit("fig11_level_times", result.table_fig11())

    hypre = result.times["standard_hypre"]
    neighbor = result.times["unoptimized_neighbor"]
    partial = result.times["partially_optimized_neighbor"]
    full = result.times["fully_optimized_neighbor"]
    # The unoptimized neighborhood collective wraps the same messages as the
    # point-to-point baseline: identical modeled cost.
    assert neighbor == hypre
    # On the most expensive standard level the optimized collectives win.
    worst = max(range(len(hypre)), key=lambda i: hypre[i])
    assert partial[worst] < hypre[worst]
    assert full[worst] <= partial[worst]
    # Summed over the hierarchy the optimized variants are no slower.
    assert sum(full) <= sum(hypre)
