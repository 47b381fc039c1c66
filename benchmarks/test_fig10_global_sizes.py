"""Figure 10 benchmark: per-level max inter-region message sizes, partial vs full."""

from __future__ import annotations

from conftest import emit

from repro.experiments.per_level import run_per_level


def test_fig10_global_message_sizes(experiment_context):
    """Regenerate the Figure 10 series.

    Removing duplicate values can only shrink inter-region payloads; the paper
    reports up to a 35% reduction of the per-process maximum on a middle level
    of the hierarchy.
    """
    result = run_per_level(experiment_context)
    emit("fig10_global_sizes", result.table_fig10())

    partial = result.global_bytes["partially_optimized"]
    full = result.global_bytes["fully_optimized"]
    assert all(f <= p for p, f in zip(partial, full))
    # Somewhere in the hierarchy deduplication must make a material difference
    # (the rotated anisotropic stencil shares many values across neighbours).
    assert result.max_dedup_saving() >= 0.10
