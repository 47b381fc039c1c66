"""Figure 8 benchmark: per-level max intra-region message counts."""

from __future__ import annotations

from conftest import emit

from repro.experiments.per_level import run_per_level


def test_fig08_local_message_counts(experiment_context):
    """Regenerate the Figure 8 series.

    Locality-aware aggregation trades inter-region messages for additional
    intra-region redistribution, so the optimized local counts must be at
    least as high as the standard ones on the communication-heavy levels.
    """
    result = run_per_level(experiment_context)
    emit("fig08_local_counts", result.table_fig8())

    standard = result.local_messages["standard_local"]
    optimized = result.local_messages["optimized_local"]
    assert len(standard) == len(optimized) == len(result.levels)
    # On the busiest level the optimized scheme sends more local messages.
    busiest = max(range(len(standard)), key=lambda i: standard[i] + optimized[i])
    assert optimized[busiest] >= standard[busiest]
    # Aggregate over the hierarchy: local traffic increases under aggregation.
    assert sum(optimized) >= sum(standard)
