"""Figure 9 benchmark: per-level max inter-region message counts."""

from __future__ import annotations

from conftest import emit

from repro.experiments.per_level import run_per_level


def test_fig09_global_message_counts(experiment_context):
    """Regenerate the Figure 9 series.

    Three-step aggregation sends one message per destination region handled by
    a process, so the optimized inter-region counts must never exceed the
    standard ones and must be strictly lower on the dense middle levels.
    """
    result = run_per_level(experiment_context)
    emit("fig09_global_counts", result.table_fig9())

    standard = result.global_messages["standard_global"]
    optimized = result.global_messages["optimized_global"]
    assert all(o <= s or s == 0 for s, o in zip(standard, optimized))
    # The peak standard count (middle of the hierarchy) must shrink noticeably.
    peak = max(range(len(standard)), key=lambda i: standard[i])
    if standard[peak] >= 4:
        assert optimized[peak] <= standard[peak] / 2
    # The peak sits on a coarse level, not the finest (density grows downward).
    assert peak > 0
