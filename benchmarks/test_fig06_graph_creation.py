"""Figure 6 benchmark: graph-creation cost vs process count (Spectrum vs MVAPICH)."""

from __future__ import annotations

from conftest import emit

from repro.experiments.graph_creation import run_graph_creation


def test_fig06_graph_creation(experiment_config):
    """Regenerate the Figure 6 series and check its qualitative shape.

    The paper reports MVAPICH performing ``MPI_Dist_graph_create_adjacent``
    8.6x faster than Spectrum MPI at 2048 cores, with better strong scaling.
    """
    result = run_graph_creation(experiment_config)
    emit("fig06_graph_creation", result.to_table())

    largest = result.process_counts[-1]
    assert result.costs["spectrum"][-1] > result.costs["mvapich"][-1]
    # The gap must widen with scale (strong-scaling advantage of MVAPICH).
    assert result.speedup_at(largest) > result.speedup_at(result.process_counts[0])
    if largest >= 2048:
        assert 6.0 <= result.speedup_at(2048) <= 12.0
