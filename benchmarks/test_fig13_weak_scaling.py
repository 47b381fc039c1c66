"""Figure 13 benchmark: weak scaling of the total SpMV communication time."""

from __future__ import annotations

from conftest import emit

from repro.experiments.scaling import run_weak_scaling


def test_fig13_weak_scaling(experiment_config):
    """Regenerate the Figure 13 series.

    The paper weak-scales at a fixed per-process share and reports a 1.96x
    speedup from locality-aware aggregation at 2048 processes plus 0.21x from
    duplicate removal, with the impact increasing with process count.
    """
    result = run_weak_scaling(experiment_config)
    emit("fig13_weak_scaling", result.to_table())

    partial_speedup = result.speedup("partially_optimized_neighbor")
    full_speedup = result.speedup("fully_optimized_neighbor")
    assert all(s >= 0.999 for s in partial_speedup)
    assert partial_speedup[-1] > 1.2
    assert full_speedup[-1] >= partial_speedup[-1] - 1e-12
    assert partial_speedup[-1] >= partial_speedup[0]
