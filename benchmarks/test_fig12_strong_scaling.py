"""Figure 12 benchmark: strong scaling of the total SpMV communication time."""

from __future__ import annotations

from conftest import emit

from repro.experiments.scaling import run_strong_scaling


def test_fig12_strong_scaling(experiment_context):
    """Regenerate the Figure 12 series.

    The paper strong-scales a 524 288-row problem and reports a 1.32x speedup
    of the partially optimized collective over standard Hypre at 2048
    processes, with a further 0.07x from duplicate removal; the benefit grows
    with process count.  At the reduced default scale the absolute factors
    differ but the ordering and the growth with scale must hold.
    """
    result = run_strong_scaling(experiment_context)
    emit("fig12_strong_scaling", result.to_table())

    partial_speedup = result.speedup("partially_optimized_neighbor")
    full_speedup = result.speedup("fully_optimized_neighbor")
    # Optimized collectives never lose (per-level fallback to standard).
    assert all(s >= 0.999 for s in partial_speedup)
    # At the largest scale the locality-aware collective clearly wins...
    assert partial_speedup[-1] > 1.2
    # ...duplicate removal adds on top...
    assert full_speedup[-1] >= partial_speedup[-1] - 1e-12
    # ...and the advantage grows as the problem is strong-scaled.
    assert partial_speedup[-1] >= partial_speedup[0]
