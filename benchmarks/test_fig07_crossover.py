"""Figure 7 benchmark: initialisation amortisation and crossover iteration counts."""

from __future__ import annotations

from conftest import emit

from repro.collectives import Variant
from repro.experiments.crossover import run_crossover


def test_fig07_crossover(experiment_context):
    """Regenerate the Figure 7 series and check the crossover structure.

    The paper finds the fully optimized collective amortising its setup after
    ~22 iterations and the partially optimized one after ~40 (the partial
    implementation wraps the full one, so its initialisation is more
    expensive while its per-iteration cost is no better).
    """
    result = run_crossover(experiment_context)
    emit("fig07_crossover", result.to_table())

    # The standard neighborhood collective costs only the graph creation.
    assert result.init_costs[Variant.STANDARD] < result.init_costs[Variant.FULL]
    # Partial wraps full: higher initialisation cost.
    assert result.init_costs[Variant.PARTIAL] > result.init_costs[Variant.FULL]
    # Optimized variants are cheaper per iteration, so crossovers exist...
    assert result.crossovers[Variant.PARTIAL] is not None
    assert result.crossovers[Variant.FULL] is not None
    # ...and the cheaper setup of the fully optimized variant pays off sooner.
    assert result.crossovers[Variant.FULL] <= result.crossovers[Variant.PARTIAL]
