"""Autotuner gate: the "auto" series must track the per-level best.

Runs the Figure 7 crossover driver with the ``auto`` series on the modeled
1024-rank figure — every level on its ``variant="auto"`` commit from cycle
0, the decisions ``WorldVCycle(variant="auto")`` puts on its schedule — and
gates its per-iteration cost against the best *fixed* variant and the
per-level oracle: it may never cost more than 10% (at this scale the commit
differs from the per-level ``A``-time argmin only on exact ties, so it costs
the oracle — the gate guards the machinery, the margin guards future noise
sources).
"""

from __future__ import annotations

from conftest import emit
from oracles import check_decisions, schedule_decisions

from repro.amg.vcycle import WorldVCycle
from repro.collectives.plan import Variant
from repro.experiments.config import ExperimentContext
from repro.experiments.crossover import run_crossover

N_RANKS = 1024
CANDIDATES = (Variant.STANDARD, Variant.PARTIAL, Variant.FULL)


def test_bench_autotune_tracks_per_level_best(experiment_config):
    context = ExperimentContext.build(experiment_config.with_ranks(N_RANKS))
    result = run_crossover(context, auto=True)
    emit("fig07_crossover_auto", result.to_table())

    auto_steady = result.per_iteration["auto"]
    best_fixed = min(result.per_iteration[variant] for variant in CANDIDATES)
    oracle = sum(min(profile.times[variant] for variant in CANDIDATES)
                 for profile in context.profiles)

    # The gates: auto within 10% of the best fixed variant and of the
    # per-level oracle (its theoretical floor).
    assert auto_steady <= 1.10 * best_fixed
    assert auto_steady <= 1.10 * oracle
    assert oracle <= auto_steady + 1e-15

    # The decisions justify every level's choice and are internally
    # consistent: one seed per level, naming the level's argmin.  They are
    # the auto cycle's own.
    decisions = result.decision_trace
    check_decisions(decisions)
    with WorldVCycle(context.hierarchy, context.mapping, variant="auto",
                     model=context.model,
                     strategy=context.config.strategy) as cycle:
        assert decisions == schedule_decisions(cycle.schedule)
    assert [seed.level for seed in decisions] == \
        [profile.level for profile in context.profiles]
    for profile, seed in zip(context.profiles, decisions):
        assert profile.times[Variant(seed.variant)] == \
            min(profile.times[variant] for variant in CANDIDATES)
