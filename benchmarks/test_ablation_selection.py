"""Ablation benchmark: model-driven dynamic variant selection vs oracle."""

from __future__ import annotations

from conftest import emit
from oracles import schedule_decisions

from repro.amg.vcycle import WorldVCycle
from repro.experiments.ablation import run_selection_ablation


def test_ablation_dynamic_selection(experiment_context):
    """The selection the paper proposes as future work.

    The model-driven choice amortises setup costs over an expected iteration
    count, so it may legitimately keep the standard collective on levels whose
    aggregation setup would never pay off; it must still clearly beat the
    always-standard default and stay close to the per-iteration oracle.
    """
    result = run_selection_ablation(experiment_context)
    emit("ablation_selection", result.to_table())

    assert result.policy_times["model_selection"] <= result.policy_times["always_standard"]
    assert result.policy_times["oracle"] <= result.policy_times["model_selection"] + 1e-12
    # The oracle is within reach: selection costs at most 2x the oracle time.
    assert result.policy_times["model_selection"] <= 2.0 * result.policy_times["oracle"]
    assert result.agreement >= 0.6
    # The auto column is the auto cycle's commits.
    with WorldVCycle(experiment_context.hierarchy, experiment_context.mapping,
                     variant="auto", model=experiment_context.model,
                     strategy=experiment_context.config.strategy) as cycle:
        assert result.decision_trace == schedule_decisions(cycle.schedule)
    assert result.auto_choice == [event.variant
                                  for event in result.decision_trace]
