"""Ablation experiments for the design choices docs/ARCHITECTURE.md describes.

Two ablations beyond the paper's figures:

* **Dynamic selection** (the paper's future-work item; "Per-level
  selection" in the architecture document): how close does the
  model-driven selection of :mod:`repro.collectives.selection` come to the
  oracle (per-level minimum over all variants), and how much does it improve
  over always using one fixed variant?
* **Load balancing**: round-robin vs byte-balanced assignment of destination
  regions to the processes of a region (the "load balancing" the paper's
  aggregation setup performs; "Leader tables" in the architecture
  document).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.autotune import DecisionEvent, seed_event
from repro.collectives.plan import Variant
from repro.collectives.planner import plan_partial
from repro.collectives.selection import select_variant
from repro.experiments.config import ExperimentContext
from repro.utils.formatting import format_table


@dataclass
class SelectionAblationResult:
    """Per-level variant choices and aggregate times of each policy.

    ``auto_choice`` is each level's ``WorldVCycle(variant="auto")`` commit
    (:attr:`~repro.experiments.config.ExperimentContext.decisions`), and
    :attr:`decision_trace` holds each level's commit and why.
    ``oracle_choice`` is each level's
    :func:`~repro.collectives.autotune.seed_event` over its ``A``-pattern
    modeled times alone.  The two differ where the commit's other rows
    break an ``A`` tie, and on the coarsest level, whose commit prices its
    gather.  The model choice decides through the same rule (ties break on
    candidate order) on setup plus iteration totals, so it differs from the
    oracle only where those costs do.
    """

    levels: List[int]
    model_choice: List[str]
    oracle_choice: List[str]
    auto_choice: List[str] = field(default_factory=list)
    policy_times: Dict[str, float] = field(default_factory=dict)
    decision_trace: Optional[Tuple[DecisionEvent, ...]] = None

    @property
    def agreement(self) -> float:
        """Fraction of levels where the model picks the oracle's variant."""
        if not self.levels:
            return 1.0
        matches = sum(1 for a, b in zip(self.model_choice, self.oracle_choice) if a == b)
        return matches / len(self.levels)

    def to_table(self) -> str:
        """Render choices per level plus aggregate policy times."""
        rows = list(zip(self.levels, self.model_choice, self.auto_choice,
                        self.oracle_choice))
        table = format_table(["level", "model choice", "auto choice",
                              "oracle choice"], rows,
                             title="Ablation: dynamic variant selection")
        lines = [table, "", "total modeled time per policy (seconds):"]
        for policy, time in sorted(self.policy_times.items()):
            lines.append(f"  {policy:>22s}: {time:.6e}")
        lines.append(f"  model/oracle agreement: {self.agreement:.0%}")
        return "\n".join(lines)


def run_selection_ablation(context: ExperimentContext) -> SelectionAblationResult:
    """Compare model-driven selection with the oracle and fixed policies.

    Five fixed/static policies plus ``auto``: every level on the variant
    ``WorldVCycle(variant="auto")`` commits, at its ``A``-pattern modeled
    time like every other policy.  The model selection amortises each
    variant's setup over
    :func:`~repro.collectives.selection.select_variant`'s default of 1000
    iterations.
    """
    profiles = context.profiles

    model_choice: List[str] = []
    policy_times: Dict[str, float] = {
        "always_standard": 0.0,
        "always_partial": 0.0,
        "always_full": 0.0,
        "model_selection": 0.0,
        "oracle": 0.0,
        "auto": 0.0,
    }
    decisions = context.decisions
    oracle_choice = [Variant(seed_event(profile.level, profile.times).variant)
                     for profile in profiles]
    for profile, oracle, decision in zip(profiles, oracle_choice, decisions):
        selection = select_variant(profile.pattern, context.mapping, context.model,
                                   setup_model=context.setup_model,
                                   strategy=context.config.strategy)
        model_choice.append(selection.variant.value)
        policy_times["always_standard"] += profile.times[Variant.STANDARD]
        policy_times["always_partial"] += profile.times[Variant.PARTIAL]
        policy_times["always_full"] += profile.times[Variant.FULL]
        policy_times["model_selection"] += profile.times[selection.variant]
        policy_times["oracle"] += profile.times[oracle]
        policy_times["auto"] += profile.times[Variant(decision.variant)]
    return SelectionAblationResult(levels=[p.level for p in profiles],
                                   model_choice=model_choice,
                                   oracle_choice=[v.value for v in oracle_choice],
                                   auto_choice=[d.variant for d in decisions],
                                   policy_times=policy_times,
                                   decision_trace=decisions)


@dataclass
class BalanceAblationResult:
    """Aggregate inter-region imbalance and modeled time per balance strategy."""

    strategies: List[str]
    max_global_bytes: List[int]
    total_times: List[float]

    def to_table(self) -> str:
        """Render one row per strategy."""
        rows = [(s, b, f"{t:.6e}") for s, b, t in
                zip(self.strategies, self.max_global_bytes, self.total_times)]
        return format_table(["strategy", "max inter-region bytes/process",
                             "total modeled time (s)"], rows,
                            title="Ablation: aggregation load balancing")


def run_balance_ablation(context: ExperimentContext) -> BalanceAblationResult:
    """Compare the two leader-assignment strategies on every AMG level."""
    strategies = [BalanceStrategy.ROUND_ROBIN, BalanceStrategy.BYTES]
    max_bytes: List[int] = []
    times: List[float] = []
    for strategy in strategies:
        worst = 0
        total = 0.0
        for profile in context.profiles:
            plan = plan_partial(profile.pattern, context.mapping, strategy=strategy)
            stats = plan.statistics()
            worst = max(worst, stats.max_global_bytes)
            total += plan.modeled_time(context.model)
        max_bytes.append(worst)
        times.append(total)
    return BalanceAblationResult(strategies=[s.value for s in strategies],
                                 max_global_bytes=max_bytes, total_times=times)
