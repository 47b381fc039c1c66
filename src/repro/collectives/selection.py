"""Dynamic variant selection (the paper's future-work extension).

The paper observes that locality-aware collectives can *lose* on patterns with
little communication (the fine AMG levels) and win on dense ones (the middle
levels), and that a "simple performance measure is needed within the
neighborhood collective to dynamically select the optimal communication
strategy".  :func:`select_variant` implements exactly that: build every
variant's plan, time it with a cost model, amortise the setup cost over an
expected iteration count, and commit the cheapest through the one selection
rule, :func:`~repro.collectives.autotune.seed_event` (ties break on candidate
order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.collectives.aggregation import BalanceStrategy
from repro.collectives.autotune import DEFAULT_CANDIDATES, seed_event
from repro.collectives.plan import CollectivePlan, Variant
from repro.collectives.planner import all_plans
from repro.pattern.comm_pattern import CommPattern
from repro.perfmodel.base import CostModel
from repro.perfmodel.params import SetupCostModel
from repro.topology.mapping import RankMapping
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a dynamic selection."""

    variant: Variant
    plan: CollectivePlan
    per_iteration: Mapping[Variant, float]
    setup: Mapping[Variant, float]
    expected_iterations: int


def select_variant(pattern: CommPattern, mapping: RankMapping, model: CostModel, *,
                   expected_iterations: int = 1000,
                   setup_model: SetupCostModel | None = None,
                   strategy: BalanceStrategy = BalanceStrategy.BYTES
                   ) -> SelectionResult:
    """Pick the cheapest neighborhood variant for a pattern under a cost model.

    Parameters
    ----------
    expected_iterations:
        How many Start/Wait iterations the setup cost will be amortised over
        (the solve phase of AMG typically runs hundreds to thousands), so
        short-lived patterns fall back to cheaper setups.
    """
    if expected_iterations < 1:
        raise ValidationError("expected_iterations must be >= 1")
    setup_model = setup_model or SetupCostModel()
    plans = all_plans(pattern, mapping, strategy=strategy)

    per_iteration = {variant: plans[variant].modeled_time(model)
                     for variant in DEFAULT_CANDIDATES}
    setup = {variant: setup_model.cost(*plans[variant].setup_costs())
             if variant in (Variant.PARTIAL, Variant.FULL) else 0.0
             for variant in DEFAULT_CANDIDATES}
    totals = {variant: setup[variant] + expected_iterations * per_iteration[variant]
              for variant in DEFAULT_CANDIDATES}
    for variant, total in totals.items():
        if not (math.isfinite(total) and total >= 0.0):
            raise ValidationError(
                f"select_variant's {variant.value} total (setup plus "
                f"{expected_iterations} iterations) must be finite and "
                f"non-negative seconds, got {total!r}")
    best = Variant(seed_event(0, totals).variant)
    return SelectionResult(variant=best, plan=plans[best],
                           per_iteration=per_iteration, setup=setup,
                           expected_iterations=expected_iterations)
