"""Per-level variant selection: the one rule, and the record of why.

The paper's stated future work is a "simple performance measure within the
neighborhood collective to dynamically select the optimal communication
strategy": its crossover figures show the winning variant flips with level
size and density.  The measure here is the cost model's, and there is one
selection rule, :func:`seed_event`: commit the modeled-cheapest candidate,
ties broken on candidate order, and say why.  :func:`modeled_commit`, the
one ``auto``, applies it to a level's exchanges of one solve iteration:
``variant="auto"`` (:class:`~repro.amg.vcycle.WorldVCycle`) commits each
level through it at set-up, and the experiment drivers' ``auto`` series
read the same commits; ``select_variant`` decides through the rule too.
Each commit is a :class:`DecisionEvent`, whose estimates are its
alternatives; the solve path puts every level's event on its rows of
:attr:`~repro.amg.vcycle.WorldVCycle.schedule`, a fixed variant's too, so
the schedule says what each level runs and why.  Nothing reads a clock, so
selection is bit-reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.collectives.plan import Variant
from repro.perfmodel.base import CostModel
from repro.utils.errors import ValidationError

#: Candidate protocols the selection arbitrates between — the paper's three
#: persistent neighborhood variants.  Point-to-point is the baseline the
#: crossover figures compare *against*, not a candidate.
DEFAULT_CANDIDATES: Tuple[Variant, ...] = (
    Variant.STANDARD, Variant.PARTIAL, Variant.FULL)

#: Sentinel accepted by the ``variant=`` keywords of the solve path
#: (:class:`~repro.amg.vcycle.WorldVCycle` and friends).
AUTO_VARIANT = "auto"

#: What the solve path does with a level's commit (ends its reason).
_SETUP_OUTCOME = "committed at set-up for the solve"


# -- the decision -------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class DecisionEvent:
    """One level's variant and why: what each row of
    :attr:`~repro.amg.vcycle.WorldVCycle.schedule` says it runs on.

    Under ``variant="auto"`` it is the level's :func:`modeled_commit`,
    and ``estimates`` holds every candidate's modeled seconds, keyed by
    variant value — the alternatives the commit was chosen from.  Under a
    fixed variant it has no estimates and the reason "fixed by caller".

    The event is as frozen as it says: ``estimates`` is a read-only copy of
    the mapping it was given, and the event hashes by value.
    """

    level: int
    variant: str
    estimates: Mapping[str, float]
    reason: str

    def __post_init__(self):
        object.__setattr__(self, "estimates",
                           MappingProxyType(dict(self.estimates)))

    def __hash__(self) -> int:
        return hash((self.level, self.variant,
                     tuple(sorted(self.estimates.items())), self.reason))

    def __repr__(self) -> str:
        return (f"DecisionEvent(level={self.level!r}, "
                f"variant={self.variant!r}, "
                f"estimates={dict(self.estimates)!r}, reason={self.reason!r})")


# -- the rule -----------------------------------------------------------------


def seed_event(level: int, modeled: Mapping[Variant | str, float], *,
               candidates: Sequence[Variant] = DEFAULT_CANDIDATES
               ) -> DecisionEvent:
    """The ``seed`` event committing one level's modeled-cheapest candidate.

    ``modeled`` gives the modeled seconds of every candidate, keyed by
    variant or value; each must be finite and non-negative, or
    :class:`ValidationError` is raised (a ``nan`` would otherwise decide the
    commit silently).  Ties break on candidate order, and the reason names
    the candidates the commit ties with.  The solve path commits at set-up,
    before any cycle runs, and the reason says so.

    >>> event = seed_event(0, {"standard": 2.0, "partial": 1.0, "full": 1.0})
    >>> event.variant
    'partial'
    >>> print(event.reason.replace("; ", ";\\n"))
    cost model's cheapest candidate, tied with full;
    candidate order picked the commit;
    committed at set-up for the solve
    """
    estimates: Dict[str, float] = {}
    for candidate in candidates:
        value = modeled.get(candidate)
        if value is None:
            value = modeled.get(candidate.value)
        if value is None:
            raise ValidationError(
                f"seed for level {level} lacks candidate {candidate.value!r}")
        estimates[candidate.value] = _checked_seconds(
            value, f"level {level}'s {candidate.value} estimate")
    committed = min(candidates, key=lambda v: estimates[v.value])
    tied = [candidate.value for candidate in candidates
            if candidate != committed
            and estimates[candidate.value] == estimates[committed.value]]
    if tied and len(tied) == len(candidates) - 1:   # no cheapest one to name
        why = "every candidate's estimate ties; candidate order picked the " \
              "commit"
    elif tied:
        why = (f"cost model's cheapest candidate, tied with "
               f"{', '.join(tied)}; candidate order picked the commit")
    else:
        why = "cost model's cheapest candidate"
    return DecisionEvent(level=level, variant=committed.value,
                         estimates=estimates,
                         reason=f"{why}; {_SETUP_OUTCOME}")


def modeled_commit(level: int, exchanges: Iterable[Tuple[int, Mapping]],
                   model: CostModel) -> DecisionEvent:
    """Level ``level``'s ``auto`` commit: the :func:`seed_event` of its
    ``(solve_rounds, plans)`` exchanges (``plans`` by variant), a
    candidate's estimate being ``Σ solve_rounds · plan.modeled_time(model)``
    — zero for every candidate of a level that exchanges nothing."""
    modeled = dict.fromkeys(DEFAULT_CANDIDATES, 0.0)
    for rounds, plans in exchanges:
        for candidate in modeled:
            modeled[candidate] += rounds * plans[candidate].modeled_time(model)
    return seed_event(level, modeled)


def _checked_seconds(value, what: str) -> float:
    """``value`` as seconds: a real number (not a string or a bool), finite
    and non-negative, else it raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be seconds, got {value!r}")
    seconds = float(value)
    if not (math.isfinite(seconds) and seconds >= 0.0):
        raise ValidationError(
            f"{what} must be finite and non-negative seconds, got {seconds!r}")
    return seconds
