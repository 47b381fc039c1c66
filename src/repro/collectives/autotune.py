"""Per-level variant selection with an auditable decision trace.

The paper's stated future work is a "simple performance measure within the
neighborhood collective to dynamically select the optimal communication
strategy": its crossover figures show the winning variant flips with level
size and density.  The measure here is the cost model's, and there is one
selection rule, :func:`seed_event`: commit the modeled-cheapest candidate,
ties broken on candidate order, and say why.  ``variant="auto"``
(:class:`~repro.amg.vcycle.WorldVCycle`) calls it once per level at set-up
and compiles only the commit; ``select_variant``, ``best_variant`` and the
experiment drivers' ``auto`` series (:func:`seed_trace`) decide through it
too.  Each commit is a ``seed`` :class:`DecisionEvent`, whose estimates are
its alternatives, on a :class:`DecisionTrace` with a versioned JSON schema.
Nothing reads a clock, so selection is bit-reproducible.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.collectives.plan import Variant
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

#: Version stamp of :meth:`DecisionTrace.to_dict`; bump on any schema change.
TRACE_SCHEMA_VERSION = 4


def is_auto_variant(variant) -> bool:
    """Whether ``variant`` requests the per-level modeled commit
    (:func:`seed_event` on every level) instead of a fixed protocol."""
    return isinstance(variant, str) and variant.strip().lower() == AUTO_VARIANT


# -- the trace -----------------------------------------------------------------


@dataclass(frozen=True)
class DecisionEvent:
    """One level's set-up commit, with the cost model's estimates.

    ``estimates`` holds every candidate's modeled seconds, keyed by variant
    value — the alternatives the commit was chosen from.  Each key must name
    a :class:`~repro.collectives.plan.Variant` and each value be finite and
    non-negative seconds, or :class:`ValidationError` is raised; so must
    ``variant``.
    """

    level: int
    variant: str
    estimates: Mapping[str, float] = field(default_factory=dict)
    reason: str = ""

    def __post_init__(self):
        object.__setattr__(self, "variant",
                           _variant_name(self.variant, "committed variant"))
        object.__setattr__(self, "estimates", {
            _variant_name(key, "estimate key"): _checked_seconds(
                seconds, f"level {self.level}'s {key} estimate")
            for key, seconds in dict(self.estimates).items()})

    def to_dict(self) -> Dict[str, object]:
        """The event as a plain dict — the pinned serialisation schema."""
        return {
            "level": int(self.level),
            "variant": self.variant,
            "estimates": {key: float(value)
                          for key, value in sorted(self.estimates.items())},
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DecisionEvent":
        """Inverse of :meth:`to_dict`; raises :class:`ValidationError` for a
        field missing or of the wrong type, an unknown variant name, or an
        estimate that is not finite non-negative seconds (a trace is read
        from outside the program)."""
        try:
            return cls(
                level=int(payload["level"]),
                variant=payload["variant"],
                estimates=dict(payload.get("estimates", {})),
                reason=str(payload.get("reason", "")),
            )
        except ValidationError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed decision event {payload!r}: "
                f"{type(exc).__name__}: {exc}") from None


def _variant_name(name, what: str) -> str:
    """``name`` as a :class:`Variant` value, else :class:`ValidationError`."""
    try:
        return Variant(name).value
    except ValueError:
        raise ValidationError(
            f"{what} must name a variant "
            f"{tuple(v.value for v in Variant)}, got {name!r}") from None


class DecisionTrace:
    """Ordered, queryable record of every level's commit.

    Queried with :meth:`events` / :meth:`choices`, serialised with a stable
    versioned schema (:meth:`to_dict` / :meth:`to_json`), rebuilt
    (:meth:`from_dict` / :meth:`from_json`), and validated
    (:meth:`validate`: one seed per level, whose variant is the
    candidate-order argmin of its estimates).
    """

    def __init__(self, events: Sequence[DecisionEvent] = ()):
        self._events: List[DecisionEvent] = list(events)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[DecisionEvent]:
        return iter(self._events)

    def __getitem__(self, index) -> DecisionEvent:
        return self._events[index]

    def append(self, event: DecisionEvent) -> None:
        """Record one more decision (the solve path's set-up calls this)."""
        if not isinstance(event, DecisionEvent):
            raise ValidationError("a DecisionTrace holds DecisionEvent objects")
        self._events.append(event)

    # -- queries --------------------------------------------------------------

    def events(self, *, level: int | None = None) -> List[DecisionEvent]:
        """Events, all or level ``level``'s, in recording order."""
        return [e for e in self._events if level is None or e.level == level]

    def levels(self) -> List[int]:
        """Sorted levels that appear in the trace."""
        return sorted({e.level for e in self._events})

    def committed(self, level: int) -> Optional[Variant]:
        """The level's commit, if the trace has one."""
        for event in reversed(self._events):
            if event.level == level:
                return Variant(event.variant)
        return None

    def choices(self) -> Dict[int, Variant]:
        """Every level's commit — what :meth:`committed` returns, for all."""
        return {level: self.committed(level) for level in self.levels()}

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Versioned plain-dict form: ``{"schema": 4, "events": [...]}``."""
        return {"schema": TRACE_SCHEMA_VERSION,
                "events": [event.to_dict() for event in self._events]}

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace variance) of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DecisionTrace":
        """Rebuild a trace from :meth:`to_dict` output; anything else raises
        :class:`ValidationError`."""
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"a decision trace is a mapping, got {type(payload).__name__}")
        schema = payload.get("schema")
        if schema != TRACE_SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported decision-trace schema {schema!r} "
                f"(this build reads version {TRACE_SCHEMA_VERSION})")
        events = payload.get("events", [])
        if not isinstance(events, (list, tuple)) or not all(
                isinstance(event, Mapping) for event in events):
            raise ValidationError(
                "a decision trace's events are a list of mappings")
        return cls([DecisionEvent.from_dict(event) for event in events])

    @classmethod
    def from_json(cls, text: str) -> "DecisionTrace":
        """Rebuild a trace from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"decision trace is not JSON: {exc}") \
                from None
        return cls.from_dict(payload)

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check that the trace is what :func:`seed_event` records; raises
        :class:`ValidationError`.

        Every level has one ``seed``, with an estimate for every one of
        :data:`DEFAULT_CANDIDATES` and no other, and its ``variant`` is
        their candidate-order argmin.
        """
        names = sorted(candidate.value for candidate in DEFAULT_CANDIDATES)
        seen = set()
        for position, event in enumerate(self._events):
            if event.level in seen:
                raise ValidationError(
                    f"event {position}: a second seed for level {event.level}")
            seen.add(event.level)
            if sorted(event.estimates) != names:
                raise ValidationError(
                    f"event {position}: level {event.level}'s estimates name "
                    f"{sorted(event.estimates)}, not the candidates {names}")
            argmin = seed_event(event.level, event.estimates).variant
            if event.variant != argmin:
                raise ValidationError(
                    f"event {position}: level {event.level} commits "
                    f"{event.variant!r}, but the candidate-order argmin of "
                    f"its estimates is {argmin!r}")

    def describe(self) -> str:
        """Human-readable one-line-per-event rendering (figure annotations)."""
        return "\n".join(f"level {event.level}: {event.variant:<14s} "
                         f"{event.reason}" for event in self._events)


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


def seed_trace(level_times: Sequence[Mapping[Variant | str, float]]
               ) -> DecisionTrace:
    """One :func:`seed_event` per level of ``level_times`` (levels numbered
    from 0): the commits ``variant="auto"`` makes at set-up when a level's
    cost is its entry, which is how the experiment drivers model it."""
    return DecisionTrace([seed_event(level, times)
                          for level, times in enumerate(level_times)])


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
