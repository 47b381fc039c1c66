"""Per-level variant selection with an auditable decision trace.

The paper's stated future work is a "simple performance measure within the
neighborhood collective to dynamically select the optimal communication
strategy": its crossover figures show the winning variant flips with level
size and density, so one protocol per hierarchy leaves time on the table.
Its figures compare the variants by their cost on a network, so the measure
here is the cost model's:

* :func:`seed_event` commits one level's modeled-cheapest candidate (ties
  break on candidate order) and says why.  The solve path
  (:class:`~repro.amg.vcycle.WorldVCycle` under ``variant="auto"``) calls
  it once per level at set-up and compiles only the committed variant.
* :class:`OnlineSelector` starts from the same seed, then walks every
  candidate through a short *probe window* of recorded costs, keeps a
  median-of-window running estimate per ``(level, variant)``, commits the
  cheapest candidate, and keeps monitoring the committed choice so
  sustained drift (the estimate going stale by more than ``drift_factor``)
  triggers a clean re-probe.
* Every seed / probe / commit / switch / drift lands as a structured
  :class:`DecisionEvent` on a queryable :class:`DecisionTrace` with a
  stable, versioned dict/JSON schema — figures can annotate *why* each
  level chose its variant, and tests can replay the decisions.
* :func:`simulate_modeled_auto` drives a selector with modeled per-level
  times — the "auto" series of the experiment drivers, with zero
  wall-clock dependence.

The selector never reads a clock: it consumes whatever seconds the caller
records, so selection is bit-reproducible whenever its inputs are.

Probe scheduling is deliberately lock-stepped: every level walks the
candidate tuple in the same order with the same window length, so during
the initial probe phase each cycle runs ONE variant hierarchy-wide and its
cost is exactly that fixed variant's cycle cost — the auto series can
never exceed the worst fixed variant, which the property suite pins.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.collectives.plan import Variant
from repro.utils.errors import ValidationError

#: Candidate protocols the online selector arbitrates between — the paper's
#: three persistent neighborhood variants.  Point-to-point is the baseline
#: the crossover figures compare *against*, not an autotuning candidate.
DEFAULT_CANDIDATES: Tuple[Variant, ...] = (
    Variant.STANDARD, Variant.PARTIAL, Variant.FULL)

#: Sentinel accepted by the ``variant=`` keywords of the solve path
#: (:class:`~repro.amg.vcycle.WorldVCycle` and friends).
AUTO_VARIANT = "auto"

#: Version stamp of :meth:`DecisionTrace.to_dict`; bump on any schema change.
TRACE_SCHEMA_VERSION = 2

#: Every event kind a trace may contain, in lifecycle order.
EVENT_KINDS = ("seed", "probe", "commit", "switch", "drift")

#: Where an event's numbers came from: the cost model or recorded costs.
EVENT_SOURCES = ("model", "measured")


def is_auto_variant(variant) -> bool:
    """Whether ``variant`` requests online selection instead of a fixed protocol."""
    return isinstance(variant, str) and variant.strip().lower() == AUTO_VARIANT


# -- the trace -----------------------------------------------------------------


@dataclass(frozen=True)
class DecisionEvent:
    """One structured autotuning decision.

    ``estimates`` snapshots the per-variant running cost estimates (seconds)
    known at event time, keyed by variant value; ``samples`` carries the raw
    window measurements the event was derived from; ``window`` is the id of
    the probe window a ``probe`` event completed or a ``commit``/``switch``
    event was justified by.
    """

    kind: str
    level: int
    cycle: int
    variant: Optional[str] = None
    previous: Optional[str] = None
    estimates: Mapping[str, float] = field(default_factory=dict)
    window: Optional[int] = None
    samples: Tuple[float, ...] = ()
    source: str = "measured"
    reason: str = ""

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValidationError(
                f"event kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        if self.source not in EVENT_SOURCES:
            raise ValidationError(
                f"event source must be one of {EVENT_SOURCES}, "
                f"got {self.source!r}")

    def to_dict(self) -> Dict[str, object]:
        """The event as a plain dict — the pinned serialisation schema."""
        return {
            "kind": self.kind,
            "level": int(self.level),
            "cycle": int(self.cycle),
            "variant": self.variant,
            "previous": self.previous,
            "estimates": {key: float(value)
                          for key, value in sorted(self.estimates.items())},
            "window": None if self.window is None else int(self.window),
            "samples": [float(sample) for sample in self.samples],
            "source": self.source,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DecisionEvent":
        """Inverse of :meth:`to_dict`; validates kinds and sources, and
        raises :class:`ValidationError` for a field missing or of the wrong
        type (a trace is read from outside the program)."""
        try:
            return cls(
                kind=str(payload["kind"]),
                level=int(payload["level"]),
                cycle=int(payload["cycle"]),
                variant=payload.get("variant"),
                previous=payload.get("previous"),
                estimates=dict(payload.get("estimates", {})),
                window=(None if payload.get("window") is None
                        else int(payload["window"])),
                samples=tuple(float(s) for s in payload.get("samples", ())),
                source=str(payload.get("source", "measured")),
                reason=str(payload.get("reason", "")),
            )
        except ValidationError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed decision event {payload!r}: "
                f"{type(exc).__name__}: {exc}") from None


class DecisionTrace:
    """Ordered, queryable record of every autotuning decision.

    The trace is append-only while a selector runs; afterwards it can be
    queried (:meth:`events`, :meth:`choices`), serialised with a stable
    versioned schema (:meth:`to_dict` / :meth:`to_json`), rebuilt
    (:meth:`from_dict` / :meth:`from_json`), and validated
    (:meth:`validate`: every commit/switch must reference a probe window
    that actually ran for that level).
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
        """Record one more decision (selectors call this; users rarely do)."""
        if not isinstance(event, DecisionEvent):
            raise ValidationError("a DecisionTrace holds DecisionEvent objects")
        self._events.append(event)

    # -- queries --------------------------------------------------------------

    def events(self, *, kind: str | None = None,
               level: int | None = None) -> List[DecisionEvent]:
        """Events filtered by kind and/or level, in recording order."""
        selected = self._events
        if kind is not None:
            if kind not in EVENT_KINDS:
                raise ValidationError(
                    f"event kind must be one of {EVENT_KINDS}, got {kind!r}")
            selected = [e for e in selected if e.kind == kind]
        if level is not None:
            selected = [e for e in selected if e.level == level]
        return list(selected)

    def levels(self) -> List[int]:
        """Sorted levels that appear in the trace."""
        return sorted({e.level for e in self._events})

    def committed(self, level: int) -> Optional[Variant]:
        """The level's latest choice (last seed/commit event), if any."""
        for event in reversed(self._events):
            if event.level == level and event.kind in ("seed", "commit"):
                return Variant(event.variant)
        return None

    def choices(self) -> Dict[int, Variant]:
        """Latest choice per level — what :meth:`committed` returns, for all."""
        return {level: self.committed(level) for level in self.levels()}

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Versioned plain-dict form: ``{"schema": 1, "events": [...]}``."""
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
        """Check internal consistency; raises :class:`ValidationError`.

        Pins the invariant the golden suite relies on: every ``commit`` and
        ``switch`` event references (via ``window``) a ``probe`` window that
        actually ran earlier in the trace, for the same level.
        """
        completed: Dict[int, set] = {}
        for position, event in enumerate(self._events):
            if event.kind == "probe":
                if event.window is None:
                    raise ValidationError(
                        f"event {position}: probe without a window id")
                completed.setdefault(event.level, set()).add(event.window)
            elif event.kind in ("commit", "switch"):
                if event.window is None:
                    raise ValidationError(
                        f"event {position}: {event.kind} without a window id")
                if event.window not in completed.get(event.level, ()):
                    raise ValidationError(
                        f"event {position}: {event.kind} on level "
                        f"{event.level} references probe window "
                        f"{event.window}, which never ran")

    def describe(self) -> str:
        """Human-readable one-line-per-event rendering (figure annotations)."""
        lines = []
        for event in self._events:
            what = event.variant or "-"
            lines.append(f"[cycle {event.cycle:>3d}] level {event.level}: "
                         f"{event.kind:<8s} {what:<14s} {event.reason}")
        return "\n".join(lines)


# -- the selector --------------------------------------------------------------


def seed_event(level: int, modeled: Mapping[Variant | str, float], *,
               candidates: Sequence[Variant] = DEFAULT_CANDIDATES,
               cycle: int = 0, outcome: str) -> DecisionEvent:
    """The ``seed`` event committing one level's modeled-cheapest candidate.

    ``modeled`` gives the modeled seconds of every candidate, keyed by
    variant or value; each must be finite and non-negative, or
    :class:`ValidationError` is raised (a ``nan`` would otherwise decide the
    commit silently).  Ties break on candidate order, and the reason names
    the candidates the commit ties with; ``outcome`` ends it with what the
    caller does with the commit.
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
    if len(tied) == len(candidates) - 1:    # no cheapest one to name
        why = "every candidate's estimate ties; candidate order picked the " \
              "commit"
    elif tied:
        why = (f"cost model's cheapest candidate, tied with "
               f"{', '.join(tied)}; candidate order picked the commit")
    else:
        why = "cost model's cheapest candidate"
    return DecisionEvent(kind="seed", level=level, cycle=cycle,
                         variant=committed.value, estimates=estimates,
                         source="model", reason=f"{why}; {outcome}")


def _checked_seconds(value, what: str) -> float:
    """``value`` as seconds: finite and non-negative, else it raises."""
    seconds = float(value)
    if not (math.isfinite(seconds) and seconds >= 0.0):
        raise ValidationError(
            f"{what} must be finite and non-negative seconds, got {seconds!r}")
    return seconds


class _LevelState:
    """Per-level probe/commit state machine bookkeeping."""

    __slots__ = ("estimates", "committed", "probing", "queue", "samples",
                 "windows", "monitor", "pending", "active")

    def __init__(self, estimates: Dict[Variant, float], committed: Variant,
                 candidates: Sequence[Variant]):
        self.estimates = estimates
        self.committed = committed
        self.probing = True
        self.queue: List[Variant] = list(candidates)
        self.samples: List[float] = []
        #: last completed probe-window id per candidate.
        self.windows: Dict[Variant, int] = {}
        #: rolling post-commit samples of the committed variant (drift watch).
        self.monitor: List[float] = []
        #: seconds accumulated for this level during the open cycle.
        self.pending: Optional[float] = None
        #: variant the open cycle is executing on this level.
        self.active: Optional[Variant] = None


class OnlineSelector:
    """Seed → probe → commit state machine over the candidate variants.

    Lifecycle per level: :meth:`seed` installs the cost model's choice
    (:func:`seed_event`) and schedules one probe window per candidate;
    each cycle is bracketed by :meth:`begin_cycle` / :meth:`end_cycle` with
    the caller feeding seconds through :meth:`record`; after ``window``
    cycles on a candidate its median becomes the running estimate, and once
    every candidate is measured the cheapest is committed (a ``switch``
    event marks a change from the current choice).  Committed levels keep a
    rolling median of their measurements; when it departs from the
    estimate by more than ``drift_factor`` (either direction) the level
    re-probes from scratch.

    The selector never reads a clock and ignores :meth:`record` calls
    outside an open cycle, so its decisions are a pure function of the
    recorded values.
    """

    def __init__(self, *, candidates: Sequence[Variant | str] = DEFAULT_CANDIDATES,
                 window: int = 3, drift_factor: float = 2.0,
                 trace: DecisionTrace | None = None):
        if not candidates:
            raise ValidationError("the selector needs at least one candidate")
        self.candidates: Tuple[Variant, ...] = tuple(
            Variant(candidate) for candidate in candidates)
        if len(set(self.candidates)) != len(self.candidates):
            raise ValidationError("candidate variants must be distinct")
        if int(window) < 1:
            raise ValidationError("probe window must be >= 1 cycle")
        if float(drift_factor) <= 1.0:
            raise ValidationError("drift_factor must be > 1")
        self.window = int(window)
        self.drift_factor = float(drift_factor)
        self.trace = trace if trace is not None else DecisionTrace()
        self._levels: Dict[int, _LevelState] = {}
        self._cycle = 0
        self._in_cycle = False
        self._next_window = 0

    # -- introspection --------------------------------------------------------

    @property
    def probe_budget(self) -> int:
        """Cycles a level needs to measure every candidate once."""
        return len(self.candidates) * self.window

    def seeded_levels(self) -> Tuple[int, ...]:
        """Levels under management, sorted."""
        return tuple(sorted(self._levels))

    def committed(self, level: int) -> Variant:
        """The level's current choice (seeded or measured)."""
        return self._state(level).committed

    def is_probing(self, level: int) -> bool:
        """Whether the level is still walking its probe windows."""
        return self._state(level).probing

    def estimates(self, level: int) -> Dict[Variant, float]:
        """Copy of the level's per-variant running cost estimates (seconds)."""
        return dict(self._state(level).estimates)

    def _state(self, level: int) -> _LevelState:
        try:
            return self._levels[level]
        except KeyError:
            raise ValidationError(f"level {level} was never seeded") from None

    def _snapshot(self, state: _LevelState) -> Dict[str, float]:
        return {variant.value: float(seconds)
                for variant, seconds in state.estimates.items()}

    # -- lifecycle ------------------------------------------------------------

    def seed(self, level: int, modeled: Mapping[Variant | str, float]) -> None:
        """Install the cost model's estimates and choice for one level.

        ``modeled`` must provide a finite, non-negative (modeled) seconds
        value for every candidate; the cheapest becomes the level's initial
        committed variant and a full probe schedule is queued so every
        candidate gets measured before the first empirical commit.
        """
        level = int(level)
        if level in self._levels:
            raise ValidationError(f"level {level} is already seeded")
        if self._in_cycle:
            raise ValidationError("cannot seed a level inside an open cycle")
        event = seed_event(level, modeled, candidates=self.candidates,
                           cycle=self._cycle,
                           outcome="full probe schedule queued")
        self._levels[level] = _LevelState(
            {candidate: event.estimates[candidate.value]
             for candidate in self.candidates},
            Variant(event.variant), self.candidates)
        self.trace.append(event)

    def variant_for(self, level: int) -> Variant:
        """The variant the level should execute on the next/current cycle."""
        state = self._state(level)
        if state.probing and state.queue:
            return state.queue[0]
        return state.committed

    def begin_cycle(self) -> None:
        """Open a measurement cycle; subsequent :meth:`record` calls count."""
        if self._in_cycle:
            raise ValidationError("a measurement cycle is already open")
        self._in_cycle = True
        for state in self._levels.values():
            state.pending = None
            state.active = (state.queue[0] if state.probing and state.queue
                            else state.committed)

    def record(self, level: int, seconds: float) -> None:
        """Attribute seconds to a level of the open cycle.

        ``seconds`` must be finite and non-negative.  Silently ignored
        outside an open cycle and for levels the selector does not manage.
        """
        seconds = _checked_seconds(seconds, f"level {level}'s recorded time")
        if not self._in_cycle:
            return
        state = self._levels.get(int(level))
        if state is None:
            return
        state.pending = seconds if state.pending is None \
            else state.pending + seconds

    def end_cycle(self) -> None:
        """Close the cycle and fold its measurements into the estimates."""
        if not self._in_cycle:
            raise ValidationError("no measurement cycle is open")
        self._in_cycle = False
        cycle = self._cycle
        self._cycle += 1
        for level in sorted(self._levels):
            state = self._levels[level]
            sample = state.pending
            state.pending = None
            if sample is None:
                continue
            if state.probing and state.queue and state.active == state.queue[0]:
                self._probe_sample(level, state, cycle, sample)
            else:
                self._monitor_sample(level, state, cycle, sample)

    # -- state transitions ----------------------------------------------------

    def _probe_sample(self, level: int, state: _LevelState, cycle: int,
                      sample: float) -> None:
        state.samples.append(sample)
        if len(state.samples) < self.window:
            return
        variant = state.queue.pop(0)
        estimate = float(statistics.median(state.samples))
        state.estimates[variant] = estimate
        window_id = self._next_window
        self._next_window += 1
        state.windows[variant] = window_id
        self.trace.append(DecisionEvent(
            kind="probe", level=level, cycle=cycle, variant=variant.value,
            estimates=self._snapshot(state), window=window_id,
            samples=tuple(state.samples), source="measured",
            reason=f"median of {self.window} timed cycle(s)"))
        state.samples = []
        if not state.queue:
            self._commit(level, state, cycle)

    def _commit(self, level: int, state: _LevelState, cycle: int) -> None:
        best = min(self.candidates, key=state.estimates.__getitem__)
        window_id = state.windows[best]
        previous = state.committed
        self.trace.append(DecisionEvent(
            kind="commit", level=level, cycle=cycle, variant=best.value,
            previous=previous.value, estimates=self._snapshot(state),
            window=window_id, source="measured",
            reason="cheapest measured median across all candidates"))
        if best != previous:
            self.trace.append(DecisionEvent(
                kind="switch", level=level, cycle=cycle, variant=best.value,
                previous=previous.value, estimates=self._snapshot(state),
                window=window_id, source="measured",
                reason=f"measurement overturned {previous.value}"))
        state.committed = best
        state.probing = False
        state.monitor = []

    def _monitor_sample(self, level: int, state: _LevelState, cycle: int,
                        sample: float) -> None:
        state.monitor.append(sample)
        if len(state.monitor) > self.window:
            state.monitor.pop(0)
        if len(state.monitor) < self.window:
            return
        rolling = float(statistics.median(state.monitor))
        estimate = state.estimates[state.committed]
        drifted = rolling > self.drift_factor * estimate or \
            rolling * self.drift_factor < estimate
        if not drifted:
            return
        self.trace.append(DecisionEvent(
            kind="drift", level=level, cycle=cycle,
            variant=state.committed.value, estimates=self._snapshot(state),
            samples=tuple(state.monitor), source="measured",
            reason=f"rolling median {rolling:.3e}s departed from estimate "
                   f"{estimate:.3e}s by more than x{self.drift_factor:g}; "
                   f"re-probing"))
        state.estimates[state.committed] = rolling
        state.probing = True
        state.queue = list(self.candidates)
        state.samples = []
        state.monitor = []

    def choices(self) -> Dict[int, Variant]:
        """Current committed variant per seeded level."""
        return {level: state.committed
                for level, state in sorted(self._levels.items())}


# -- modeled simulation (the drivers' deterministic "auto" series) -------------


@dataclass
class AutoSimulation:
    """Outcome of :func:`simulate_modeled_auto`.

    ``per_cycle[k]`` is the total modeled cost of cycle ``k`` under the
    selector's choices (probe overhead included); ``cumulative[n]`` the cost
    of the first ``n`` cycles (``cumulative[0] == 0``);
    ``steady_per_iteration`` the converged per-cycle cost under the final
    committed choices.
    """

    per_cycle: List[float]
    cumulative: List[float]
    steady_per_iteration: float
    choices: Dict[int, Variant]
    trace: DecisionTrace
    selector: OnlineSelector


def simulate_modeled_auto(level_times: Sequence[Mapping[Variant, float]], *,
                          candidates: Sequence[Variant | str] | None = None,
                          window: int = 3, drift_factor: float = 2.0,
                          n_cycles: int | None = None,
                          selector: OnlineSelector | None = None
                          ) -> AutoSimulation:
    """Drive an :class:`OnlineSelector` with modeled per-level times.

    ``level_times[level][variant]`` is the modeled seconds of one cycle's
    communication on that level under that variant — exactly the numbers
    the cost model supplies to the figures.  The simulation seeds every
    level, then plays ``n_cycles`` cycles (default: one past the probe
    budget, enough to converge) feeding the modeled time of whichever
    variant the selector chose — a perfectly deterministic clock, so the
    resulting series and trace are bit-reproducible.  ``level_times`` is
    read live each cycle; callers may mutate it between cycles to model
    drifting costs.
    """
    if selector is None:
        selector = OnlineSelector(
            candidates=candidates if candidates is not None
            else DEFAULT_CANDIDATES,
            window=window, drift_factor=drift_factor)
    elif candidates is not None:
        raise ValidationError("pass either a selector or candidates, not both")
    for level, times in enumerate(level_times):
        selector.seed(level, {candidate: float(times[candidate])
                              for candidate in selector.candidates})
    if n_cycles is None:
        n_cycles = selector.probe_budget + 1
    if n_cycles < 0:
        raise ValidationError("n_cycles must be non-negative")
    per_cycle: List[float] = []
    cumulative: List[float] = [0.0]
    for _ in range(n_cycles):
        selector.begin_cycle()
        cost = 0.0
        for level, times in enumerate(level_times):
            variant = selector.variant_for(level)
            seconds = float(times[variant])
            selector.record(level, seconds)
            cost += seconds
        selector.end_cycle()
        per_cycle.append(cost)
        cumulative.append(cumulative[-1] + cost)
    choices = selector.choices()
    steady = sum(float(level_times[level][choices[level]])
                 for level in range(len(level_times)))
    return AutoSimulation(per_cycle=per_cycle, cumulative=cumulative,
                          steady_per_iteration=steady, choices=choices,
                          trace=selector.trace, selector=selector)
