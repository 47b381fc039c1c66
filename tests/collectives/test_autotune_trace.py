"""Golden/schema suite for the autotuner's decision trace.

Pins the contracts downstream consumers (figures, CI artifacts, replay
tests) rely on:

* the dict/JSON serialisation schema of :class:`DecisionEvent` and
  :class:`DecisionTrace` — exact key set, canonical JSON, version stamp,
  lossless round-trip;
* trace *byte-identity* across execution runtimes: the same auto solve on
  ``"engine"`` and ``"procs"`` with a :class:`FixedStepClock` must produce
  the identical ``to_json()`` string (the selector is a pure function of
  its recorded values);
* :meth:`DecisionTrace.validate` — every commit/switch must reference a
  probe window that actually ran for that level, and tampering is caught;
* solver equivalence — an auto solve is byte-identical to the fixed-variant
  solves it arbitrates between (variant choice changes time, never bytes).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle
from repro.collectives.autotune import (
    TRACE_SCHEMA_VERSION,
    DecisionEvent,
    DecisionTrace,
    FixedStepClock,
    OnlineSelector,
    simulate_modeled_auto,
)
from repro.collectives.plan import Variant
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

N_RANKS = 4

#: The pinned serialisation schema: exactly these keys, in any dict order
#: (canonical JSON sorts them).  Extending the schema requires a version bump.
EVENT_KEYS = {"kind", "level", "cycle", "variant", "previous", "estimates",
              "window", "samples", "source", "reason"}

LEVEL_TIMES = [
    {Variant.STANDARD: 3.0, Variant.PARTIAL: 2.0, Variant.FULL: 4.0},
    {Variant.STANDARD: 1.0, Variant.PARTIAL: 5.0, Variant.FULL: 2.0},
]


def _problem():
    matrix = ParCSRMatrix(poisson_2d((12, 12)), RowPartition.even(144, N_RANKS))
    hierarchy = build_hierarchy(matrix, seed=1)
    mapping = paper_mapping(N_RANKS, ranks_per_node=2)
    return matrix, hierarchy, mapping


class TestEventSchema:
    def test_event_dict_key_set_is_pinned(self):
        sim = simulate_modeled_auto(LEVEL_TIMES, window=2)
        assert len(sim.trace) > 0
        for event in sim.trace:
            assert set(event.to_dict()) == EVENT_KEYS

    def test_seed_event_golden(self):
        sim = simulate_modeled_auto(LEVEL_TIMES, window=1)
        assert sim.trace[0].to_dict() == {
            "kind": "seed",
            "level": 0,
            "cycle": 0,
            "variant": "partial",
            "previous": None,
            "estimates": {"full": 4.0, "partial": 2.0, "standard": 3.0},
            "window": None,
            "samples": [],
            "source": "model",
            "reason": "cost model's cheapest candidate; full probe "
                      "schedule queued",
        }

    def test_seed_reason_without_a_model_says_the_estimates_tie(self):
        """With no ``model=`` every seed estimate is 0.0: no candidate is
        cheapest, so the reason names the tie and candidate order."""
        matrix, hierarchy, mapping = _problem()
        with WorldVCycle(hierarchy, mapping, variant="auto") as vcycle:
            seeds = vcycle.decision_trace.events(kind="seed")
        assert len(seeds) == hierarchy.n_levels
        for event in seeds:
            assert set(event.estimates.values()) == {0.0}
            assert event.variant == vcycle.selector.candidates[0].value
            assert event.reason == (
                "every candidate's estimate ties; candidate order picked the "
                "commit; full probe schedule queued")

    def test_event_round_trip_is_lossless(self):
        sim = simulate_modeled_auto(LEVEL_TIMES, window=2)
        for event in sim.trace:
            assert DecisionEvent.from_dict(event.to_dict()) == event

    def test_bad_kind_and_source_are_rejected(self):
        with pytest.raises(ValidationError):
            DecisionEvent(kind="guess", level=0, cycle=0)
        with pytest.raises(ValidationError):
            DecisionEvent(kind="probe", level=0, cycle=0, source="vibes")


class TestTraceSerialisation:
    def test_json_round_trip_byte_identical(self):
        sim = simulate_modeled_auto(LEVEL_TIMES, window=2)
        text = sim.trace.to_json()
        rebuilt = DecisionTrace.from_json(text)
        assert rebuilt.to_json() == text
        assert rebuilt.choices() == sim.trace.choices()
        rebuilt.validate()

    def test_json_is_canonical(self):
        text = simulate_modeled_auto(LEVEL_TIMES, window=1).trace.to_json()
        payload = json.loads(text)
        assert payload["schema"] == TRACE_SCHEMA_VERSION
        assert json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) == text

    def test_unknown_schema_version_is_rejected(self):
        payload = simulate_modeled_auto(LEVEL_TIMES, window=1).trace.to_dict()
        payload["schema"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ValidationError):
            DecisionTrace.from_dict(payload)


class TestTraceValidation:
    @staticmethod
    def _switching_trace() -> DecisionTrace:
        """A trace containing a switch: the model seeds FULL, measurement
        overturns it in favour of STANDARD."""
        selector = OnlineSelector(window=1)
        selector.seed(0, {Variant.STANDARD: 9.0, Variant.PARTIAL: 8.0,
                          Variant.FULL: 1.0})
        measured = {Variant.STANDARD: 1.0, Variant.PARTIAL: 2.0,
                    Variant.FULL: 3.0}
        for _ in range(selector.probe_budget):
            selector.begin_cycle()
            selector.record(0, float(measured[selector.variant_for(0)]))
            selector.end_cycle()
        assert selector.committed(0) == Variant.STANDARD
        return selector.trace

    def test_every_switch_references_a_probe_window_that_ran(self):
        trace = self._switching_trace()
        switches = trace.events(kind="switch", level=0)
        assert len(switches) == 1
        probe_windows = {event.window
                         for event in trace.events(kind="probe", level=0)}
        assert switches[0].window in probe_windows
        trace.validate()

    def test_tampered_window_reference_is_caught(self):
        trace = self._switching_trace()
        events = [event.to_dict() for event in trace]
        for event in events:
            if event["kind"] == "switch":
                event["window"] = 999
        tampered = DecisionTrace.from_dict(
            {"schema": TRACE_SCHEMA_VERSION, "events": events})
        with pytest.raises(ValidationError, match="never ran"):
            tampered.validate()

    def test_commit_without_window_is_caught(self):
        bad = DecisionTrace([DecisionEvent(kind="commit", level=0, cycle=0,
                                           variant="standard")])
        with pytest.raises(ValidationError, match="without a window"):
            bad.validate()


class TestRuntimeByteIdentity:
    def _run(self, runtime: str, n_workers=None):
        matrix, hierarchy, mapping = _problem()
        b = np.ones(matrix.n_rows, dtype=np.float64)
        with WorldVCycle(hierarchy, mapping, variant="auto",
                         selector=OnlineSelector(window=1),
                         clock=FixedStepClock(), runtime=runtime,
                         n_workers=n_workers) as vcycle:
            x = np.zeros(matrix.n_rows, dtype=np.float64)
            for _ in range(vcycle.selector.probe_budget + 2):
                x = vcycle.cycle(b, x)
            return x, vcycle.decision_trace

    def test_trace_byte_identical_across_runtimes(self):
        """Engine vs procs: identical measurements (FixedStepClock), hence
        identical decisions, hence the same canonical JSON byte string."""
        x_engine, trace_engine = self._run("engine")
        x_procs, trace_procs = self._run("procs", n_workers=2)
        assert np.array_equal(x_engine, x_procs)
        assert trace_engine.to_json() == trace_procs.to_json()
        trace_engine.validate()


class TestSolverEquivalence:
    def test_auto_solve_matches_its_chosen_fixed_variants_bytewise(self):
        matrix, hierarchy, mapping = _problem()
        b = np.arange(matrix.n_rows, dtype=np.float64)

        def solve(variant, **kwargs):
            with WorldAMGSolver(matrix, mapping, hierarchy=hierarchy,
                                variant=variant, **kwargs) as solver:
                return solver.solve(b, max_iterations=6, tol=0.0)

        auto = solve("auto", selector=OnlineSelector(window=1),
                     clock=FixedStepClock())
        assert auto.decision_trace is not None
        auto.decision_trace.validate()
        assert auto.decision_trace.choices()  # every level justified
        for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
            fixed = solve(variant)
            assert fixed.decision_trace is None
            assert np.array_equal(auto.solution, fixed.solution)
            assert auto.residual_norms == fixed.residual_norms
