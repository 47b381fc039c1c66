"""Golden/schema suite for the autotuner's decision trace.

Pins the contracts downstream consumers (figures, CI artifacts, replay
tests) rely on:

* the dict/JSON serialisation schema of :class:`DecisionEvent` and
  :class:`DecisionTrace` — exact key set, canonical JSON, version stamp,
  lossless round-trip;
* the modeled commit of ``variant="auto"`` — each level's argmin of the
  cost model over every candidate's plans, computed here independently,
  with only the committed variant compiled;
* trace *byte-identity* across execution runtimes: the same auto solve on
  ``"engine"`` and ``"procs"`` must produce the identical ``to_json()``
  string (the commit is made at set-up, before any round runs);
* :meth:`DecisionTrace.validate` — one seed per level, estimates for every
  candidate, and a variant that is their candidate-order argmin, so
  tampering is caught; malformed input raises :class:`ValidationError`;
* solver equivalence — an auto solve is byte-identical to the fixed-variant
  solves it arbitrates between (variant choice changes time, never bytes).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle
from repro.collectives import exchange as exchange_module
from repro.collectives import plan_cache
from repro.collectives.autotune import (
    DEFAULT_CANDIDATES,
    TRACE_SCHEMA_VERSION,
    DecisionEvent,
    DecisionTrace,
    seed_event,
    seed_trace,
)
from repro.collectives.plan import Variant
from repro.collectives.planner import all_plans
from repro.perfmodel.base import CostModel
from repro.perfmodel.params import lassen_parameters
from repro.simmpi.engine import ExchangeEngine
from repro.sparse.generators import strong_scaling_problem
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError
from oracles import schedule_pattern

N_RANKS = 4

#: The pinned serialisation schema: exactly these keys, in any dict order
#: (canonical JSON sorts them).  Extending the schema requires a version bump.
EVENT_KEYS = {"level", "variant", "estimates", "reason"}

LEVEL_TIMES = [
    {Variant.STANDARD: 3.0, Variant.PARTIAL: 2.0, Variant.FULL: 4.0},
    {Variant.STANDARD: 1.0, Variant.PARTIAL: 5.0, Variant.FULL: 2.0},
]

#: Every candidate's estimate equal: no cheapest one to name.
TIE = "every candidate's estimate ties; candidate order picked the commit"

#: How every seed's reason ends: the solve path commits at set-up.
SET_UP = "committed at set-up for the solve"


def _problem():
    matrix = ParCSRMatrix(poisson_2d((12, 12)), RowPartition.even(144, N_RANKS))
    hierarchy = build_hierarchy(matrix, seed=1)
    mapping = paper_mapping(N_RANKS, ranks_per_node=2)
    return matrix, hierarchy, mapping


class _FlatModel(CostModel):
    """A stub cost model: every phase costs ``seconds``, whatever it moves."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def message_time(self, nbytes, locality) -> float:
        return self.seconds

    def phase_time(self, sources, nbytes, localities) -> float:
        return self.seconds


class TestEventSchema:
    def test_event_dict_key_set_is_pinned(self):
        trace = seed_trace(LEVEL_TIMES)
        assert len(trace) == len(LEVEL_TIMES)
        for event in trace:
            assert set(event.to_dict()) == EVENT_KEYS

    def test_seed_event_golden(self):
        assert seed_event(0, LEVEL_TIMES[0]).to_dict() == {
            "level": 0,
            "variant": "partial",
            "estimates": {"full": 4.0, "partial": 2.0, "standard": 3.0},
            "reason": "cost model's cheapest candidate; committed at set-up "
                      "for the solve",
        }

    def test_seed_reason_without_a_model_says_the_estimates_tie(self):
        """Equal estimates name no cheapest candidate, so the reason names
        the tie and candidate order — for the rule alone and on the solve
        path, where a model pricing every plan alike ties every level."""
        event = seed_event(0, dict.fromkeys(DEFAULT_CANDIDATES, 1.0))
        assert event.variant == DEFAULT_CANDIDATES[0].value
        assert event.reason == f"{TIE}; {SET_UP}"
        matrix, hierarchy, mapping = _problem()
        with WorldVCycle(hierarchy, mapping, variant="auto",
                         model=_FlatModel(0.0)) as vcycle:
            seeds = vcycle.decision_trace.events()
        assert len(seeds) == len(vcycle.decision_trace) == hierarchy.n_levels
        for event in seeds:
            assert set(event.estimates.values()) == {0.0}
            assert event.variant == DEFAULT_CANDIDATES[0].value
            assert event.reason == f"{TIE}; {SET_UP}"

    def test_seed_reason_names_the_candidates_a_commit_ties_with(self):
        event = seed_event(0, {Variant.STANDARD: 2.0, Variant.PARTIAL: 1.0,
                               Variant.FULL: 1.0})
        assert event.variant == "partial"
        assert event.reason == (
            "cost model's cheapest candidate, tied with full; candidate "
            "order picked the commit; committed at set-up for the solve")

    def test_event_round_trip_is_lossless(self):
        for event in seed_trace(LEVEL_TIMES):
            assert DecisionEvent.from_dict(event.to_dict()) == event

    def test_describe_is_one_line_per_level(self):
        assert seed_trace(LEVEL_TIMES).describe().splitlines() == [
            f"level 0: partial        cost model's cheapest candidate; "
            f"{SET_UP}",
            f"level 1: standard       cost model's cheapest candidate; "
            f"{SET_UP}"]


class TestTraceSerialisation:
    def test_json_round_trip_byte_identical(self):
        trace = seed_trace(LEVEL_TIMES)
        text = trace.to_json()
        rebuilt = DecisionTrace.from_json(text)
        assert rebuilt.to_json() == text
        assert rebuilt.choices() == trace.choices() == {
            0: Variant.PARTIAL, 1: Variant.STANDARD}
        rebuilt.validate()

    def test_json_is_canonical(self):
        text = seed_trace(LEVEL_TIMES).to_json()
        payload = json.loads(text)
        assert payload["schema"] == TRACE_SCHEMA_VERSION == 4
        assert json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) == text

    def test_unknown_schema_version_is_rejected(self):
        payload = seed_trace(LEVEL_TIMES).to_dict()
        for schema in (TRACE_SCHEMA_VERSION - 1, TRACE_SCHEMA_VERSION + 1):
            payload["schema"] = schema
            with pytest.raises(ValidationError, match="schema"):
                DecisionTrace.from_dict(payload)

    def test_a_schema_3_document_is_rejected(self):
        """Schema 3 stamped every event ``kind="seed"``, ``cycle=0`` and
        ``source="model"``; schema 4 dropped the three constant fields, so
        an old document is refused, not read."""
        old = {"schema": 3, "events": [{
            "kind": "seed", "level": 0, "cycle": 0, "variant": "partial",
            "estimates": {"full": 4.0, "partial": 2.0, "standard": 3.0},
            "source": "model", "reason": f"cost model's cheapest candidate; "
                                         f"{SET_UP}"}]}
        with pytest.raises(ValidationError,
                           match="unsupported decision-trace schema 3"):
            DecisionTrace.from_dict(old)
        with pytest.raises(ValidationError,
                           match="unsupported decision-trace schema 3"):
            DecisionTrace.from_json(json.dumps(old))

    @staticmethod
    def _payload(**changes):
        """A one-event trace dict with the event's fields ``changes``d
        (``None`` drops a field)."""
        event = seed_trace(LEVEL_TIMES)[0].to_dict()
        event.update(changes)
        return {"schema": TRACE_SCHEMA_VERSION,
                "events": [{key: value for key, value in event.items()
                            if value is not None or key not in changes}]}

    def test_an_event_without_a_level_is_rejected(self):
        with pytest.raises(ValidationError, match="malformed decision event"):
            DecisionTrace.from_dict(self._payload(level=None))

    def test_a_non_integer_level_is_rejected(self):
        with pytest.raises(ValidationError, match="malformed decision event"):
            DecisionTrace.from_dict(self._payload(level="x"))

    @pytest.mark.parametrize("changes, match", [
        ({"estimates": {"standard": 3.0, "partial": 2.0, "full": "x"}},
         "full estimate must be seconds"),
        ({"estimates": {"standard": 3.0, "partial": 2.0, "full": "2"}},
         "full estimate must be seconds"),
        ({"estimates": {"standard": 3.0, "partial": 2.0, "full": True}},
         "full estimate must be seconds"),
        ({"estimates": {"standard": 3.0, "partial": 2.0,
                        "full": float("nan")}}, "finite and non-negative"),
        ({"estimates": {"standard": 3.0, "partial": -2.0, "full": 4.0}},
         "finite and non-negative"),
        ({"estimates": {"standard": 3.0, "partial": 2.0, "warp": 4.0}},
         "estimate key must name a variant"),
        ({"variant": "warp"}, "committed variant must name a variant"),
        ({"variant": None}, "malformed decision event"),
    ], ids=["string-estimate", "string-number-estimate", "bool-estimate",
            "nan-estimate", "negative-estimate",
            "unknown-estimate-key", "unknown-variant", "no-variant"])
    def test_a_malformed_event_is_rejected_on_load(self, changes, match):
        """A trace is read from outside the program: a bad estimate or
        variant name fails at ``from_dict``, not later at ``to_json`` or
        ``choices``."""
        with pytest.raises(ValidationError, match=match):
            DecisionTrace.from_dict(self._payload(**changes))

    @pytest.mark.parametrize("text", ["[]", "3", '"trace"', "{"])
    def test_json_that_is_not_a_trace_object_is_rejected(self, text):
        with pytest.raises(ValidationError):
            DecisionTrace.from_json(text)

    def test_events_that_are_not_a_list_of_objects_are_rejected(self):
        for events in ({"level": 0}, ["seed"]):
            with pytest.raises(ValidationError, match="list of mappings"):
                DecisionTrace.from_dict({"schema": TRACE_SCHEMA_VERSION,
                                         "events": events})


class TestTraceValidation:
    """``validate`` re-derives every commit: one seed per level, estimates
    for every candidate, and the candidate-order argmin as its variant."""

    @staticmethod
    def _tampered(position: int, **changes) -> DecisionTrace:
        events = [event.to_dict() for event in seed_trace(LEVEL_TIMES)]
        events[position].update(changes)
        return DecisionTrace.from_dict(
            {"schema": TRACE_SCHEMA_VERSION, "events": events})

    def test_a_seed_trace_validates(self):
        trace = seed_trace(LEVEL_TIMES)
        trace.validate()
        self._tampered(0).validate()

    @pytest.mark.parametrize("variant", ["standard", "full"])
    def test_tampered_variant_is_caught(self, variant):
        with pytest.raises(ValidationError,
                           match="candidate-order argmin of its estimates "
                                 "is 'partial'"):
            self._tampered(0, variant=variant).validate()

    def test_a_tie_committed_out_of_candidate_order_is_caught(self):
        """``partial`` and ``full`` tie: only ``partial``, the earlier
        candidate, is the rule's commit."""
        tied = {"standard": 2.0, "partial": 1.0, "full": 1.0}
        self._tampered(0, estimates=tied, variant="partial").validate()
        with pytest.raises(ValidationError, match="argmin"):
            self._tampered(0, estimates=tied, variant="full").validate()

    def test_a_missing_or_extra_estimate_is_caught(self):
        for estimates in ({"standard": 3.0, "partial": 2.0},
                          {"standard": 3.0, "partial": 2.0, "full": 4.0,
                           "point_to_point": 1.0}):
            with pytest.raises(ValidationError, match="not the candidates"):
                self._tampered(0, estimates=estimates).validate()

    def test_a_second_seed_for_a_level_is_caught(self):
        with pytest.raises(ValidationError, match="second seed for level 0"):
            self._tampered(1, level=0).validate()


class TestModeledCommit:
    """``variant="auto"`` commits each level's modeled argmin at set-up."""

    @staticmethod
    def _oracle(hierarchy, mapping, model, schedule):
        """Each level's ``(estimates, argmin)``, from ``all_plans`` and
        ``modeled_time`` of patterns built here: ``Σ solve_rounds ·
        exchange`` over the level's rows of the cycle's ``schedule`` —
        ``A``, ``Pᵀ`` and ``P`` on a smoothed level, the coarse gather on
        the coarsest."""
        levels = []
        for index in range(hierarchy.n_levels):
            plans = [(row.solve_rounds, all_plans(
                schedule_pattern(hierarchy, index, row.operator), mapping))
                     for row in schedule
                     if row.level == index and row.solve_rounds]
            modeled = {v: sum(rounds * level_plans[v].modeled_time(model)
                              for rounds, level_plans in plans)
                       for v in DEFAULT_CANDIDATES}
            levels.append((modeled, min(DEFAULT_CANDIDATES,
                                        key=modeled.__getitem__)))
        return levels

    def test_amg_solve_256_commits_the_modeled_argmin_of_every_level(self):
        """65 536 rows on 256 ranks, 16 per node, no ``model=``: the
        default is the Lassen model at 16 ranks per node.  Several
        partial / full pairs differ only in the last digits, so the commit
        is checked against the oracle's argmin, not only the pinned list."""
        problem = strong_scaling_problem(65536, 256, epsilon=0.001,
                                         theta=math.pi / 4.0)
        hierarchy = build_hierarchy(problem.matrix)
        mapping = paper_mapping(256, ranks_per_node=16)
        traces = []
        for _ in range(2):
            with WorldVCycle(hierarchy, mapping, variant="auto",
                             runtime="engine") as vcycle:
                traces.append(vcycle.decision_trace)
        assert traces[0].to_json() == traces[1].to_json()
        oracle = self._oracle(hierarchy, mapping,
                              lassen_parameters(active_per_node=16),
                              vcycle.schedule)
        trace = traces[0]
        assert len(trace) == len(oracle)
        for level, (event, (modeled, best)) in enumerate(zip(trace, oracle)):
            assert event.level == level
            assert event.estimates == {v.value: t for v, t in modeled.items()}
            assert event.variant == best.value
            assert event.reason.endswith("; committed at set-up for the solve")
        assert [trace.committed(level).value for level in trace.levels()] == [
            "standard", "full", "partial", "full", "full", "full", "full",
            "partial", "full", "full"]
        trace.validate()

    def test_a_single_level_hierarchy_prices_its_fine_product(self):
        """On one level no cycle round runs on the fine ``A``: its one
        round per solve iteration is the convergence check.  The commit
        prices it beside the gather, so ``fine_spmv`` runs a variant chosen
        on its own plans too, not on the gather's alone."""
        matrix = ParCSRMatrix(rotated_anisotropic_diffusion((24, 24)),
                              RowPartition.even(576, 8))
        hierarchy = build_hierarchy(matrix, max_levels=1)
        mapping = paper_mapping(8, ranks_per_node=4)
        with WorldVCycle(hierarchy, mapping, variant="auto",
                         runtime="engine") as vcycle:
            assert [row[:4] for row in vcycle.schedule] == [
                (0, "A", 0, 1), (0, "gather", 1, 1)]
            [event] = vcycle.decision_trace
            assert vcycle.fine_spmv.collective.variant.value == event.variant
        [(modeled, best)] = self._oracle(
            hierarchy, mapping, lassen_parameters(active_per_node=4),
            vcycle.schedule)
        assert event.estimates == {v.value: t for v, t in modeled.items()}
        assert event.variant == best.value

    def test_each_level_runs_and_compiles_only_its_committed_variant(
            self, count_calls):
        """One compile per exchange, as many as a fixed variant makes, and
        every exchange of a level on the level's commit."""
        matrix, hierarchy, mapping = _problem()
        compiles = {}
        for variant in ("auto", Variant.PARTIAL):
            plan_cache.clear_plan_cache()
            compiles[variant] = count_calls(
                lambda: WorldVCycle(hierarchy, mapping, variant=variant,
                                    runtime="engine").close(),
                of=[exchange_module.compile_world_exchange])
        plan_cache.clear_plan_cache()
        with WorldVCycle(hierarchy, mapping, variant="auto") as vcycle:
            choices = vcycle.decision_trace.choices()
            for index in range(hierarchy.n_levels):
                assert {row.collective.plan.variant for row in vcycle.schedule
                        if row.level == index} == {choices[index]}
        assert compiles["auto"] == compiles[Variant.PARTIAL] == \
            3 * (hierarchy.n_levels - 1) + 1

    def test_model_prices_the_commit(self):
        """``model=`` replaces the default: a model pricing every phase
        alike makes the one-phase standard plan the cheapest on every
        level, where the default commits ``full`` on the coarsest."""
        matrix, hierarchy, mapping = _problem()
        for model, coarsest in ((None, "full"), (_FlatModel(1e-6), "standard")):
            with WorldVCycle(hierarchy, mapping, variant="auto",
                             model=model) as vcycle:
                trace = vcycle.decision_trace
            assert [event.variant for event in trace] == \
                ["standard"] * (hierarchy.n_levels - 1) + [coarsest]
        oracle = self._oracle(hierarchy, mapping, _FlatModel(1e-6),
                              vcycle.schedule)
        assert [event.estimates for event in trace] == [
            {v.value: t for v, t in modeled.items()} for modeled, _ in oracle]

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_a_model_that_prices_a_plan_non_finite_is_refused(self, seconds):
        matrix, hierarchy, mapping = _problem()
        with pytest.raises(ValidationError, match="finite and non-negative"):
            WorldVCycle(hierarchy, mapping, variant="auto",
                        model=_FlatModel(seconds))

    def test_model_without_auto_is_refused(self):
        matrix, hierarchy, mapping = _problem()
        with pytest.raises(ValidationError, match="variant='auto'"):
            WorldVCycle(hierarchy, mapping, variant=Variant.FULL,
                        model=lassen_parameters())


class TestRuntimeByteIdentity:
    def _run(self, runtime: str, n_workers=None):
        matrix, hierarchy, mapping = _problem()
        b = np.ones(matrix.n_rows, dtype=np.float64)
        with ExchangeEngine(matrix.n_ranks, runtime=runtime,
                            n_workers=n_workers) as engine:
            vcycle = WorldVCycle(hierarchy, mapping, variant="auto",
                                 engine=engine)
            x = np.zeros(matrix.n_rows, dtype=np.float64)
            for _ in range(4):
                x = vcycle.cycle(b, x)
            return x, vcycle.decision_trace

    def test_trace_byte_identical_across_runtimes(self):
        """Engine vs procs: the same commits, hence the same canonical JSON
        byte string, and the same iterate."""
        x_engine, trace_engine = self._run("engine")
        x_procs, trace_procs = self._run("procs", n_workers=2)
        assert np.array_equal(x_engine, x_procs)
        assert trace_engine.choices() == trace_procs.choices()
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

        auto = solve("auto")
        assert auto.decision_trace is not None
        auto.decision_trace.validate()
        assert auto.decision_trace.choices()  # every level justified
        for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
            fixed = solve(variant)
            assert fixed.decision_trace is None
            assert np.array_equal(auto.solution, fixed.solution)
            assert auto.residual_norms == fixed.residual_norms
