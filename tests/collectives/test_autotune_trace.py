"""The solve path's per-level decisions, as its schedule reports them.

Every row of ``WorldVCycle.schedule`` carries its level's
:class:`DecisionEvent`; the contracts pinned here:

* the event and its rule — four frozen fields, estimates read as real
  seconds (a string or a bool is refused, a sign of zero kept);
* the fixed-variant decision — every row says its variant, with no
  estimates and the reason "fixed by caller"; a level with no row has
  no decision;
* the modeled commit of ``variant="auto"`` — each level's argmin of the
  cost model over every candidate's plans, computed here independently,
  with only the committed variant compiled, and every row of a level on
  its level's one decision;
* decision *byte-identity* across execution runtimes: the same auto solve
  on ``"engine"`` and ``"procs"`` must produce the identical ``repr`` of
  every row's decision (the commit is made at set-up, before any round
  runs; ``repr`` tells ``-0.0`` from ``0.0``);
* solver equivalence — an auto solve is byte-identical to the fixed-variant
  solves it arbitrates between (variant choice changes time, never bytes).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle
from repro.collectives import exchange as exchange_module
from repro.collectives import plan_cache
from repro.collectives.autotune import (
    DEFAULT_CANDIDATES,
    DecisionEvent,
    seed_event,
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
from oracles import check_decisions, schedule_decisions, schedule_pattern

N_RANKS = 4

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
    def test_event_field_set_is_pinned(self):
        """What a schedule row says about its level: these four fields,
        frozen."""
        assert [field.name for field in dataclasses.fields(DecisionEvent)] \
            == ["level", "variant", "estimates", "reason"]
        event = seed_event(0, LEVEL_TIMES[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.variant = "full"

    def test_seed_event_golden(self):
        event = seed_event(0, LEVEL_TIMES[0])
        assert event == DecisionEvent(
            level=0, variant="partial",
            estimates={"standard": 3.0, "partial": 2.0, "full": 4.0},
            reason="cost model's cheapest candidate; committed at set-up "
                   "for the solve")
        assert all(type(value) is float for value in event.estimates.values())

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
            seeds = schedule_decisions(vcycle.schedule)
        assert len(seeds) == hierarchy.n_levels
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

    @pytest.mark.parametrize("full, match", [
        ("x", "full estimate must be seconds"),
        ("2", "full estimate must be seconds"),
        (True, "full estimate must be seconds"),
    ], ids=["string-estimate", "string-number-estimate", "bool-estimate"])
    def test_seed_event_refuses_an_estimate_that_is_not_seconds(self, full,
                                                                 match):
        """A string or a bool is not seconds, even where ``float()`` would
        read it: the rule refuses it instead of committing on it."""
        with pytest.raises(ValidationError, match=match):
            seed_event(0, {"standard": 3.0, "partial": 2.0, "full": full})

    @pytest.mark.parametrize("full", [
        2, np.float32(0.5), np.float64(1.5)],
        ids=["int", "numpy-float32", "numpy-float64"])
    def test_seed_event_coerces_a_real_estimate_to_float(self, full):
        """Any real number is seconds; the event holds it as a ``float``,
        so its ``repr`` does not depend on the model's number type."""
        event = seed_event(0, {"standard": 3.0, "partial": 2.5, "full": full})
        assert type(event.estimates["full"]) is float
        assert event.estimates["full"] == float(full)
        assert event == seed_event(
            0, {"standard": 3.0, "partial": 2.5, "full": float(full)})

    def test_seed_event_keeps_the_sign_of_a_zero_estimate(self):
        """``-0.0`` is non-negative seconds and ties ``0.0``, but the event
        keeps its sign, so comparing ``repr``s tells the two apart."""
        signed = seed_event(0, {"standard": -0.0, "partial": 0.0,
                                "full": 0.0})
        unsigned = seed_event(0, dict.fromkeys(DEFAULT_CANDIDATES, 0.0))
        assert math.copysign(1.0, signed.estimates["standard"]) == -1.0
        assert signed.variant == unsigned.variant == "standard"
        assert signed.reason == unsigned.reason == f"{TIE}; {SET_UP}"
        assert signed == unsigned
        assert repr(signed) != repr(unsigned)

    def test_seed_event_reads_estimates_keyed_by_variant_or_value(self):
        by_value = {"standard": 3.0, "partial": 2.0, "full": 4.0}
        mixed = {Variant.STANDARD: 3.0, "partial": 2.0, Variant.FULL: 4.0}
        assert seed_event(0, by_value) == seed_event(0, mixed) == \
            seed_event(0, LEVEL_TIMES[0])
        assert list(seed_event(0, mixed).estimates) == \
            [candidate.value for candidate in DEFAULT_CANDIDATES]

    @pytest.mark.parametrize("position, changes, match", [
        (0, {"variant": "standard"},
         "candidate-order argmin of its estimates is 'partial'"),
        (0, {"variant": "full"},
         "candidate-order argmin of its estimates is 'partial'"),
        (0, {"estimates": {"standard": 2.0, "partial": 1.0, "full": 1.0},
             "variant": "full"}, "argmin of its estimates is 'partial'"),
        (0, {"estimates": {"standard": 3.0, "partial": 2.0}},
         "not the candidates"),
        (0, {"estimates": {"standard": 3.0, "partial": 2.0, "full": 4.0,
                           "point_to_point": 1.0}}, "not the candidates"),
        (1, {"level": 0}, "one event per level, in level order"),
    ], ids=["variant-standard", "variant-full", "tie-out-of-candidate-order",
            "missing-estimate", "extra-estimate", "second-seed-for-a-level"])
    def test_the_decision_check_catches_tampering(self, position, changes,
                                                  match):
        """``check_decisions`` re-derives every commit: it accepts what
        ``seed_event`` records, one per level, and refuses each kind of
        tampering."""
        decisions = [seed_event(level, times)
                     for level, times in enumerate(LEVEL_TIMES)]
        check_decisions(decisions)
        decisions[position] = dataclasses.replace(decisions[position],
                                                  **changes)
        with pytest.raises(ValidationError, match=match):
            check_decisions(decisions)


class TestScheduleDecisions:
    """Each row of the schedule says why its level runs its variant."""

    def test_a_fixed_variant_solver_reports_every_level_fixed_by_caller(self):
        matrix, hierarchy, mapping = _problem()
        for variant in DEFAULT_CANDIDATES:
            with WorldAMGSolver(matrix, mapping, hierarchy=hierarchy,
                                variant=variant) as solver:
                schedule = solver.vcycle_executor.schedule
            assert {row.level for row in schedule} == \
                set(range(hierarchy.n_levels))
            for row in schedule:
                assert row.decision == DecisionEvent(
                    row.level, variant.value, {}, "fixed by caller")
                assert row.collective.variant == variant

    def test_every_row_of_an_auto_level_runs_its_levels_one_decision(self):
        matrix, hierarchy, mapping = _problem()
        with WorldAMGSolver(matrix, mapping, hierarchy=hierarchy,
                            variant="auto") as solver:
            schedule = solver.vcycle_executor.schedule
        decisions = schedule_decisions(schedule)   # one per level's rows
        assert len(decisions) == hierarchy.n_levels
        check_decisions(decisions)
        for row in schedule:
            assert row.collective.variant.value == row.decision.variant

    def test_an_auto_rows_decision_hashes_and_cannot_be_rewritten(self):
        """The event is frozen all through: it hashes by value, and its
        estimates, shared by every row of the level, reject a write."""
        matrix, hierarchy, mapping = _problem()
        with WorldVCycle(hierarchy, mapping, variant="auto") as vcycle:
            rows = [row for row in vcycle.schedule if row.level == 0]
        decision = rows[0].decision
        assert decision.estimates
        before = dict(decision.estimates)
        assert hash(decision) == hash(dataclasses.replace(decision))
        assert len({row.decision for row in rows}) == 1
        with pytest.raises(TypeError):
            decision.estimates["full"] = -1.0
        assert all(dict(row.decision.estimates) == before for row in rows)

    @pytest.mark.parametrize("value", [variant.value for variant in Variant])
    def test_a_variant_named_by_value_is_fixed_by_caller(self, value):
        """Every protocol, point-to-point too, named by its value: each row
        runs it and says the caller fixed it."""
        matrix, hierarchy, mapping = _problem()
        with WorldVCycle(hierarchy, mapping, variant=value) as vcycle:
            schedule = vcycle.schedule
        assert [event.level for event in schedule_decisions(schedule)] == \
            list(range(hierarchy.n_levels))
        for row in schedule:
            assert row.decision == DecisionEvent(row.level, value, {},
                                                 "fixed by caller")
            assert row.collective.variant == Variant(value)

    def test_auto_in_any_spelling_commits_alike(self):
        matrix, hierarchy, mapping = _problem()
        reprs = []
        for spelling in ("auto", " Auto ", "AUTO"):
            with WorldVCycle(hierarchy, mapping, variant=spelling) as vcycle:
                reprs.append([repr(row.decision) for row in vcycle.schedule])
                check_decisions(schedule_decisions(vcycle.schedule))
        assert reprs[0] == reprs[1] == reprs[2]

    def test_a_level_with_no_rows_has_no_decision(self):
        """On one rank no rank sends the coarse gather, so the coarsest
        level has no exchange: no row, hence no decision, while every
        smoothed level has its seed."""
        matrix = ParCSRMatrix(poisson_2d((12, 12)), RowPartition.even(144, 1))
        hierarchy = build_hierarchy(matrix, seed=1)
        assert hierarchy.n_levels >= 2
        mapping = paper_mapping(1, ranks_per_node=1)
        for variant in ("auto", Variant.PARTIAL):
            with WorldVCycle(hierarchy, mapping, variant=variant) as vcycle:
                decisions = schedule_decisions(vcycle.schedule)
            assert [event.level for event in decisions] == \
                list(range(hierarchy.n_levels - 1))
            if variant == "auto":
                check_decisions(decisions)


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
        reprs = []
        for _ in range(2):
            with WorldVCycle(hierarchy, mapping, variant="auto",
                             runtime="engine") as vcycle:
                reprs.append([repr(row.decision) for row in vcycle.schedule])
        assert reprs[0] == reprs[1]
        oracle = self._oracle(hierarchy, mapping,
                              lassen_parameters(active_per_node=16),
                              vcycle.schedule)
        decisions = schedule_decisions(vcycle.schedule)
        assert len(decisions) == len(oracle)
        for level, (event, (modeled, best)) in enumerate(zip(decisions,
                                                             oracle)):
            assert event.level == level
            assert event.estimates == {v.value: t for v, t in modeled.items()}
            assert event.variant == best.value
            assert event.reason.endswith("; committed at set-up for the solve")
        assert [event.variant for event in decisions] == [
            "standard", "full", "partial", "full", "full", "full", "full",
            "partial", "full", "full"]
        check_decisions(decisions)

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
            [event] = schedule_decisions(vcycle.schedule)
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
            decisions = schedule_decisions(vcycle.schedule)
            for index in range(hierarchy.n_levels):
                assert {row.collective.plan.variant for row in vcycle.schedule
                        if row.level == index} == \
                    {Variant(decisions[index].variant)}
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
                trace = schedule_decisions(vcycle.schedule)
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
            return x, vcycle.schedule

    def test_trace_byte_identical_across_runtimes(self):
        """Engine vs procs: the same commits, hence the same ``repr`` of
        every row's decision, and the same iterate."""
        x_engine, schedule_engine = self._run("engine")
        x_procs, schedule_procs = self._run("procs", n_workers=2)
        assert np.array_equal(x_engine, x_procs)
        assert [repr(row.decision) for row in schedule_engine] == \
            [repr(row.decision) for row in schedule_procs]
        check_decisions(schedule_decisions(schedule_engine))

    def test_fixed_decisions_identical_across_runtimes(self):
        """A fixed variant's rows say the same on either runtime."""
        matrix, hierarchy, mapping = _problem()
        reprs = []
        for runtime, n_workers in (("engine", None), ("procs", 2)):
            with ExchangeEngine(matrix.n_ranks, runtime=runtime,
                                n_workers=n_workers) as engine:
                vcycle = WorldVCycle(hierarchy, mapping,
                                     variant=Variant.FULL, engine=engine)
                reprs.append([repr(row.decision) for row in vcycle.schedule])
        assert reprs[0] == reprs[1]
        assert {row.decision.reason for row in vcycle.schedule} == \
            {"fixed by caller"}


class TestSolverEquivalence:
    def test_auto_solve_matches_its_chosen_fixed_variants_bytewise(self):
        matrix, hierarchy, mapping = _problem()
        b = np.arange(matrix.n_rows, dtype=np.float64)

        def solve(variant, **kwargs):
            with WorldAMGSolver(matrix, mapping, hierarchy=hierarchy,
                                variant=variant, **kwargs) as solver:
                return (solver.solve(b, max_iterations=6, tol=0.0),
                        schedule_decisions(solver.vcycle_executor.schedule))

        auto, decisions = solve("auto")
        check_decisions(decisions)
        assert len(decisions) == hierarchy.n_levels  # every level justified
        for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
            fixed, fixed_decisions = solve(variant)
            assert [event.reason for event in fixed_decisions] == \
                ["fixed by caller"] * hierarchy.n_levels
            assert np.array_equal(auto.solution, fixed.solution)
            assert auto.residual_norms == fixed.residual_norms
