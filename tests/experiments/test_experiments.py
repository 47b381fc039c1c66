"""Tests of the experiment harness at smoke scale (shapes, not absolute numbers)."""

import dataclasses

import pytest

from repro.amg.vcycle import WorldVCycle
from repro.collectives.autotune import seed_event
from repro.collectives.exchange import compile_world_exchange
from repro.collectives.plan import Variant
from repro.collectives.planner import all_plans
from repro.experiments.ablation import run_balance_ablation, run_selection_ablation
from repro.experiments.config import (
    ExperimentConfig,
    ExperimentContext,
    measured_cycle_times,
    measured_level_times,
)
from repro.experiments.crossover import run_crossover
from repro.experiments.graph_creation import run_graph_creation
from repro.experiments.per_level import (
    executed_cycle_statistics,
    executed_statistics,
    run_per_level,
)
from repro.experiments.runner import render_report, run_all_experiments
from repro.experiments.scaling import run_strong_scaling, run_weak_scaling
from oracles import check_decisions, schedule_decisions


@pytest.fixture(scope="module")
def smoke_config():
    return ExperimentConfig.smoke()


@pytest.fixture(scope="module")
def smoke_context(smoke_config):
    return ExperimentContext.build(smoke_config)


class TestConfig:
    def test_reduced_and_paper_configs(self):
        reduced = ExperimentConfig.reduced()
        paper = ExperimentConfig.paper()
        assert paper.n_rows == 524288 and paper.n_ranks == 2048
        assert reduced.n_rows < paper.n_rows

    def test_from_environment_default_is_reduced(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert ExperimentConfig.from_environment().n_rows == ExperimentConfig.reduced().n_rows

    def test_from_environment_paper_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert ExperimentConfig.from_environment().n_rows == 524288

    @pytest.mark.parametrize("value,paper", [
        ("0", False), ("false", False), ("False", False), (" FALSE ", False),
        ("", False), ("1", True), ("true", True), ("True", True),
        (" TRUE\n", True)])
    def test_from_environment_accepted_values(self, monkeypatch, value,
                                              paper):
        monkeypatch.setenv("REPRO_PAPER_SCALE", value)
        expected = ExperimentConfig.paper() if paper \
            else ExperimentConfig.reduced()
        assert ExperimentConfig.from_environment() == expected

    @pytest.mark.parametrize("value", ["flase", "yes", "2", "on", "paper"])
    def test_from_environment_refuses_a_typo(self, monkeypatch, value):
        from repro.utils.errors import ValidationError
        monkeypatch.setenv("REPRO_PAPER_SCALE", value)
        with pytest.raises(ValidationError, match="REPRO_PAPER_SCALE must be"):
            ExperimentConfig.from_environment()

    def test_with_ranks(self, smoke_config):
        assert smoke_config.with_ranks(128).n_ranks == 128

    def test_context_profiles_cached(self, smoke_context):
        assert smoke_context.profiles is smoke_context.profiles

    def test_context_redistribution(self, smoke_context):
        scaled = smoke_context.redistributed(16)
        assert scaled.config.n_ranks == 16
        assert scaled.hierarchy.levels[0].matrix.n_ranks == 16


class TestGraphCreation:
    def test_series_cover_all_scales(self, smoke_config):
        result = run_graph_creation(smoke_config)
        assert result.process_counts == list(smoke_config.graph_creation_ranks)
        assert set(result.costs) == {"spectrum", "mvapich"}
        assert all(len(v) == len(result.process_counts) for v in result.costs.values())

    def test_costs_grow_with_scale(self, smoke_config):
        result = run_graph_creation(smoke_config)
        for series in result.costs.values():
            assert series[-1] > series[0]

    def test_table_rendering(self, smoke_config):
        text = run_graph_creation(smoke_config).to_table()
        assert "Figure 6" in text and "mvapich" in text


class TestCrossover:
    def test_totals_linear_in_iterations(self, smoke_context):
        result = run_crossover(smoke_context)
        for variant, totals in result.totals.items():
            deltas = [b - a for a, b in zip(totals, totals[1:])]
            assert all(abs(d - deltas[0]) < 1e-12 for d in deltas)

    def test_optimized_variants_have_crossovers(self, smoke_context):
        result = run_crossover(smoke_context)
        assert result.crossovers[Variant.PARTIAL] is not None
        assert result.crossovers[Variant.FULL] is not None
        assert result.crossovers[Variant.FULL] <= result.crossovers[Variant.PARTIAL]

    def test_partial_init_higher_than_full(self, smoke_context):
        result = run_crossover(smoke_context)
        assert result.init_costs[Variant.PARTIAL] > result.init_costs[Variant.FULL]
        assert result.init_costs[Variant.STANDARD] < result.init_costs[Variant.FULL]

    def test_table_mentions_crossovers(self, smoke_context):
        assert "crossover" in run_crossover(smoke_context).to_table()


class TestPerLevel:
    def test_series_lengths_match_levels(self, smoke_context):
        result = run_per_level(smoke_context)
        n_levels = smoke_context.hierarchy.n_levels
        assert len(result.levels) == n_levels
        for series in (result.local_messages, result.global_messages,
                       result.global_bytes, result.times):
            for values in series.values():
                assert len(values) == n_levels

    def test_optimized_global_counts_never_worse(self, smoke_context):
        result = run_per_level(smoke_context)
        for std, opt in zip(result.global_messages["standard_global"],
                            result.global_messages["optimized_global"]):
            assert opt <= max(std, 1)

    def test_dedup_only_shrinks_messages(self, smoke_context):
        result = run_per_level(smoke_context)
        for partial, full in zip(result.global_bytes["partially_optimized"],
                                 result.global_bytes["fully_optimized"]):
            assert full <= partial
        assert result.max_dedup_saving() >= 0.0

    def test_unoptimized_neighbor_equals_hypre(self, smoke_context):
        result = run_per_level(smoke_context)
        assert result.times["unoptimized_neighbor"] == result.times["standard_hypre"]

    def test_tables_render(self, smoke_context):
        result = run_per_level(smoke_context)
        for table in (result.table_fig8(), result.table_fig9(),
                      result.table_fig10(), result.table_fig11()):
            assert "level" in table


class TestScaling:
    def test_strong_scaling_series(self, smoke_context):
        result = run_strong_scaling(smoke_context)
        assert result.mode == "strong"
        assert len(result.times["standard_hypre"]) == len(result.process_counts)
        speedups = result.speedup("partially_optimized_neighbor")
        assert all(s >= 0.999 for s in speedups)
        assert result.speedup_at_largest_scale("fully_optimized_neighbor") >= \
            result.speedup_at_largest_scale("partially_optimized_neighbor") - 1e-9

    def test_weak_scaling_series(self, smoke_config):
        result = run_weak_scaling(dataclasses.replace(
            smoke_config, scaling_ranks=(16, 32), weak_rows_per_rank=64))
        assert result.mode == "weak"
        assert len(result.times["fully_optimized_neighbor"]) == 2
        assert all(s >= 0.999 for s in result.speedup("fully_optimized_neighbor"))

    def test_unknown_protocol_rejected(self, smoke_context):
        result = run_strong_scaling(smoke_context)
        with pytest.raises(Exception):
            result.speedup("nonexistent")

    def test_best_per_level_fallback_never_hurts(self, smoke_context):
        """The optimized series sum ``min(variant, standard)`` per level, so
        they never exceed the variant's own per-level sum."""
        result = run_strong_scaling(smoke_context)
        for n_ranks, total in zip(
                result.process_counts,
                result.times["partially_optimized_neighbor"]):
            profiles = smoke_context.redistributed(n_ranks).profiles
            assert total == sum(min(p.times[Variant.PARTIAL],
                                    p.times[Variant.STANDARD])
                                for p in profiles)
            assert total <= sum(p.times[Variant.PARTIAL]
                                for p in profiles) + 1e-15


class TestAblationsAndRunner:
    def test_selection_ablation(self, smoke_context):
        result = run_selection_ablation(smoke_context)
        assert len(result.model_choice) == smoke_context.hierarchy.n_levels
        assert result.policy_times["oracle"] <= \
            result.policy_times["model_selection"] + 1e-12
        assert 0.0 <= result.agreement <= 1.0
        assert "Ablation" in result.to_table()

    def test_balance_ablation(self, smoke_context):
        result = run_balance_ablation(smoke_context)
        assert set(result.strategies) == {"round_robin", "bytes"}
        by_name = dict(zip(result.strategies, result.max_global_bytes))
        assert by_name["bytes"] <= by_name["round_robin"]

    def test_run_all_and_render(self, smoke_config):
        results = run_all_experiments(smoke_config, figures=[
            "fig06_graph_creation", "fig07_crossover", "fig08_11_per_level",
            "fig12_strong_scaling"])
        assert "fig06_graph_creation" in results
        report = render_report(results)
        assert "Figure 6" in report and "Figure 12" in report

    def test_figures_subset_selector(self, smoke_config):
        results = run_all_experiments(smoke_config,
                                      figures=["fig06_graph_creation"])
        assert list(results) == ["fig06_graph_creation"]
        report = render_report(results)
        assert "Figure 6" in report and "Figure 12" not in report

    def test_figures_selector_preserves_report_order(self, smoke_context,
                                                     smoke_config):
        results = run_all_experiments(
            smoke_config,
            figures=["fig07_crossover", "fig06_graph_creation"])
        assert list(results) == ["fig06_graph_creation", "fig07_crossover"]

    def test_unknown_figure_key_rejected(self, smoke_config):
        with pytest.raises(Exception, match="unknown figure"):
            run_all_experiments(smoke_config, figures=["fig99_nope"])

    def test_report_is_exactly_the_joined_sections(self, smoke_config):
        results = run_all_experiments(smoke_config,
                                      figures=["fig06_graph_creation",
                                               "fig13_weak_scaling"])
        report = render_report(results)
        expected = "\n\n".join([results["fig06_graph_creation"].to_table(),
                                results["fig13_weak_scaling"].to_table()])
        assert report == expected


class TestMeasuredHelpers:
    """The module-level helpers that execute what the figures model."""

    def test_per_level_executed_series_match_planned(self, smoke_context):
        fields = ("local_messages", "global_messages", "local_bytes",
                  "global_bytes")
        for profile in smoke_context.profiles:
            for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
                executed = executed_statistics(profile.plans[variant])
                planned = profile.statistics[variant]
                for field in fields:
                    assert getattr(executed, field).tolist() == \
                        getattr(planned, field).tolist(), (variant, field)

    def test_measured_level_times_shape(self, smoke_context):
        times = measured_level_times(smoke_context.profiles)
        assert len(times) == smoke_context.hierarchy.n_levels
        for per_variant in times:
            assert set(per_variant) == {Variant.POINT_TO_POINT, Variant.STANDARD,
                                        Variant.PARTIAL, Variant.FULL}
            assert all(t > 0.0 for t in per_variant.values())

    def test_executed_cycle_traffic_exceeds_single_rounds(self,
                                                          smoke_context):
        """A V-cycle exchanges each level's pattern several times (smoother
        sweeps + residual) plus the grid transfers, so the executed
        solve-phase traffic dominates the planned single-round traffic on
        every level with communication."""
        planned = run_per_level(smoke_context)
        standard, full = (
            executed_cycle_statistics(smoke_context.hierarchy,
                                      smoke_context.mapping, variant=variant)
            for variant in (Variant.STANDARD, Variant.FULL))
        assert len(standard) == len(planned.levels)
        for single, cycle in zip(planned.global_messages["standard_global"],
                                 standard):
            assert cycle.max_global_messages >= single
        assert sum(stats.max_global_bytes for stats in full) > \
            sum(planned.global_bytes["fully_optimized"])

    def test_executed_cycle_statistics_per_level(self, smoke_context):
        stats = executed_cycle_statistics(smoke_context.hierarchy,
                                          smoke_context.mapping,
                                          variant=Variant.FULL)
        assert len(stats) == smoke_context.hierarchy.n_levels
        assert stats[0].max_global_messages > 0

    def test_measured_cycle_times_shape(self, smoke_context):
        times = measured_cycle_times(smoke_context.hierarchy,
                                     smoke_context.mapping)
        assert set(times) == {Variant.POINT_TO_POINT, Variant.STANDARD,
                              Variant.PARTIAL, Variant.FULL}
        assert all(t > 0.0 for t in times.values())


def _cycle_decisions(context):
    """Each level's decision on the schedule of the auto cycle the drivers'
    ``auto`` series report."""
    with WorldVCycle(context.hierarchy, context.mapping, variant="auto",
                     model=context.model,
                     strategy=context.config.strategy) as cycle:
        return schedule_decisions(cycle.schedule)


class TestAutoSeries:
    """The drivers' ``auto`` series: every level on its ``variant="auto"``
    commit from cycle 0."""

    def test_the_drivers_commit_what_the_cycle_commits(self, smoke_context):
        """Every driver's ``auto`` reads the decisions the auto cycle puts
        on its schedule, on the coarsest level too, whose commit prices its
        gather."""
        decisions = _cycle_decisions(smoke_context)
        assert smoke_context.decisions == decisions
        assert len(decisions) == smoke_context.hierarchy.n_levels
        assert run_crossover(smoke_context, auto=True).decision_trace \
            == decisions
        assert run_per_level(smoke_context).decision_trace == decisions
        assert run_selection_ablation(smoke_context).auto_choice == \
            [event.variant for event in decisions]

    def test_the_drivers_compile_nothing_and_a_fixed_cycle_plans_no_candidates(
            self, smoke_config, count_calls):
        """The drivers' decisions plan the cycle's patterns and compile
        none of them; a fixed-variant cycle plans only its own variant."""
        context = ExperimentContext.build(smoke_config)

        def drivers():
            run_crossover(context, auto=True)
            run_per_level(context)
            run_selection_ablation(context)

        assert count_calls(drivers, of=[compile_world_exchange]) == 0

        def cycle(variant):
            with WorldVCycle(context.hierarchy, context.mapping,
                             variant=variant):
                pass

        assert count_calls(cycle, Variant.FULL, of=[all_plans]) == 0
        assert count_calls(cycle, "auto", of=[all_plans]) > 0

    def test_crossover_auto_series_is_opt_in(self, smoke_context):
        result = run_crossover(smoke_context)
        assert "auto" not in result.totals
        assert result.decision_trace is None

    def test_crossover_auto_series_and_trace(self, smoke_context):
        result = run_crossover(smoke_context, auto=True)
        assert "auto" in result.totals
        assert len(result.totals["auto"]) == len(result.iteration_counts)
        check_decisions(result.decision_trace)
        assert len(result.decision_trace) == len(smoke_context.profiles)
        # The series runs the cycle's commits at their A times, and on smoke
        # is never worse than any fixed variant.
        assert result.decision_trace == _cycle_decisions(smoke_context)
        for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
            assert result.per_iteration["auto"] <= \
                result.per_iteration[variant] + 1e-15
        assert result.per_iteration["auto"] == sum(
            profile.times[Variant(decision.variant)] for profile, decision
            in zip(smoke_context.profiles, result.decision_trace))
        # Planning every candidate costs standard + partial init (the
        # partial setup already wraps the full one).
        assert result.init_costs["auto"] == pytest.approx(
            result.init_costs[Variant.STANDARD]
            + result.init_costs[Variant.PARTIAL])
        assert "auto" in result.crossovers
        assert "auto" in result.to_table()

    def test_crossover_auto_totals_are_init_plus_n_iterations(
            self, smoke_context):
        result = run_crossover(smoke_context, auto=True)
        assert result.totals["auto"] == [
            result.init_costs["auto"] + n * result.per_iteration["auto"]
            for n in result.iteration_counts]

    def test_per_level_auto_selected_is_the_cycles_commit(self, smoke_context):
        result = run_per_level(smoke_context)
        auto = result.times["auto_selected"]
        assert len(auto) == len(result.levels)
        assert result.decision_trace == _cycle_decisions(smoke_context)
        for profile, decision, time in zip(smoke_context.profiles,
                                           result.decision_trace, auto):
            assert time == profile.times[Variant(decision.variant)]
        check_decisions(result.decision_trace)
        assert [event.level for event in result.decision_trace] == \
            result.levels

    def test_selection_ablation_auto_is_the_cycles_commit(self, smoke_context):
        result = run_selection_ablation(smoke_context)
        decisions = _cycle_decisions(smoke_context)
        profiles = smoke_context.profiles
        assert result.decision_trace == decisions
        assert result.auto_choice == [event.variant for event in decisions]
        assert result.policy_times["auto"] == sum(
            profile.times[Variant(event.variant)]
            for profile, event in zip(profiles, decisions))
        # The oracle column stays the per-level A-time argmin.
        assert result.oracle_choice == [
            seed_event(profile.level, profile.times).variant
            for profile in profiles]
        assert len(result.auto_choice) == len(result.levels)
        check_decisions(result.decision_trace)
        assert [event.level for event in result.decision_trace] == \
            result.levels
        assert "auto choice" in result.to_table()
