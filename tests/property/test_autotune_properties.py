"""Property-based tests (hypothesis) for the online autotuner.

The invariants ISSUE 9 pins:

* **bounded exploration** — probe scheduling is lock-stepped, so during the
  initial probe phase every cycle runs ONE candidate hierarchy-wide and no
  auto cycle can ever cost more than the worst fixed variant's cycle;
* **convergence** — within the probe budget every level commits to its
  per-level cheapest candidate, so the steady per-iteration cost equals the
  oracle's (sum of per-level minima), never worse than any fixed variant;
* **determinism** — the selector never reads a clock; fed the same values it
  produces byte-identical decision traces and cost series, and an
  engine-backed auto solve, which commits at set-up, is just as
  reproducible;
* **drift** — a sustained change of the committed variant's cost triggers a
  clean re-probe and a new commit on the now-cheapest candidate;
* **hygiene** — measurements outside an open cycle never perturb the state
  machine, and a non-finite one is refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldVCycle
from repro.collectives.autotune import (
    DEFAULT_CANDIDATES,
    OnlineSelector,
    simulate_modeled_auto,
)
from repro.collectives.plan import Variant
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

CANDIDATES = DEFAULT_CANDIDATES

#: strictly positive, well-separated-enough costs (no subnormal noise).
_cost = st.floats(min_value=1e-6, max_value=10.0,
                  allow_nan=False, allow_infinity=False)

#: one hierarchy level: a modeled seconds value per candidate variant.
_level = st.fixed_dictionaries({variant: _cost for variant in CANDIDATES})

#: a hierarchy: per-level cost dicts, 1-5 levels.
_hierarchy = st.lists(_level, min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(level_times=_hierarchy, window=st.integers(min_value=1, max_value=4))
def test_no_auto_cycle_exceeds_the_worst_fixed_variant(level_times, window):
    """Lock-stepped probing: each cycle runs one variant hierarchy-wide."""
    sim = simulate_modeled_auto(level_times, window=window)
    worst_fixed = max(sum(times[variant] for times in level_times)
                      for variant in CANDIDATES)
    for cost in sim.per_cycle:
        assert cost <= worst_fixed + 1e-12


@settings(max_examples=40, deadline=None)
@given(level_times=_hierarchy, window=st.integers(min_value=1, max_value=4))
def test_converges_to_the_per_level_best_within_the_probe_budget(
        level_times, window):
    """Exactly probe_budget cycles suffice: every level lands on its minimum."""
    sim = simulate_modeled_auto(level_times, window=window,
                                n_cycles=len(CANDIDATES) * window)
    selector = sim.selector
    assert sim.selector.probe_budget == len(CANDIDATES) * window
    oracle = 0.0
    for level, times in enumerate(level_times):
        assert not selector.is_probing(level)
        best = min(times[variant] for variant in CANDIDATES)
        # The choice may differ from argmin on exact ties, but never its cost.
        assert times[sim.choices[level]] == best
        oracle += best
    assert sim.steady_per_iteration == pytest.approx(oracle)
    # Steady state therefore beats (or ties) every fixed policy.
    for variant in CANDIDATES:
        fixed = sum(times[variant] for times in level_times)
        assert sim.steady_per_iteration <= fixed + 1e-12


@settings(max_examples=40, deadline=None)
@given(level_times=_hierarchy, window=st.integers(min_value=1, max_value=3))
def test_simulation_is_deterministic(level_times, window):
    """Same inputs → byte-identical trace JSON and identical cost series."""
    first = simulate_modeled_auto(level_times, window=window)
    second = simulate_modeled_auto(level_times, window=window)
    assert first.trace.to_json() == second.trace.to_json()
    assert first.per_cycle == second.per_cycle
    assert first.choices == second.choices
    first.trace.validate()


@settings(max_examples=40, deadline=None)
@given(level_times=_hierarchy, window=st.integers(min_value=1, max_value=3))
def test_every_commit_references_a_probe_window_that_ran(level_times, window):
    sim = simulate_modeled_auto(level_times, window=window)
    sim.trace.validate()
    # One commit per level once converged, each justified by >= 1 probe.
    for level in range(len(level_times)):
        commits = sim.trace.events(kind="commit", level=level)
        probes = sim.trace.events(kind="probe", level=level)
        assert len(commits) == 1
        assert len(probes) == len(CANDIDATES)
        windows = {event.window for event in probes}
        assert commits[0].window in windows


def test_ties_break_on_candidate_order():
    """Equal measured costs must pick candidates[0] — deterministically."""
    sim = simulate_modeled_auto(
        [{variant: 1.0 for variant in CANDIDATES}], window=2)
    assert sim.choices[0] == CANDIDATES[0]


def test_drift_triggers_a_clean_reprobe_and_a_new_commit():
    """Sustained cost change on the committed variant re-runs the probes."""
    times = {Variant.STANDARD: 1.0, Variant.PARTIAL: 2.0, Variant.FULL: 3.0}
    selector = OnlineSelector(window=2, drift_factor=2.0)
    level_times = [times]

    def run_cycles(n):
        for _ in range(n):
            selector.begin_cycle()
            selector.record(0, float(times[selector.variant_for(0)]))
            selector.end_cycle()

    selector.seed(0, times)
    run_cycles(selector.probe_budget)
    assert selector.committed(0) == Variant.STANDARD
    assert not selector.is_probing(0)

    # The committed variant's true cost quadruples: drift both past the
    # factor and past every alternative.
    times[Variant.STANDARD] = 8.0
    run_cycles(2)                      # fill the rolling window -> drift event
    assert selector.is_probing(0)
    assert selector.trace.events(kind="drift", level=0)
    run_cycles(selector.probe_budget)  # full re-probe
    assert selector.committed(0) == Variant.PARTIAL
    switches = selector.trace.events(kind="switch", level=0)
    assert switches and switches[-1].variant == Variant.PARTIAL.value
    assert switches[-1].previous == Variant.STANDARD.value
    selector.trace.validate()
    del level_times


def test_records_outside_a_cycle_are_ignored():
    times = {Variant.STANDARD: 1.0, Variant.PARTIAL: 2.0, Variant.FULL: 3.0}
    selector = OnlineSelector(window=1)
    selector.seed(0, times)
    selector.record(0, 1e9)            # warm-up: no open cycle, no effect
    before = selector.trace.to_json()
    assert selector.trace.to_json() == before
    for _ in range(selector.probe_budget):
        selector.begin_cycle()
        selector.record(0, float(times[selector.variant_for(0)]))
        selector.record(99, 1.0)       # unmanaged level, also ignored
        selector.end_cycle()
    assert selector.committed(0) == Variant.STANDARD
    assert selector.estimates(0)[Variant.STANDARD] == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_seconds_are_refused(bad):
    """A ``nan`` would make an estimate ``nan`` and decide commits
    silently: seeds, records and the modeled simulation refuse it."""
    times = {Variant.STANDARD: 1.0, Variant.PARTIAL: 2.0, Variant.FULL: 3.0}
    selector = OnlineSelector(window=1)
    with pytest.raises(ValidationError, match="finite and non-negative"):
        selector.seed(0, {**times, Variant.PARTIAL: bad})
    selector.seed(0, times)
    selector.begin_cycle()
    with pytest.raises(ValidationError, match="finite and non-negative"):
        selector.record(0, bad)
    selector.end_cycle()
    assert selector.estimates(0) == times
    with pytest.raises(ValidationError, match="finite and non-negative"):
        simulate_modeled_auto([{**times, Variant.FULL: bad}])


def test_seed_rejects_duplicates_and_incomplete_estimates():
    selector = OnlineSelector()
    selector.seed(0, {v: 1.0 for v in CANDIDATES})
    with pytest.raises(ValidationError):
        selector.seed(0, {v: 1.0 for v in CANDIDATES})
    with pytest.raises(ValidationError):
        selector.seed(1, {Variant.STANDARD: 1.0})


def test_engine_backed_auto_vcycle_is_deterministic():
    """Under the ambient runtime (engine or procs via REPRO_RUNTIME), two
    constructions of an auto V-cycle commit alike and reproduce results
    and trace."""
    matrix = ParCSRMatrix(poisson_2d((12, 12)), RowPartition.even(144, 4))
    hierarchy = build_hierarchy(matrix, seed=1)
    mapping = paper_mapping(4, ranks_per_node=2)
    b = np.ones(matrix.n_rows, dtype=np.float64)

    def run():
        with WorldVCycle(hierarchy, mapping, variant="auto") as vcycle:
            x = np.zeros(matrix.n_rows, dtype=np.float64)
            for _ in range(4):
                x = vcycle.cycle(b, x)
            return x, vcycle.decision_trace.to_json()

    x_first, trace_first = run()
    x_second, trace_second = run()
    assert np.array_equal(x_first, x_second)
    assert trace_first == trace_second
