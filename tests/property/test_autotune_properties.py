"""Property-based tests (hypothesis) for the one selection rule.

``variant="auto"`` and the experiment drivers' ``auto`` series commit every
level through :func:`~repro.collectives.autotune.seed_event`, one event per
level.  The invariants pinned here:

* **argmin** — each level commits the candidate-order argmin of its
  estimates, so the per-level cost sum equals the oracle's (sum of
  per-level minima) exactly and never exceeds any fixed variant;
* **determinism** — nothing reads a clock; the same estimates give
  decisions with byte-identical ``repr``, and an engine-backed auto solve,
  which commits at set-up, is just as reproducible;
* **hygiene** — a non-finite, negative or missing estimate is refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldVCycle
from repro.collectives.autotune import (
    DEFAULT_CANDIDATES,
    seed_event,
)
from repro.collectives.plan import Variant
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError
from oracles import check_decisions

CANDIDATES = DEFAULT_CANDIDATES

#: strictly positive costs drawn from a few values, so ties are common.
_cost = st.sampled_from([1e-6, 0.5, 1.0, 2.0, 10.0]) | st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False)

#: one hierarchy level: a modeled seconds value per candidate variant.
_level = st.fixed_dictionaries({variant: _cost for variant in CANDIDATES})

#: a hierarchy: per-level cost dicts, 1-5 levels.
_hierarchy = st.lists(_level, min_size=1, max_size=5)


def _per_level(level_times):
    """One ``seed_event`` per level, levels numbered from 0."""
    return tuple(seed_event(level, times)
                 for level, times in enumerate(level_times))


@settings(max_examples=60, deadline=None)
@given(level_times=_hierarchy)
def test_seed_event_commits_the_candidate_order_argmin_of_every_level(
        level_times):
    decisions = _per_level(level_times)
    check_decisions(decisions)
    assert [event.level for event in decisions] == \
        list(range(len(level_times)))
    oracle = 0.0
    committed = 0.0
    for event, times in zip(decisions, level_times):
        best = min(times[variant] for variant in CANDIDATES)
        first = next(v for v in CANDIDATES if times[v] == best)
        assert Variant(event.variant) == first
        oracle += best
        committed += times[Variant(event.variant)]
    assert committed == oracle
    for variant in CANDIDATES:
        assert committed <= sum(times[variant] for times in level_times)
    assert repr(_per_level(level_times)) == repr(decisions)


@pytest.mark.parametrize("candidates", [
    CANDIDATES, CANDIDATES[::-1], (Variant.FULL, Variant.STANDARD)],
    ids=["standard-partial-full", "full-partial-standard", "full-standard"])
def test_ties_break_on_candidate_order(candidates):
    """Equal costs pick ``candidates[0]``, whatever the order."""
    event = seed_event(0, {variant: 1.0 for variant in CANDIDATES},
                       candidates=candidates)
    assert event.variant == candidates[0].value


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_seconds_are_refused(bad):
    """A ``nan`` would decide a commit silently: the rule and the drivers'
    decisions refuse it."""
    times = {Variant.STANDARD: 1.0, Variant.PARTIAL: 2.0, Variant.FULL: 3.0}
    with pytest.raises(ValidationError, match="finite and non-negative"):
        seed_event(0, {**times, Variant.PARTIAL: bad})
    with pytest.raises(ValidationError, match="finite and non-negative"):
        _per_level([times, {**times, Variant.FULL: bad}])


def test_seed_rejects_duplicates_and_incomplete_estimates():
    """A seed lacking a candidate is refused.  (A second seed for a level
    is the decision check's to catch, in ``tests/oracles.py``.)"""
    with pytest.raises(ValidationError, match="lacks candidate 'partial'"):
        seed_event(1, {Variant.STANDARD: 1.0, Variant.FULL: 1.0})


def test_engine_backed_auto_vcycle_is_deterministic():
    """Under the ambient runtime (engine or procs via REPRO_RUNTIME), two
    constructions of an auto V-cycle commit alike and reproduce results
    and the ``repr`` of every schedule row's decision."""
    matrix = ParCSRMatrix(poisson_2d((12, 12)), RowPartition.even(144, 4))
    hierarchy = build_hierarchy(matrix, seed=1)
    mapping = paper_mapping(4, ranks_per_node=2)
    b = np.ones(matrix.n_rows, dtype=np.float64)

    def run():
        with WorldVCycle(hierarchy, mapping, variant="auto") as vcycle:
            x = np.zeros(matrix.n_rows, dtype=np.float64)
            for _ in range(4):
                x = vcycle.cycle(b, x)
            return x, [repr(row.decision) for row in vcycle.schedule]

    x_first, trace_first = run()
    x_second, trace_second = run()
    assert np.array_equal(x_first, x_second)
    assert trace_first == trace_second
