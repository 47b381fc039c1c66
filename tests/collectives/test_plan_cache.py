"""Semantics of the content-addressed plan/exchange cache.

The cache contract (:mod:`repro.collectives.plan_cache`): a hit is
byte-identical to a cold compile, every key ingredient — mapping, variant,
strategy, dtype, item size — misses independently, hand-built plans are never
served from cache, and the cache is in-process only: nothing is written to
disk, whatever the environment says.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_world_compile_equivalence import assert_worlds_identical

from repro.collectives import (
    BalanceStrategy,
    Variant,
    WorldNeighborCollective,
    clear_plan_cache,
    compile_world_exchange,
    make_plan,
    neighbor_alltoallv_init_world,
    plan_cache_stats,
)
from repro.collectives import exchange, planner
from repro.collectives.plan import CollectivePlan
from repro.collectives import plan_cache
from repro.pattern import halo_exchange_pattern
from repro.topology import paper_mapping


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts with an empty cache."""
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def pattern():
    return halo_exchange_pattern((4, 4))


@pytest.fixture
def mapping():
    return paper_mapping(16, ranks_per_node=4)


# -- in-memory tier -----------------------------------------------------------------


def test_memory_hit_returns_cached_plan_object(pattern, mapping):
    first = make_plan(pattern, mapping, Variant.PARTIAL)
    second = make_plan(pattern, mapping, Variant.PARTIAL)
    assert second is first
    assert plan_cache_stats()["plan_memory_hits"] == 1


def test_memory_hit_byte_identical_to_cold_compile(pattern, mapping):
    plan = make_plan(pattern, mapping, Variant.FULL)
    warm = WorldNeighborCollective(plan)
    try:
        cold_plan = make_plan(pattern, mapping, Variant.FULL, use_cache=False)
        cold = compile_world_exchange(cold_plan)
        assert_worlds_identical(warm.world, cold)
    finally:
        warm.close()


def test_world_cache_shared_across_collectives(pattern, mapping):
    plan = make_plan(pattern, mapping, Variant.STANDARD)
    first = WorldNeighborCollective(plan)
    second = WorldNeighborCollective(plan)
    try:
        assert second.world is first.world
        values = [100.0 * rank + first.owned_item_ids(rank).astype(float)
                  for rank in range(pattern.n_ranks)]
        for lhs, rhs in zip(first.exchange(values), second.exchange(values)):
            np.testing.assert_array_equal(lhs, rhs)
    finally:
        first.close()
        second.close()


def test_each_key_ingredient_misses_independently(pattern, mapping):
    base = make_plan(pattern, mapping, Variant.PARTIAL)
    other_mapping = paper_mapping(16, ranks_per_node=8)
    assert make_plan(pattern, other_mapping, Variant.PARTIAL) is not base
    assert make_plan(pattern, mapping, Variant.FULL) is not base
    assert make_plan(pattern, mapping, Variant.PARTIAL,
                     strategy=BalanceStrategy.ROUND_ROBIN) is not base

    world = plan_cache.fetch_world(base) or compile_world_exchange(base)
    plan_cache.store_world(base, world)
    assert plan_cache.fetch_world(base) is world
    # The element type is the pattern's, so it keys the plan and the world.
    for element in ({"dtype": np.float32}, {"item_size": 2}):
        wider = halo_exchange_pattern((4, 4), **element)
        assert wider != pattern
        other = make_plan(wider, mapping, Variant.PARTIAL)
        assert other is not base
        assert plan_cache.fetch_world(other) is None


def test_strategy_normalised_out_of_unaggregated_keys(pattern, mapping):
    bytes_plan = make_plan(pattern, mapping, Variant.STANDARD,
                           strategy=BalanceStrategy.BYTES)
    count_plan = make_plan(pattern, mapping, Variant.STANDARD,
                           strategy=BalanceStrategy.ROUND_ROBIN)
    assert count_plan is bytes_plan


def test_use_cache_false_always_recompiles(pattern, mapping):
    cached = make_plan(pattern, mapping, Variant.FULL)
    cold = make_plan(pattern, mapping, Variant.FULL, use_cache=False)
    assert cold is not cached


def test_hand_built_plan_never_cached(pattern, mapping):
    reference = make_plan(pattern, mapping, Variant.STANDARD, use_cache=False)
    hand_built = CollectivePlan(
        variant=reference.variant, pattern=reference.pattern,
        mapping=reference.mapping, phases=reference.phases,
        self_deliveries=reference.self_deliveries)
    assert hand_built.cache_token is None
    world = compile_world_exchange(hand_built)
    plan_cache.store_world(hand_built, world)
    assert plan_cache.fetch_world(hand_built) is None


def test_a_leftover_disk_cache_variable_writes_nothing(pattern, mapping,
                                                        monkeypatch, tmp_path):
    """``REPRO_PLAN_CACHE`` once named a pickled disk tier; the cache is
    in-process only now, so a leftover setting neither writes nor counts."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    make_plan(pattern, mapping, Variant.FULL)
    neighbor_alltoallv_init_world(pattern, mapping,
                                  variant=Variant.FULL).close()
    assert not list(tmp_path.iterdir())
    assert set(plan_cache_stats()) == {
        "plan_memory_hits", "plan_memory_misses",
        "world_memory_hits", "world_memory_misses"}


# -- runtime re-registration --------------------------------------------------------


@pytest.mark.parametrize("runtime", ["engine", "procs"])
def test_cached_world_survives_re_registration(pattern, mapping, runtime):
    kwargs = {"runtime": runtime}
    if runtime == "procs":
        kwargs["n_workers"] = 2
    first = WorldNeighborCollective(
        make_plan(pattern, mapping, Variant.PARTIAL), **kwargs)
    second = WorldNeighborCollective(
        make_plan(pattern, mapping, Variant.PARTIAL), **kwargs)
    try:
        assert second.world is first.world
        values = [100.0 * rank + first.owned_item_ids(rank).astype(float)
                  for rank in range(pattern.n_ranks)]
        expected = first.exchange(values)
        for lhs, rhs in zip(second.exchange(values), expected):
            np.testing.assert_array_equal(lhs, rhs)
    finally:
        first.close()
        second.close()


# -- a warm driver re-run ------------------------------------------------------------


def test_warm_weak_scaling_rerun_makes_no_planner_or_compiler_call(count_calls):
    """A warm plan-cache driver re-run does no set-up work at all.

    Runs the Figure 13 weak-scaling driver twice at two mid-sized scale
    points.  The first (cold) run plans and caches every level; the second
    must be served from the content-addressed cache and the driver's
    hierarchy memo — not one new cache miss, not one call into a planner or
    the world compiler — and must produce byte-identical protocol times: the
    cache may only change *when* work happens, never the answer.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.scaling import _weak_setup, run_weak_scaling

    _weak_setup.cache_clear()
    # Entries into the planners and the world compiler, matched by code object.
    setup_functions = (planner.plan_standard, planner._aggregated_plan,
                       exchange.compile_world_exchange)
    results = []

    def weak_scaling_run():
        results.append(run_weak_scaling(ExperimentConfig(
            scaling_ranks=(256, 1024), weak_rows_per_rank=8)))

    cold_calls = count_calls(weak_scaling_run, of=setup_functions)
    cold_stats = plan_cache_stats()
    warm_calls = count_calls(weak_scaling_run, of=setup_functions)
    stats = plan_cache_stats()
    cold_result, warm_result = results

    assert warm_result.times == cold_result.times, \
        "warm re-run must be byte-identical to the cold run"
    assert cold_calls > 0, "the cold run must actually plan"
    assert warm_calls == 0, \
        f"warm run re-entered a planner or the compiler {warm_calls} times"
    for counter in ("plan_memory_misses", "world_memory_misses"):
        assert stats[counter] == cold_stats[counter], \
            f"warm run added {stats[counter] - cold_stats[counter]} {counter}"
    assert stats["plan_memory_hits"] > cold_stats["plan_memory_hits"], \
        "warm run never hit the plan cache"
