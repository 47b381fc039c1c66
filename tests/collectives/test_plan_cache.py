"""Semantics of the content-addressed plan/exchange cache.

The cache contract (:mod:`repro.collectives.plan_cache`): a hit is
byte-identical to a cold compile, every key ingredient — mapping, variant,
strategy, dtype, item size — misses independently, hand-built plans are never
served from cache, and a defective on-disk entry degrades to a miss with a
:class:`PlanCacheWarning`, never to a wrong result.
"""

from __future__ import annotations

import os
import pickle
import warnings

import numpy as np
import pytest

from test_world_compile_equivalence import assert_worlds_identical

from repro.collectives import (
    BalanceStrategy,
    PlanCacheWarning,
    Variant,
    WorldNeighborCollective,
    clear_plan_cache,
    compile_world_exchange,
    make_plan,
    plan_cache_stats,
)
from repro.collectives import exchange, planner
from repro.collectives.plan import CollectivePlan, Phase, PlannedMessage
from repro.collectives import plan_cache
from repro.pattern import halo_exchange_pattern
from repro.topology import paper_mapping


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Every test starts with empty tiers and no disk directory configured."""
    monkeypatch.delenv(plan_cache.ENV_VAR, raising=False)
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


def test_nothing_is_hashed_while_the_disk_tier_is_off(pattern, mapping,
                                                      monkeypatch):
    """The SHA-256 content digest only addresses disk entries."""
    def no_hashing(*args, **kwargs):
        raise AssertionError("content digest computed with no cache directory")

    monkeypatch.setattr(plan_cache.hashlib, "sha256", no_hashing)
    for _ in range(2):                      # a cold build, then a memory hit
        plan = make_plan(pattern, mapping, Variant.FULL)
        collective = WorldNeighborCollective(plan)
        collective.close()
    assert plan_cache_stats()["world_memory_hits"] == 1


# -- on-disk tier -------------------------------------------------------------------


def enable_disk(monkeypatch, tmp_path):
    directory = tmp_path / "plan-cache"
    monkeypatch.setenv(plan_cache.ENV_VAR, str(directory))
    clear_plan_cache()
    return directory


def test_disk_round_trip_byte_identical(pattern, mapping, monkeypatch,
                                        tmp_path):
    directory = enable_disk(monkeypatch, tmp_path)
    plan = make_plan(pattern, mapping, Variant.FULL)
    cold = WorldNeighborCollective(plan)
    cold_world = cold.world
    cold.close()
    names = sorted(path.name for path in directory.iterdir())
    assert any(name.startswith("plan-") for name in names)
    assert any(name.startswith("world-") for name in names)

    clear_plan_cache()  # simulate a fresh process: memory gone, disk remains
    warm_plan = make_plan(pattern, mapping, Variant.FULL)
    assert warm_plan is not plan
    warm = WorldNeighborCollective(warm_plan)
    try:
        assert_worlds_identical(warm.world, cold_world)
        uncached = compile_world_exchange(
            make_plan(pattern, mapping, Variant.FULL, use_cache=False))
        assert_worlds_identical(warm.world, uncached)
    finally:
        warm.close()
    assert plan_cache_stats()["disk_hits"] >= 2


def test_a_world_is_stored_without_plan_or_replay_columns(
        pattern, mapping, monkeypatch, tmp_path):
    """The disk tier stores a world's message columns, result view and
    offsets only; loaded, the world gets the plan back and derives replay
    columns byte-equal to a fresh compile's."""
    directory = enable_disk(monkeypatch, tmp_path)
    plan = make_plan(pattern, mapping, Variant.PARTIAL)
    cold = WorldNeighborCollective(plan)
    cold.close()
    entry, = directory.glob("world-*.pkl")
    with entry.open("rb") as handle:
        stored = pickle.load(handle)["payload"]
    assert cold.world.n_world_rows > 0      # derived and kept, not pickled
    for world in (stored, pickle.loads(pickle.dumps(cold.world))):
        for replay in [world.replay] + [program.replay for program
                                        in world.programs.values()]:
            assert replay is world.replay
            assert (replay.plan, replay.columns) == (None, None)

    clear_plan_cache()  # a fresh process: memory gone, disk remains
    warm_plan = make_plan(pattern, mapping, Variant.PARTIAL)
    warm = WorldNeighborCollective(warm_plan)
    try:
        assert warm.world.replay.plan is warm_plan
        assert_worlds_identical(warm.world, compile_world_exchange(
            make_plan(pattern, mapping, Variant.PARTIAL, use_cache=False)))
    finally:
        warm.close()
    assert plan_cache_stats()["disk_hits"] >= 2


def test_a_plan_loaded_from_disk_shares_its_patterns_key_table(
        mapping, monkeypatch, tmp_path):
    """A pattern pickles its CSR columns and ``owned_keys``, not its other
    derived caches: a planned pattern's pickle is no larger than those
    arrays, loads back equal, and a plan read from the disk tier still
    gathers its phase tables through its pattern's own key table."""
    pattern = halo_exchange_pattern((4, 4), width=2)
    enable_disk(monkeypatch, tmp_path)
    plan = make_plan(pattern, mapping, Variant.FULL)
    pattern.edge_arrays(), pattern.edge_sources(), pattern.unique_edge_table()
    kept = sum(column.nbytes for column in pattern.csr() + pattern.owned_keys())
    # 2 KiB for pickle framing and metadata; the expanded edge arrays alone
    # are 36 KiB here.
    assert sum(column.nbytes for column in pattern.edge_arrays()) > 16 * 2048
    assert len(pickle.dumps(pattern)) <= kept + 2048
    twin = pickle.loads(pickle.dumps(pattern))
    assert twin == pattern and hash(twin) == hash(pattern)

    clear_plan_cache()  # a fresh process: memory gone, disk remains
    warm = make_plan(pattern, mapping, Variant.FULL)
    assert warm is not plan and warm.pattern == pattern
    holders, items, _ = warm.pattern.owned_keys()
    for table in warm.phases.values():
        assert np.shares_memory(table.key_holders, holders)
        assert np.shares_memory(table.key_items, items)
    assert plan_cache_stats()["disk_hits"] >= 1


def test_corrupted_disk_entry_discarded_then_recompiled(pattern, mapping,
                                                        monkeypatch,
                                                        tmp_path):
    directory = enable_disk(monkeypatch, tmp_path)
    make_plan(pattern, mapping, Variant.PARTIAL)
    entry = next(path for path in directory.iterdir()
                 if path.name.startswith("plan-"))
    entry.write_bytes(b"not a pickle at all")

    clear_plan_cache()
    with pytest.warns(PlanCacheWarning, match="unreadable"):
        recompiled = make_plan(pattern, mapping, Variant.PARTIAL)
    cold = make_plan(pattern, mapping, Variant.PARTIAL, use_cache=False)
    assert_worlds_identical(compile_world_exchange(recompiled),
                            compile_world_exchange(cold))
    # the recompile self-heals the entry: it is valid again afterwards
    with entry.open("rb") as handle:
        envelope = pickle.load(handle)
    assert envelope["format"] == plan_cache.CACHE_FORMAT_VERSION


def test_stale_format_version_discarded(pattern, mapping, monkeypatch,
                                        tmp_path):
    directory = enable_disk(monkeypatch, tmp_path)
    make_plan(pattern, mapping, Variant.STANDARD)
    entry = next(path for path in directory.iterdir()
                 if path.name.startswith("plan-"))
    with entry.open("wb") as handle:
        pickle.dump({"format": plan_cache.CACHE_FORMAT_VERSION - 1,
                     "kind": "plan", "digest": "stale", "payload": None},
                    handle)
    clear_plan_cache()
    with pytest.warns(PlanCacheWarning, match="stale"):
        make_plan(pattern, mapping, Variant.STANDARD)


def test_mismatched_digest_discarded(pattern, mapping, monkeypatch, tmp_path):
    directory = enable_disk(monkeypatch, tmp_path)
    make_plan(pattern, mapping, Variant.STANDARD)
    entry = next(path for path in directory.iterdir()
                 if path.name.startswith("plan-"))
    with entry.open("wb") as handle:
        pickle.dump({"format": plan_cache.CACHE_FORMAT_VERSION,
                     "kind": "plan", "digest": "0" * 64, "payload": None},
                    handle)
    clear_plan_cache()
    with pytest.warns(PlanCacheWarning, match="digest mismatch"):
        make_plan(pattern, mapping, Variant.STANDARD)


def test_clear_plan_cache_disk_removes_entries(pattern, mapping, monkeypatch,
                                               tmp_path):
    directory = enable_disk(monkeypatch, tmp_path)
    make_plan(pattern, mapping, Variant.PARTIAL)
    assert list(directory.iterdir())
    clear_plan_cache(disk=True)
    assert not [path for path in directory.iterdir()
                if path.suffix == ".pkl"]


def test_no_disk_writes_without_env(pattern, mapping, tmp_path):
    assert plan_cache.cache_dir() is None
    make_plan(pattern, mapping, Variant.PARTIAL)
    assert not list(tmp_path.iterdir())
    assert plan_cache_stats()["disk_hits"] == 0
    assert plan_cache_stats()["disk_misses"] == 0


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


def test_disk_loaded_world_usable_under_procs(pattern, mapping, monkeypatch,
                                              tmp_path):
    enable_disk(monkeypatch, tmp_path)
    plan = make_plan(pattern, mapping, Variant.FULL)
    cold = WorldNeighborCollective(plan)
    values = [100.0 * rank + cold.owned_item_ids(rank).astype(float)
              for rank in range(pattern.n_ranks)]
    expected = cold.exchange(values)
    cold.close()

    clear_plan_cache()  # fresh process: the world comes back from disk
    warm = WorldNeighborCollective(
        make_plan(pattern, mapping, Variant.FULL), runtime="procs",
        n_workers=2)
    try:
        for lhs, rhs in zip(warm.exchange(values), expected):
            np.testing.assert_array_equal(lhs, rhs)
    finally:
        warm.close()


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
