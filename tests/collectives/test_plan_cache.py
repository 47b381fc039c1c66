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
from repro.collectives.exchange import ExchangeSpec
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
    spec = ExchangeSpec(pattern.dtype, pattern.item_size)
    warm = WorldNeighborCollective(plan)
    try:
        cold_plan = make_plan(pattern, mapping, Variant.FULL, use_cache=False)
        cold = compile_world_exchange(cold_plan, spec)
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

    spec = ExchangeSpec(pattern.dtype, pattern.item_size)
    world = plan_cache.fetch_world(base, spec) \
        or compile_world_exchange(base, spec)
    plan_cache.store_world(base, spec, world)
    assert plan_cache.fetch_world(base, spec) is world
    assert plan_cache.fetch_world(
        base, ExchangeSpec(dtype=np.dtype(np.float32), item_size=1)) is None
    assert plan_cache.fetch_world(
        base, ExchangeSpec(dtype=spec.dtype, item_size=spec.item_size + 1)) \
        is None


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
    spec = ExchangeSpec(pattern.dtype, pattern.item_size)
    assert plan_cache.world_key(hand_built, spec) is None
    world = compile_world_exchange(hand_built, spec)
    plan_cache.store_world(hand_built, spec, world)
    assert plan_cache.fetch_world(hand_built, spec) is None


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
    spec = ExchangeSpec(pattern.dtype, pattern.item_size)
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
            make_plan(pattern, mapping, Variant.FULL, use_cache=False), spec)
        assert_worlds_identical(warm.world, uncached)
    finally:
        warm.close()
    assert plan_cache_stats()["disk_hits"] >= 2


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
    spec = ExchangeSpec(pattern.dtype, pattern.item_size)
    assert_worlds_identical(compile_world_exchange(recompiled, spec),
                            compile_world_exchange(cold, spec))
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
