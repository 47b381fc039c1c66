"""Setup-phase weak scaling: world-level compilation gated at 16k ranks.

The figure benchmarks measure *modeled* communication; the iteration-path
microbenchmarks measure the exchange loop.  What neither covers is the setup
phase itself — planning a collective and compiling it into one batched world
program — whose seed implementation looped over every simulated rank and
therefore scaled as O(ranks x messages).  These gates pin the world-level
compiler (:func:`repro.collectives.exchange.compile_world_exchange`) and the
content-addressed plan cache (:mod:`repro.collectives.plan_cache`) at the
scales the paper's largest runs need:

* full setup (halo pattern -> partial plan -> world program) at 4096, 8192,
  and 16384 simulated ranks, with the 16384-rank point under a hard CI time
  gate;
* the production compiler >= 5x the pinned per-rank reference at 4096 ranks;
* a warm plan-cache driver re-run that plans and compiles nothing (counted,
  not timed) and is byte-identical to the cold run.
"""

from __future__ import annotations

import sys
import time

import pytest

from conftest import emit_bench

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import (compile_world_exchange,
                                        compile_world_exchange_reference)
from repro.collectives.plan_cache import clear_plan_cache, plan_cache_stats
from repro.pattern.builders import halo_exchange_pattern
from repro.topology import paper_mapping

#: Halo grids whose rank counts trace the paper's weak-scaling sweep.
SETUP_GRIDS = {4096: (64, 64), 8192: (128, 64), 16384: (128, 128)}

#: Wall-clock budget for the largest setup point (seconds).  The measured
#: time is ~10s on the CI machine class; the gate leaves headroom for noisy
#: shared runners while still catching any return of the per-rank loop,
#: which takes minutes at this scale.
GATE_16K_SECONDS = 60.0


def _full_setup(n_ranks: int):
    """One cold setup: halo pattern -> partial plan -> batched world program."""
    pattern = halo_exchange_pattern(SETUP_GRIDS[n_ranks])
    mapping = paper_mapping(n_ranks, ranks_per_node=16)
    plan = make_plan(pattern, mapping, Variant.PARTIAL, use_cache=False)
    return plan, compile_world_exchange(plan)


def test_bench_setup_scale_to_16k_ranks():
    """Perf gate: world-level setup holds at 16k ranks and beats the seed >= 5x.

    Times the full cold setup at every grid in :data:`SETUP_GRIDS` (cache
    disabled, so this is pure compilation cost) and, at 4096 ranks, the
    pinned per-rank reference compiler on the identical plan.  The reference
    is run once at the smallest scale only — it is the O(ranks x messages)
    seed path and already takes ~10s there.
    """
    setup_seconds = {}
    plans = {}
    for n_ranks in sorted(SETUP_GRIDS):
        start = time.perf_counter()
        plan, world = _full_setup(n_ranks)
        setup_seconds[n_ranks] = time.perf_counter() - start
        plans[n_ranks] = plan
        assert world.n_messages > 0
        del world

    start = time.perf_counter()
    reference_world = compile_world_exchange_reference(plans[4096])
    reference_4096 = time.perf_counter() - start
    assert reference_world.n_messages > 0
    del reference_world

    start = time.perf_counter()
    fast_world = compile_world_exchange(plans[4096])
    fast_4096 = time.perf_counter() - start
    assert fast_world.n_messages > 0
    speedup = reference_4096 / fast_4096

    table = ", ".join(f"{n}: {s:.2f}s" for n, s in sorted(setup_seconds.items()))
    print(f"\nworld setup ({table}); 4096-rank world compile: "
          f"reference {reference_4096:.2f}s, world-pass {fast_4096:.2f}s, "
          f"speedup {speedup:.1f}x")
    emit_bench("setup_scale", speedup=speedup, baseline_s=reference_4096,
               optimized_s=fast_4096, n_ranks=max(SETUP_GRIDS),
               setup_seconds={str(n): round(s, 3)
                              for n, s in sorted(setup_seconds.items())},
               gate_seconds=GATE_16K_SECONDS)
    assert setup_seconds[16384] <= GATE_16K_SECONDS, \
        f"16k-rank setup took {setup_seconds[16384]:.1f}s " \
        f"(gate {GATE_16K_SECONDS:.0f}s)"
    assert speedup >= 5.0, \
        f"expected >= 5x over per-rank reference, measured {speedup:.1f}x"


def _count_setup_calls(func):
    """Run ``func``; count entries into the planners and the world compiler.

    Counted under ``sys.setprofile`` by code object, so the count is exact
    whatever name a caller imported the functions under, and reads no clock.
    """
    from repro.collectives import exchange, planner

    targets = {function.__code__ for function in (
        planner.plan_standard, planner._aggregated_plan,
        exchange.compile_world_exchange)}
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in targets:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        result = func()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_bench_plan_cache_warm_rerun():
    """A warm plan-cache driver re-run does no set-up work at all.

    Runs the Figure 13 weak-scaling driver twice at two mid-sized scale
    points.  The first (cold) run plans and caches every level; the second
    must be served from the content-addressed cache and the driver's
    hierarchy memo — not one new cache miss, not one call into a planner or
    the world compiler — and must produce byte-identical protocol times: the
    cache may only change *when* work happens, never the answer.  Nothing
    here compares two clock readings; the seconds are recorded for the
    trajectory only.
    """
    from repro.experiments.scaling import _weak_setup, run_weak_scaling

    clear_plan_cache()
    _weak_setup.cache_clear()

    def driver():
        start = time.perf_counter()
        result = run_weak_scaling(process_counts=[256, 1024], rows_per_rank=8)
        return result, time.perf_counter() - start

    (cold_result, cold), cold_calls = _count_setup_calls(driver)
    cold_stats = plan_cache_stats()
    (warm_result, warm), warm_calls = _count_setup_calls(driver)
    stats = plan_cache_stats()

    print(f"\nweak-scaling driver: cold {cold:.2f}s ({cold_calls} planner/"
          f"compiler calls), warm {warm:.2f}s ({warm_calls} calls, plan "
          f"cache hits {stats['plan_memory_hits']})")
    emit_bench("plan_cache_warm", speedup=cold / warm, baseline_s=cold,
               optimized_s=warm, n_ranks=1024,
               plan_memory_hits=stats["plan_memory_hits"],
               plan_memory_misses=stats["plan_memory_misses"],
               cold_setup_calls=cold_calls, warm_setup_calls=warm_calls)
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
