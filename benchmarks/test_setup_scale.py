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
* a world compiler whose call count does not grow with ranks (counted, not
  timed);
* a warm plan-cache driver re-run that plans and compiles nothing (counted,
  not timed) and is byte-identical to the cold run.
"""

from __future__ import annotations

import time

from conftest import emit_bench

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import compile_world_exchange
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


def _partial_plan(grid):
    """A cold partial plan of the halo exchange on ``grid``, 16 ranks per node."""
    n_ranks = grid[0] * grid[1]
    return make_plan(halo_exchange_pattern(grid),
                     paper_mapping(n_ranks, ranks_per_node=16),
                     Variant.PARTIAL, use_cache=False)


def _full_setup(n_ranks: int):
    """One cold setup: halo pattern -> partial plan -> batched world program."""
    return compile_world_exchange(_partial_plan(SETUP_GRIDS[n_ranks]))


def test_bench_setup_scale_to_16k_ranks(count_calls):
    """Perf gate: world-level setup holds at 16k ranks, in calls flat in ranks.

    Times the full cold setup at every grid in :data:`SETUP_GRIDS` (cache
    disabled, so this is pure compilation cost); the 16384-rank point must
    land inside :data:`GATE_16K_SECONDS`.  The per-rank compiler the world
    pass replaced (the oracle of
    ``tests/collectives/test_world_compile_equivalence.py``) looped over
    ranks; instead of racing it, ``compile_world_exchange`` must make the
    same number of Python + C calls on halo plans at 256, 1024 and 4096
    ranks.  The document records the budget's headroom: ``baseline_s`` is
    the budget, ``optimized_s`` the 16k-rank setup.
    """
    setup_seconds = {}
    for n_ranks in sorted(SETUP_GRIDS):
        start = time.perf_counter()
        world = _full_setup(n_ranks)
        setup_seconds[n_ranks] = time.perf_counter() - start
        assert world.n_messages > 0
        del world

    compile_calls = {}
    for side in (16, 32, 64):
        plan = _partial_plan((side, side))
        compile_world_exchange(plan)    # the pattern's cached tables settle
        compile_calls[side * side] = count_calls(compile_world_exchange, plan)

    table = ", ".join(f"{n}: {s:.2f}s" for n, s in sorted(setup_seconds.items()))
    print(f"\nworld setup ({table}); world compile calls {compile_calls}")
    emit_bench("setup_scale", speedup=GATE_16K_SECONDS / setup_seconds[16384],
               baseline_s=GATE_16K_SECONDS, optimized_s=setup_seconds[16384],
               n_ranks=max(SETUP_GRIDS),
               setup_seconds={str(n): round(s, 3)
                              for n, s in sorted(setup_seconds.items())},
               gate_seconds=GATE_16K_SECONDS,
               compile_calls={str(n): c for n, c in compile_calls.items()})
    assert setup_seconds[16384] <= GATE_16K_SECONDS, \
        f"16k-rank setup took {setup_seconds[16384]:.1f}s " \
        f"(gate {GATE_16K_SECONDS:.0f}s)"
    assert len(set(compile_calls.values())) == 1, compile_calls


def test_bench_plan_cache_warm_rerun(count_calls):
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
    from repro.collectives import exchange, planner
    from repro.experiments.scaling import _weak_setup, run_weak_scaling

    clear_plan_cache()
    _weak_setup.cache_clear()
    # Entries into the planners and the world compiler, matched by code object.
    setup_functions = (planner.plan_standard, planner._aggregated_plan,
                       exchange.compile_world_exchange)
    results, seconds = [], []

    def weak_scaling_run():
        start = time.perf_counter()
        results.append(run_weak_scaling(process_counts=[256, 1024],
                                        rows_per_rank=8))
        seconds.append(time.perf_counter() - start)

    cold_calls = count_calls(weak_scaling_run, of=setup_functions)
    cold_stats = plan_cache_stats()
    warm_calls = count_calls(weak_scaling_run, of=setup_functions)
    stats = plan_cache_stats()
    cold_result, warm_result = results
    cold, warm = seconds

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
