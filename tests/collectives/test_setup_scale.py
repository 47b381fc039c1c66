"""Set-up at scale: planning plus world compilation up to 16k ranks.

The set-up phase — planning a collective and compiling it into one batched
world program — once looped over every simulated rank and therefore scaled
as O(ranks x messages).  Two guards pin the world-level compiler
(:func:`repro.collectives.exchange.compile_world_exchange`) at the scales the
paper's largest runs need:

* a cold set-up (halo pattern -> partial plan -> world program) at 4096,
  8192 and 16384 simulated ranks, with the 16384-rank point under one
  generous absolute budget;
* a world compiler whose call count does not grow with ranks (counted, not
  timed).
"""

from __future__ import annotations

import time

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import compile_world_exchange
from repro.pattern.builders import halo_exchange_pattern
from repro.topology import paper_mapping

#: Halo grids whose rank counts trace the paper's weak-scaling sweep.
SETUP_GRIDS = {4096: (64, 64), 8192: (128, 64), 16384: (128, 128)}

#: Wall-clock budget for the largest set-up point (seconds).  The measured
#: time is ~10s on the CI machine class; the budget leaves headroom for noisy
#: shared runners while still catching any return of the per-rank loop,
#: which takes minutes at this scale.
BUDGET_16K_SECONDS = 60.0


def _partial_plan(grid):
    """A cold partial plan of the halo exchange on ``grid``, 16 ranks per node."""
    n_ranks = grid[0] * grid[1]
    return make_plan(halo_exchange_pattern(grid),
                     paper_mapping(n_ranks, ranks_per_node=16),
                     Variant.PARTIAL, use_cache=False)


def test_cold_setup_at_16384_ranks_under_60_s():
    """Times the full cold set-up at every grid in :data:`SETUP_GRIDS`
    (cache disabled, so this is pure planning and compilation); the
    16384-rank point must land inside :data:`BUDGET_16K_SECONDS`."""
    setup_seconds = {}
    for n_ranks in sorted(SETUP_GRIDS):
        start = time.perf_counter()
        world = compile_world_exchange(_partial_plan(SETUP_GRIDS[n_ranks]))
        setup_seconds[n_ranks] = time.perf_counter() - start
        assert world.n_messages > 0
        del world
    assert setup_seconds[16384] <= BUDGET_16K_SECONDS, \
        f"16k-rank setup took {setup_seconds[16384]:.1f}s " \
        f"(budget {BUDGET_16K_SECONDS:.0f}s)"


def test_world_compile_makes_as_many_calls_at_4096_ranks_as_at_256(
        count_calls):
    """The per-rank compiler the world pass replaced (the oracle of
    ``test_world_compile_equivalence.py``) looped over ranks; instead of
    racing it, ``compile_world_exchange`` must make the same number of
    Python + C calls on halo plans at 256, 1024 and 4096 ranks."""
    compile_calls = {}
    for side in (16, 32, 64):
        plan = _partial_plan((side, side))
        compile_world_exchange(plan)    # the pattern's cached tables settle
        compile_calls[side * side] = count_calls(compile_world_exchange, plan)
    assert len(set(compile_calls.values())) == 1, compile_calls
