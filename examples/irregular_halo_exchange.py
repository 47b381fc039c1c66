"""Locality-aware aggregation on a structured halo exchange.

Run with ``python examples/irregular_halo_exchange.py``.

This is the "simulation" workload of the paper's introduction: every rank on a
2-D process grid exchanges boundary layers with its four neighbours.  The
script compares the three collective variants on that pattern, executes the
partially optimized one for every rank on the world exchange engine while a
traffic profiler watches every message, and then cross-checks the observed
per-locality traffic against the planner's prediction — the planner and the
executed exchange must agree exactly.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.collectives import Variant, all_plans, neighbor_alltoallv_init_world
from repro.pattern import halo_exchange_pattern
from repro.perfmodel import lassen_parameters
from repro.simmpi import ExchangeEngine, TrafficProfiler
from repro.topology import paper_mapping
from repro.utils import format_table


def main() -> int:
    grid = (8, 8)                      # 64 ranks on an 8x8 process grid
    n_ranks = grid[0] * grid[1]
    mapping = paper_mapping(n_ranks, ranks_per_node=16)
    pattern = halo_exchange_pattern(grid, points_per_cell=32)
    model = lassen_parameters()

    print(f"Halo exchange on an {grid[0]}x{grid[1]} process grid "
          f"({mapping.n_regions} nodes, 16 ranks each)")
    print(f"Pattern: {pattern.n_messages} messages, {pattern.total_bytes} bytes\n")

    plans = all_plans(pattern, mapping)
    rows = []
    for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
        plan = plans[variant]
        stats = plan.statistics()
        rows.append((variant.value, stats.max_global_messages,
                     stats.max_global_bytes, stats.max_local_messages,
                     f"{plan.modeled_time(model) * 1e6:.2f}"))
    print(format_table(
        ["variant", "max global msgs", "max global bytes", "max local msgs",
         "modeled time (us)"],
        rows, title="Halo exchange under each collective variant"))

    # Execute the partially optimized variant on an engine whose traffic
    # profiler sees every message of the round.
    profiler = TrafficProfiler(mapping)
    with ExchangeEngine(n_ranks, profiler=profiler) as engine:
        collective = neighbor_alltoallv_init_world(
            pattern, mapping, variant=Variant.PARTIAL, engine=engine)
        # Array-native exchange: owned values in, dense halo out, per rank.
        collective.exchange([collective.owned_item_ids(rank).astype("float64")
                             for rank in range(n_ranks)])

    observed_inter_region = len(profiler.inter_region_records())
    planned_inter_region = sum(
        1 for m in plans[Variant.PARTIAL].messages()
        if not mapping.same_region(m.src, m.dest))
    print("\nFunctional execution cross-check (partially optimized variant):")
    print(f"  inter-region messages observed by the profiler: {observed_inter_region}")
    print(f"  inter-region messages predicted by the planner:  {planned_inter_region}")
    assert observed_inter_region == planned_inter_region
    print("  planner and executed exchange agree.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
