"""Names, units and gates of every metric the benchmark reports.

``BENCHMARK.json`` declares the same names to the driver; the contract test
keeps the two in step.  Every workload reports every name — a layer a
workload does not exercise reads 0 there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: The workloads, by the names later issues refer to (``workloads.py`` builds them).
WORKLOADS = ("amg_solve_256", "amg_thin_512", "halo_exchange_4096",
             "irregular_exchange_1024_wide")

#: Hierarchy depth the per-level layer metrics are declared for; deeper
#: levels fold into the last one.
TRACED_LEVELS = 10

#: ``(name, unit, better, bound)`` — bound = share of the parent's median by
#: which the metric may worsen.  The timings get the widest bound the
#: contract allows: on the machine class measured, the fastest sample of a
#: whole run still drifts by 5-17 % between runs minutes apart.  The traffic
#: counts repeat exactly for one seed; their bound only absorbs the
#: seed-to-seed variation of the random pattern (1 % in bytes), because the
#: driver draws a new seed per run.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("iter_ms", "ms", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("inter_node_msgs", "count", "lower", 0.05),
    ("inter_node_bytes", "bytes", "lower", 0.05),
]

#: Metrics compare.py holds to exact equality when both sets ran the same seeds.
EXACT_FOR_ONE_SEED = ("inter_node_msgs", "inter_node_bytes")

PER_LAYER: List[Tuple[str, str, str]] = [
    # set-up, stage by stage
    ("amg.hierarchy.build_s", "s", "lower"),
    ("amg.hierarchy.levels", "count", "lower"),
    ("amg.hierarchy.operator_complexity", "ratio", "lower"),
    ("sparse.comm_pkg.pattern_s", "s", "lower"),
    ("sparse.parcsr.local_blocks_s", "s", "lower"),
    ("pattern.from_csr_ms", "ms", "lower"),
    ("pattern.msgs", "count", "lower"),
    ("pattern.items", "count", "lower"),
    ("pattern.avg_neighbors", "count", "lower"),
    ("collectives.planner.plan_s", "s", "lower"),
    ("collectives.plan.phases", "count", "lower"),
    ("collectives.plan.msgs_total", "count", "lower"),
    ("collectives.exchange.compile_s", "s", "lower"),
    ("simmpi.engine.register_s", "s", "lower"),
    ("amg.vcycle.init_s", "s", "lower"),
    ("collectives.api.init_s", "s", "lower"),
    ("trace.setup_coverage", "ratio", "higher"),
    # plan cache
    ("collectives.plan_cache.warm_init_ms", "ms", "lower"),
    ("collectives.plan_cache.hits", "count", "higher"),
    ("collectives.plan_cache.misses", "count", "lower"),
    ("collectives.plan_cache.disk_store_s", "s", "lower"),
    ("collectives.plan_cache.disk_load_s", "s", "lower"),
    ("collectives.plan_cache.disk_bytes", "bytes", "lower"),
    # one iteration
    ("amg.vcycle.cycle_ms", "ms", "lower"),
    ("amg.vcycle.self_ms", "ms", "lower"),
    ("amg.vcycle.coarse_ms", "ms", "lower"),
    ("amg.relax.self_ms", "ms", "lower"),
    ("sparse.spmv.local_ms", "ms", "lower"),
    ("sparse.spmv.calls_per_iter", "count", "lower"),
    ("simmpi.engine.run_ms", "ms", "lower"),
    ("simmpi.engine.rounds_per_iter", "count", "lower"),
    ("simmpi.engine.io_ms", "ms", "lower"),
    ("collectives.kernels.fused_ms", "ms", "lower"),
    ("collectives.kernels.bytes_per_iter", "bytes", "lower"),
    ("collectives.kernels.gbps", "GB/s", "higher"),
]
PER_LAYER += [(f"amg.vcycle.level{k}_ms", "ms", "lower")
            for k in range(TRACED_LEVELS)]
PER_LAYER += [(f"simmpi.engine.level{k}_run_ms", "ms", "lower")
            for k in range(TRACED_LEVELS)]
PER_LAYER += [
    ("trace.iter_coverage", "ratio", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
    # plan quality, from one profiled iteration
    ("simmpi.profiler.msgs_intra_socket", "count", "lower"),
    ("simmpi.profiler.msgs_inter_socket", "count", "lower"),
    ("simmpi.profiler.msgs_inter_node", "count", "lower"),
    ("simmpi.profiler.bytes_intra_socket", "bytes", "lower"),
    ("simmpi.profiler.bytes_inter_socket", "bytes", "lower"),
    ("simmpi.profiler.bytes_inter_node", "bytes", "lower"),
    ("simmpi.profiler.max_msgs_rank_inter_node", "count", "lower"),
    ("collectives.dedup.payload_ratio", "ratio", "lower"),
    ("perfmodel.modeled_iter_us", "us", "lower"),
    # solver
    ("amg.solver.iters_to_tol", "count", "lower"),
    ("amg.solver.convergence_factor", "ratio", "lower"),
    ("amg.solver.seq_iter_ms", "ms", "lower"),
    # the procs runtime, recorded but never gated
    ("simmpi.procs.start_s", "s", "lower"),
    ("simmpi.procs.round_ms", "ms", "lower"),
    ("simmpi.procs.vs_engine", "ratio", "lower"),
    ("simmpi.procs.recovery_events", "count", "lower"),
    # the process and the machine
    ("proc.first_pass_sys_s", "s", "lower"),
    ("proc.first_pass_minflt", "count", "lower"),
    ("proc.timed_sys_s", "s", "lower"),
    ("machine.nproc", "count", "higher"),
    ("machine.loadavg", "count", "lower"),
    ("machine.cal_py_ms", "ms", "lower"),
]

END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}
