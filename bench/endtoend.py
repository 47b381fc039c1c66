"""The untraced run: the numbers a user of the library would see.

One discarded warm-up pass, then timed passes (set-up, blocks, set-up,
blocks, …) until ``--seconds`` are spent, then — on the AMG workloads — one
whole solve, stepped cycle by cycle.  No wrapper and no profiler is attached while anything is
timed; the profiler joins for one extra iteration at the very end.

Every timing is reduced with the minimum: on the shared machines this runs
on, speed drifts by 10-20 % over minutes and bursts by more over seconds,
so only the fastest of many short samples repeats (see ``bench/README.md``
for the measurements behind each rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from measure import ProcUsage, clock, collect_garbage, summary
from workloads import Checks, profile_iteration

#: Iterations of the warm-up pass: enough to touch every buffer an iteration
#: allocates, no more.
WARMUP_BLOCK = 2


@dataclass
class PassTimes:
    """Clock readings of one pass."""

    build_s: float          # raw inputs → registered objects
    first_s: float          # the first completed iteration
    iter_s: List[float]     # every iteration of every block
    block_s: List[float]    # every block as one interval

    @property
    def setup_s(self) -> float:
        return self.build_s + self.first_s


def timed_block(workload, block: int) -> List[float]:
    """Seconds of each of ``block`` iterations (closed loop, one client)."""
    samples: List[float] = []
    for _ in range(block):
        tick = clock()
        workload.iterate()
        samples.append(clock() - tick)
    return samples


def run_pass(workload, block: int, blocks: int, checks: Checks) -> PassTimes:
    """Rebuild everything from raw inputs on cold caches, then run the blocks."""
    workload.before_pass()
    collect_garbage()
    start = clock()
    workload.build()
    built = clock()
    workload.first_iteration()
    first_done = clock()
    times = PassTimes(build_s=built - start, first_s=first_done - built,
                      iter_s=[], block_s=[])
    for _ in range(blocks):
        workload.prepare_block(block)
        block_start = clock()
        times.iter_s += timed_block(workload, block)
        times.block_s.append(clock() - block_start)
        workload.verify_block(checks)
    return times


def timed_passes(workload, seconds: float, checks: Checks) -> List[PassTimes]:
    """Passes until ``seconds`` are spent, within the protocol's pass limits."""
    protocol = workload.protocol
    passes: List[PassTimes] = []
    spent = 0.0
    while len(passes) < protocol.p_min or \
            (spent < seconds and len(passes) < protocol.p_max):
        times = run_pass(workload, protocol.block, protocol.blocks, checks)
        passes.append(times)
        spent += times.setup_s + sum(times.block_s)
    return passes


def _timing(stats: Dict, unit: str, value: float | None = None) -> Dict:
    """A gated timing (the minimum unless given) with its ungated quantiles."""
    return {"value": stats["min"] if value is None else value, "unit": unit,
            "p10": stats["p10"], "p50": stats["p50"], "p90": stats["p90"],
            "n": stats["n"]}


def measure(workload, seconds: float) -> Dict:
    """Run the whole protocol on a prepared workload; return the document parts."""
    checks = Checks()
    usage_start = ProcUsage()
    warmup = run_pass(workload, WARMUP_BLOCK, 1, checks)
    usage_warm = ProcUsage()
    passes = timed_passes(workload, seconds, checks)
    usage_timed = ProcUsage()

    setup = summary([times.setup_s for times in passes])
    iter_s = [sample for times in passes for sample in times.iter_s]
    solution: Dict = {}
    if workload.kind == "amg":
        # One whole solve as a stopwatch reading is a mean over 15-20 s of
        # machine weather (inter-quartile range 23-38 % over ten runs).  So
        # the solve is stepped through its public calls, which makes every
        # V-cycle one more iter_ms sample, and solve_s is composed from the
        # fastest cycle, the fastest convergence check and the iteration
        # count: it moves with iter_ms and, alone, with convergence.
        start = clock()
        result, cycle_s, residual_s = workload.solve_stepwise(clock)
        solve_wall_s = clock() - start
        solution = workload.final_checks(checks, result)
        iter_s += cycle_s
        residual = summary(residual_s)
        solve = _timing(summary([solve_wall_s]), "s",
                        result.iterations * min(iter_s)
                        + (result.iterations + 1) * residual["min"])
        solution.update({"solve_wall_s": solve_wall_s,
                         "residual_ms": residual["min"] * 1e3})
    else:
        # The "simulation" of an exchange workload is one block of rounds.
        solve = _timing(summary([block_s for times in passes
                                 for block_s in times.block_s]), "s")
    iteration = summary([sample * 1e3 for sample in iter_s])

    traffic = profile_iteration(workload.engines(), workload.mapping,
                                workload.first_iteration, checks,
                                workload.exchanges())
    workload.release()
    usage_end = ProcUsage()

    first = usage_warm.since(usage_start)
    timed_usage = usage_timed.since(usage_warm)
    return {
        "metrics": {
            "setup_s": _timing(setup, "s"),
            "iter_ms": _timing(iteration, "ms"),
            "solve_s": solve,
            "peak_rss_mb": {"value": usage_end.maxrss_mb, "unit": "MB"},
            "inter_node_msgs": {"value": traffic.msgs["inter_node"],
                                "unit": "count"},
            "inter_node_bytes": {"value": traffic.bytes["inter_node"],
                                 "unit": "bytes"},
        },
        "checks": checks,
        "protocol": {"warmup_passes": 1, "warmup_block": WARMUP_BLOCK,
                     "passes": len(passes), "block": workload.protocol.block,
                     "blocks_per_pass": workload.protocol.blocks,
                     "solves": 1 if workload.kind == "amg" else 0,
                     "seconds": seconds},
        "passes": [{"build_s": times.build_s, "first_s": times.first_s,
                    "setup_s": times.setup_s, "block_s": times.block_s,
                    "iter_ms": [sample * 1e3 for sample in times.iter_s]}
                   for times in [warmup] + passes],
        "solution": solution,
        "proc": {"first_pass_sys_s": first["sys_s"],
                 "first_pass_minflt": first["minflt"],
                 "first_pass_setup_s": warmup.setup_s,
                 "rss_after_first_pass_mb": usage_warm.maxrss_mb,
                 "timed_sys_s": timed_usage["sys_s"],
                 "timed_minflt": timed_usage["minflt"],
                 "rss_at_exit_mb": usage_end.maxrss_mb},
    }
