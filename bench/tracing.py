"""The traced run: where the time of set-up and of one iteration goes.

A separate process from the end-to-end run, never used for its numbers.
Everything is observed from outside the library:

* set-up is replayed stage by stage through public functions on cold caches
  and compared with the whole constructor (``trace.setup_coverage``);
* iteration spans come from wrapping bound methods on the live instances;
  a layer's self time is its span minus the spans it caused;
* kernel time is the public fused kernel replayed over the registered world
  programs on a scratch work array.

Spans stay in memory and are handed back for the JSON document at exit.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.amg import (
    build_hierarchy,
    coarse_gather_pattern,
    level_patterns,
    level_transfer_patterns,
)
from repro.collectives import (
    ExchangeSpec,
    active_backend,
    clear_plan_cache,
    compile_world_exchange,
    make_plan,
    plan_cache_stats,
)
from repro.pattern import average_neighbors
from repro.perfmodel import lassen_parameters
from repro.simmpi import ExchangeEngine
from repro.utils.errors import CommunicationError

import metrics
from endtoend import WARMUP_BLOCK, run_pass, timed_block
from measure import (
    MIN_BATCH_S,
    ProcUsage,
    calibrate_py_ms,
    clock,
    collect_garbage,
    summary,
    timed,
    timed_batched,
)
from workloads import (
    RUNTIME,
    Checks,
    Exchange,
    oracle_values,
    payload_ratio,
    profile_iteration,
)

PLAN_CACHE_ENV = "REPRO_PLAN_CACHE"
#: The temporary plan-cache directory of a traced run (removed again before
#: exit; ``.bench_tmp-*`` is listed in .gitignore).
SCRATCH_PREFIX = ".bench_tmp-"


@dataclass(frozen=True)
class Effort:
    """How long the traced run dwells on its one-shot measurements."""

    setup_replay_s: float = 3.0     # staged set-up repeats while it fits this
    kernel_replays: int = 5         # batches of the kernel replay, fastest kept
    calibration_reps: int = 25
    min_batch_s: float = MIN_BATCH_S


#: ``--smoke`` checks the schema, not the numbers.
SMOKE_EFFORT = Effort(setup_replay_s=0.0, kernel_replays=1, calibration_reps=3,
                      min_batch_s=0.01)
#: The stages whose sum ``trace.setup_coverage`` compares with the whole.
SETUP_STAGES = ("sparse.comm_pkg.pattern_s", "sparse.parcsr.local_blocks_s",
                "collectives.planner.plan_s", "collectives.exchange.compile_s",
                "simmpi.engine.register_s")
#: Bytes the fused kernel moves per copied row besides the payload (read +
#: write): one int64 scatter index and one int64 source index.
INDEX_BYTES_PER_ROW = 16

CYCLE, SWEEP, MULTIPLY, RESTRICT, PROLONG, EXCHANGE, RUN = (
    "amg.vcycle.cycle", "amg.relax.sweep", "sparse.spmv.multiply",
    "sparse.spmv.restrict", "sparse.spmv.prolong", "collectives.exchange",
    "simmpi.engine.run")
_SPMV_SPANS = (MULTIPLY, RESTRICT, PROLONG)


# -- spans --------------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans recorded by wrappers set on live instances.

    A span is ``[name, level, start, end, parent index]``; the parent is the
    span that was open when this one started, so one iteration is one tree.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._open: List[int] = []
        self._wrapped: List[tuple] = []

    def wrap(self, target, method: str, name: str, level=None) -> None:
        """Replace ``target.method`` by a recording wrapper (instance only).

        ``level`` is the span's AMG level, or a callable computing it from
        the call's positional arguments.
        """
        original = getattr(target, method)
        spans, opened = self.spans, self._open
        level_of = level if callable(level) else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, level_of(*args) if level_of else level,
                          clock(), 0.0, opened[-1] if opened else -1])
            opened.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                opened.pop()
                spans[index][3] = clock()

        setattr(target, method, traced)
        self._wrapped.append((target, method))

    def unwrap_all(self) -> None:
        for target, method in self._wrapped:
            delattr(target, method)       # the class's method shows again
        self._wrapped = []

    def iterations(self) -> List[List[dict]]:
        """Spans grouped by root, each with ``duration`` and ``self`` seconds."""
        records = [{"index": index, "name": name, "level": level,
                    "start": start, "end": end, "parent": parent,
                    "duration": end - start, "self": end - start}
                   for index, (name, level, start, end, parent)
                   in enumerate(self.spans)]
        groups: List[List[dict]] = []
        root_group: Dict[int, List[dict]] = {}
        for index, record in enumerate(records):
            parent = record["parent"]
            if parent < 0:
                groups.append([record])
                root_group[index] = groups[-1]
            else:
                records[parent]["self"] -= record["duration"]
                root_group[index] = root_group[parent]
                root_group[index].append(record)
        return groups


def wrap_amg(recorder: SpanRecorder, workload, exchanges: Sequence[Exchange]) -> None:
    cycle = workload.solver.vcycle_executor
    coarsest = workload.hierarchy.n_levels - 1
    recorder.wrap(cycle, "cycle", CYCLE)
    for index, level in enumerate(cycle.levels):
        recorder.wrap(level.smoother, "sweep", SWEEP, index)
        for operator, name in ((level.spmv, MULTIPLY), (level.restrict, RESTRICT),
                               (level.prolong, PROLONG)):
            recorder.wrap(operator, "multiply", name, index)
            recorder.wrap(operator.collective, "exchange", EXCHANGE, index)
    # Rounds are attributed to a level by engine handle; the only handle the
    # cycle does not expose is its coarse gather's, on the coarsest level.
    level_of_handle = {exchange.handle: exchange.level for exchange in exchanges
                       if exchange.handle is not None}
    for engine in workload.engines():
        recorder.wrap(engine, "run", RUN,
                      lambda handle, values: level_of_handle.get(handle, coarsest))


def wrap_exchange(recorder: SpanRecorder, workload) -> None:
    recorder.wrap(workload.collective, "exchange", EXCHANGE, 0)
    recorder.wrap(workload.collective.engine, "run", RUN, 0)


def _folded(level: int) -> int:
    return min(level, metrics.TRACED_LEVELS - 1)


def iteration_breakdown(spans: List[dict], coarsest: int | None) -> Dict[str, float]:
    """Layer times of one traced iteration (one span tree), in milliseconds.

    ``reported_ms`` sums the layer metrics that partition the iteration; it
    misses the whole only by the exchange wrappers' own self time.
    """
    root = spans[0]

    def named(*names):
        return [span for span in spans if span["name"] in names]

    def total(chosen, field):
        return 1e3 * sum(span[field] for span in chosen)

    runs = named(RUN)
    out = {"simmpi.engine.run_ms": total(runs, "duration"),
           "simmpi.engine.rounds_per_iter": float(len(runs))}
    for run in runs:
        key = f"simmpi.engine.level{_folded(run['level'])}_run_ms"
        out[key] = out.get(key, 0.0) + 1e3 * run["duration"]
    if root["name"] != CYCLE:
        out["reported_ms"] = out["simmpi.engine.run_ms"]
        return out

    spmv = named(*_SPMV_SPANS)
    out["amg.vcycle.cycle_ms"] = 1e3 * root["duration"]
    out["amg.relax.self_ms"] = total(named(SWEEP), "self")
    out["sparse.spmv.local_ms"] = total(spmv, "self")
    out["sparse.spmv.calls_per_iter"] = float(len(spmv))
    children = [span for span in spans if span["parent"] == root["index"]]
    # The coarse solve (gather + direct solve) has no public method to wrap:
    # it is the gap between the deepest restrict ending and the deepest
    # prolong starting, and its gather is the cycle's only direct run child.
    coarse_ms = coarse_direct_ms = 0.0
    if coarsest:
        restrict, = [s for s in children
                     if s["name"] == RESTRICT and s["level"] == coarsest - 1]
        prolong, = [s for s in children
                    if s["name"] == PROLONG and s["level"] == coarsest - 1]
        coarse_ms = 1e3 * (prolong["start"] - restrict["end"])
        coarse_direct_ms = coarse_ms - total(
            [s for s in children if s["name"] == RUN], "duration")
        key = f"amg.vcycle.level{_folded(coarsest)}_ms"
        out[key] = coarse_ms
    out["amg.vcycle.coarse_ms"] = coarse_ms
    out["amg.vcycle.self_ms"] = 1e3 * root["self"] - coarse_direct_ms
    for span in children:
        if span["name"] != RUN:
            key = f"amg.vcycle.level{_folded(span['level'])}_ms"
            out[key] = out.get(key, 0.0) + 1e3 * span["duration"]
    out["reported_ms"] = (out["simmpi.engine.run_ms"] + out["amg.relax.self_ms"]
                          + out["sparse.spmv.local_ms"]
                          + out["amg.vcycle.self_ms"] + coarse_direct_ms)
    return out


# -- kernel replay ------------------------------------------------------------------


def kernel_replay(exchanges: Sequence[Exchange], effort: Effort):
    """Fused-kernel milliseconds and computed bytes of one iteration's rounds."""
    fused = active_backend().fused
    calls = []
    moved = 0
    for exchange in exchanges:
        world = exchange.world
        spec = world.spec
        work = np.zeros((world.n_world_rows, spec.item_size), dtype=spec.dtype)
        for kind, phase in world.steps:
            program = world.programs[phase]
            if kind == "send" or not program.scatter.size:
                continue
            sources = np.ascontiguousarray(program.gather[program.wire_perm])
            calls.extend([(work, program.scatter, sources)] * exchange.rounds)
            moved += exchange.rounds * program.scatter.size * (
                2 * spec.item_bytes + INDEX_BYTES_PER_ROW)

    def replay():
        for work, scatter, sources in calls:
            fused(work, scatter, sources)

    seconds = min(timed_batched(replay, min_batch_s=effort.min_batch_s)[0]
                  for _ in range(effort.kernel_replays))
    return seconds * 1e3, moved


# -- set-up, stage by stage ---------------------------------------------------------


def _plan_compile_register(patterns, workload) -> Dict[str, float]:
    """The collectives' share of set-up over ``patterns``, stage by stage."""
    plan_s, plans = timed(lambda: [
        make_plan(pattern, workload.mapping, workload.variant, use_cache=False)
        for pattern in patterns])
    compile_s, worlds = timed(lambda: [
        compile_world_exchange(plan, ExchangeSpec(dtype=plan.pattern.dtype,
                                                  item_size=plan.pattern.item_size))
        for plan in plans])
    with ExchangeEngine(workload.n_ranks, runtime=RUNTIME) as engine:
        register_s, _ = timed(lambda: [engine.register(world) for world in worlds])
    return {
        "collectives.planner.plan_s": plan_s,
        "collectives.exchange.compile_s": compile_s,
        "simmpi.engine.register_s": register_s,
        "collectives.plan.phases": float(sum(
            sum(1 for messages in plan.phases.values() if messages)
            for plan in plans)),
        "collectives.plan.msgs_total": float(sum(plan.n_messages for plan in plans)),
    }


def replay_setup_amg(workload, effort: Effort) -> Dict[str, float]:
    """One AMG set-up through public functions, then whole; leaves it live."""
    workload.before_pass()
    collect_garbage()
    matrix = workload.build_matrix(workload.take_raw())
    build_s, hierarchy = timed(lambda: build_hierarchy(matrix))
    smoothed = range(hierarchy.n_levels - 1)

    def patterns():
        found = level_patterns(hierarchy)[:-1]      # the coarsest A never runs
        for transfer in level_transfer_patterns(hierarchy):
            found += [transfer.restrict, transfer.prolong]
        gather = coarse_gather_pattern(hierarchy.levels[-1].matrix.partition)
        return found + ([gather] if gather.n_messages else [])

    def local_blocks():
        for index in smoothed:
            hierarchy.levels[index].matrix.all_local_blocks()
            hierarchy.restriction_matrix(index).all_local_blocks()
            hierarchy.prolongation_matrix(index).all_local_blocks()

    pattern_s, found = timed(patterns)
    blocks_s, _ = timed(local_blocks)
    stages = _plan_compile_register(found, workload)
    stages["sparse.comm_pkg.pattern_s"] = pattern_s
    stages["sparse.parcsr.local_blocks_s"] = blocks_s
    del hierarchy, matrix, found

    # The whole constructor, on cold caches and a fresh hierarchy.
    workload.before_pass()
    collect_garbage()
    workload.matrix = workload.build_matrix(workload.take_raw())
    rebuild_s, workload.hierarchy = timed(lambda: build_hierarchy(workload.matrix))
    init_s, workload.solver = timed(
        lambda: workload.build_solver(workload.matrix, workload.hierarchy))
    stages.update({
        "amg.hierarchy.build_s": min(build_s, rebuild_s),
        "amg.hierarchy.levels": float(workload.hierarchy.n_levels),
        "amg.hierarchy.operator_complexity":
            workload.hierarchy.operator_complexity(),
        "amg.vcycle.init_s": init_s,
    })
    return stages


def replay_setup_exchange(workload, effort: Effort) -> Dict[str, float]:
    """One exchange set-up through public functions, then whole; leaves it live."""
    workload.before_pass()
    collect_garbage()
    # Copying the raw columns is part of the operation: from_csr freezes
    # (and so may adopt) the arrays it is given.
    from_csr_s, pattern = timed_batched(
        lambda: workload.build_pattern(workload.fresh_columns()),
        min_batch_s=effort.min_batch_s)
    stages = _plan_compile_register([pattern], workload)
    stages.update({
        "pattern.from_csr_ms": from_csr_s * 1e3,
        "pattern.msgs": float(pattern.n_messages),
        "pattern.items": float(pattern.total_items),
        "pattern.avg_neighbors": average_neighbors(pattern),
    })
    del pattern

    workload.before_pass()
    collect_garbage()
    workload.pattern = workload.build_pattern(workload.take_raw())
    init_s, workload.collective = timed(
        lambda: workload.init_collective(workload.pattern))
    stages["collectives.api.init_s"] = init_s
    return stages


def staged_setup(workload, effort: Effort) -> Dict[str, float]:
    """Set-up stage by stage against the whole constructor, fastest of each.

    The replay repeats while it fits ``effort.setup_replay_s`` (always
    once): a one-shot reading of a 0.2 s stage is mostly the machine.  The
    stages the whole does not name separately (cache-key hashing, halo
    position tables, smoother diagonals, the coarse factorisation) are the
    gap ``trace.setup_coverage`` leaves below 1.
    """
    if workload.kind == "amg":
        replay, whole = replay_setup_amg, "amg.vcycle.init_s"
    else:
        replay, whole = replay_setup_exchange, "collectives.api.init_s"
    started = clock()
    best = replay(workload, effort)
    while clock() - started < effort.setup_replay_s:
        best = {key: min(value, best[key])
                for key, value in replay(workload, effort).items()}
    best["trace.setup_coverage"] = sum(
        best.get(stage, 0.0) for stage in SETUP_STAGES) / best[whole]
    return best


def _reinit(workload) -> Callable[[], None]:
    """Build the workload's collectives again from the live inputs, then close."""
    if workload.kind == "amg":
        return lambda: workload.build_solver(workload.matrix,
                                             workload.hierarchy).close()
    return lambda: workload.init_collective(workload.pattern).close()


def plan_cache_layers(workload, scratch_root: str, effort: Effort
                      ) -> Dict[str, float]:
    """Warm re-initialisation, and the disk tier on the exchange workloads."""
    reinit = _reinit(workload)
    before = plan_cache_stats()
    reinit()
    after = plan_cache_stats()

    def counted(suffix: str) -> float:
        return float(sum(after[key] - before[key] for key in after
                         if key.endswith(suffix)))

    layers = {
        "collectives.plan_cache.warm_init_ms": timed_batched(
            reinit, min_batch_s=effort.min_batch_s)[0] * 1e3,
        "collectives.plan_cache.hits": counted("memory_hits"),
        "collectives.plan_cache.misses": counted("memory_misses"),
    }
    if workload.kind != "exchange":
        return layers
    # One directory per process, so concurrent traced runs cannot collide.
    directory = tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=scratch_root)
    os.environ[PLAN_CACHE_ENV] = directory
    try:
        clear_plan_cache()
        layers["collectives.plan_cache.disk_store_s"], _ = timed(reinit)
        clear_plan_cache()              # the memory tiers only; files stay
        layers["collectives.plan_cache.disk_load_s"], _ = timed(reinit)
        layers["collectives.plan_cache.disk_bytes"] = float(sum(
            entry.stat().st_size for entry in os.scandir(directory)))
    finally:
        del os.environ[PLAN_CACHE_ENV]
        shutil.rmtree(directory, ignore_errors=True)
    return layers


# -- the procs runtime --------------------------------------------------------------


def procs_layers(workload, pin, engine_iter_ms: float, checks: Checks,
                 notes: List[str]) -> Dict[str, float]:
    """The same exchange on ``runtime="procs"``: recorded, never gated.

    The pin is lifted so the workers can use whatever cores there are; with
    more busy processes than cores this measures the scheduler, which is why
    it is a layer number and not a workload.
    """
    workers = min(2, os.cpu_count() or 1)
    rounds = min(workload.protocol.block, 30)
    with pin.lifted():
        try:
            start_s, collective = timed(lambda: workload.init_collective(
                workload.pattern, runtime="procs", n_workers=workers))
        except (OSError, CommunicationError) as error:
            notes.append(f"procs runtime unavailable: {error!r}")
            return {}
        with collective:
            world = collective.world
            flat = oracle_values(world.owned_items_all, workload.item_size, 3)
            values = flat if workload.flat_io \
                else np.split(flat, world.owned_offsets[1:-1])
            samples = []
            for _ in range(rounds):
                seconds, output = timed(lambda: collective.exchange(values))
                samples.append(seconds * 1e3)
            checks.expect(np.array_equal(
                np.concatenate(output),
                oracle_values(world.result_items_all, workload.item_size, 3)),
                f"{workload.name}: procs round differs from the oracle")
            events = len(collective.engine.events)
    round_ms = summary(samples)["p10"]
    return {"simmpi.procs.start_s": start_s,
            "simmpi.procs.round_ms": round_ms,
            "simmpi.procs.vs_engine": round_ms / engine_iter_ms,
            "simmpi.procs.recovery_events": float(events)}


# -- the traced protocol ------------------------------------------------------------


def measure(workload, machine: Dict, pin, scratch_root: str) -> Dict:
    """Run the traced protocol on a prepared workload; return the document parts."""
    checks = Checks()
    notes: List[str] = []
    effort = SMOKE_EFFORT if workload.smoke else Effort()
    layers = {name: 0.0 for name in metrics.PER_LAYER_UNITS}

    usage_start = ProcUsage()
    warmup = run_pass(workload, WARMUP_BLOCK, 1, checks)
    usage_warm = ProcUsage()

    layers.update(staged_setup(workload, effort))
    workload.first_iteration()
    block = workload.protocol.block
    exchanges = workload.exchanges()

    # Untraced, then traced, blocks of the same iterations in one process:
    # their ratio is what the wrappers cost.
    workload.prepare_block(block)
    untraced = summary([s * 1e3 for s in timed_block(workload, block)])
    workload.verify_block(checks)

    recorder = SpanRecorder()
    if workload.kind == "amg":
        wrap_amg(recorder, workload, exchanges)
        coarsest = workload.hierarchy.n_levels - 1
    else:
        wrap_exchange(recorder, workload)
        coarsest = None
    workload.prepare_block(block)
    traced = [s * 1e3 for s in timed_block(workload, block)]
    recorder.unwrap_all()
    workload.verify_block(checks)
    usage_timed = ProcUsage()

    breakdowns = [iteration_breakdown(group, coarsest)
                  for group in recorder.iterations()]
    for key in layers:
        if any(key in breakdown for breakdown in breakdowns):
            layers[key] = summary([b.get(key, 0.0) for b in breakdowns])["p10"]
    planned_rounds = sum(exchange.rounds for exchange in exchanges)
    checks.expect(all(b["simmpi.engine.rounds_per_iter"] == planned_rounds
                      for b in breakdowns),
                  f"{workload.name}: traced engine rounds per iteration differ "
                  f"from the {planned_rounds} the workload lists")

    fused_ms, moved = kernel_replay(exchanges, effort)
    layers["collectives.kernels.fused_ms"] = fused_ms
    layers["collectives.kernels.bytes_per_iter"] = float(moved)
    layers["collectives.kernels.gbps"] = moved / (fused_ms * 1e-3) / 1e9
    layers["simmpi.engine.io_ms"] = layers["simmpi.engine.run_ms"] - fused_ms

    # The reported layers of each iteration against that iteration timed
    # from outside the wrappers.
    layers["trace.iter_coverage"] = float(np.median(
        [b["reported_ms"] / whole for b, whole in zip(breakdowns, traced)]))
    layers["trace.overhead_frac"] = summary(traced)["p10"] / untraced["p10"] - 1.0

    layers.update(plan_cache_layers(workload, scratch_root, effort))

    traffic = profile_iteration(workload.engines(), workload.mapping,
                                workload.first_iteration, checks, exchanges)
    for name, count in traffic.msgs.items():
        layers[f"simmpi.profiler.msgs_{name}"] = float(count)
    for name, count in traffic.bytes.items():
        layers[f"simmpi.profiler.bytes_{name}"] = float(count)
    layers["simmpi.profiler.max_msgs_rank_inter_node"] = \
        float(traffic.max_msgs_rank_inter_node)
    layers["collectives.dedup.payload_ratio"] = payload_ratio(exchanges)
    model = lassen_parameters()
    layers["perfmodel.modeled_iter_us"] = 1e6 * sum(
        exchange.rounds * exchange.plan.modeled_time(model)
        for exchange in exchanges)

    solution: Dict = {}
    if workload.kind == "amg":
        # The end-to-end run steps its solve through vcycle/residual; here
        # the library's own solve() runs whole and meets the same checks.
        solve_wall_s, result = timed(workload.solve)
        solution = workload.final_checks(checks, result)
        solution["solve_wall_s"] = solve_wall_s
        layers["amg.solver.iters_to_tol"] = float(result.iterations)
        layers["amg.solver.convergence_factor"] = result.convergence_factor()
        sequential = workload.sequential_solver()
        x = workload.x0
        samples = []
        for _ in range(block):
            seconds, x = timed(lambda: sequential.vcycle(workload.b, x))
            samples.append(seconds * 1e3)
        layers["amg.solver.seq_iter_ms"] = summary(samples)["p10"]
    else:
        layers.update(procs_layers(workload, pin, untraced["p10"], checks, notes))

    workload.release()
    usage_end = ProcUsage()
    first = usage_warm.since(usage_start)
    layers["proc.first_pass_sys_s"] = first["sys_s"]
    layers["proc.first_pass_minflt"] = float(first["minflt"])
    layers["proc.timed_sys_s"] = usage_timed.since(usage_warm)["sys_s"]
    layers["machine.nproc"] = float(machine["nproc"])
    layers["machine.loadavg"] = machine["loadavg_start"]
    layers["machine.cal_py_ms"] = calibrate_py_ms(effort.calibration_reps)

    origin = recorder.spans[0][2]
    return {
        "layers": {name: {"value": layers[name], "unit": unit}
                   for name, unit in metrics.PER_LAYER_UNITS.items()},
        "checks": checks,
        "protocol": {"warmup_passes": 1, "warmup_block": WARMUP_BLOCK,
                     "untraced_block": block, "traced_block": block,
                     "kernel_replays": effort.kernel_replays,
                     "setup_replay_s": effort.setup_replay_s},
        "proc": {"first_pass_sys_s": first["sys_s"],
                 "first_pass_minflt": first["minflt"],
                 "first_pass_setup_s": warmup.setup_s,
                 "rss_after_first_pass_mb": usage_warm.maxrss_mb,
                 "timed_sys_s": layers["proc.timed_sys_s"],
                 "rss_at_exit_mb": usage_end.maxrss_mb},
        "spans": [[name, level, start - origin, end - origin, parent]
                  for name, level, start, end, parent in recorder.spans],
        "solution": solution,
        "notes": notes,
    }
