"""The library has one execution runtime, and a plan has one form.

Every collective, product, smoother sweep and coarse gather runs through the
batched :class:`~repro.simmpi.engine.ExchangeEngine`.  The thread-per-rank,
envelope-routed simulator (mailbox fabric, requests, communicators, the
SPMD world, graph communicators) and the per-rank collective built on it
were deleted.  So was a plan's per-message object form: a plan is only its
phase-table columns, with no slot tuples, message-list input, per-rank
message accessors, dict delivery multisets or slot-list helpers.  Nor does
the solve path time its rounds: ``variant="auto"`` commits each level's
variant from the cost model at set-up, and the engine's per-round timing
hook, the deterministic clock fed to it and the per-cycle measurement
window were deleted; so was the online probe / commit / drift selector the
experiment drivers once simulated.  And the engine is the execution
configuration: a caller who wants per-level traffic passes one profiled
engine per level, so the ``level_profilers=`` keyword was deleted.  The
plan cache is one in-process LRU: its pickled disk tier, the environment
variable naming its directory and the warning it raised were deleted.  The
schedule is the one record of what each level runs and why: the decision
trace, with its versioned schema and its loader, was deleted, and so was
``SolveResult``'s field that carried it.  The procs pool has one failure
policy — respawn, retry, then raise — so the fault-injection module, the
fallback and fail-fast policies, their engine and pool keywords and their
three environment variables were deleted.  The world compile has one
delivery check beside the planner's witness, the hop-by-hop join, so the
receipt-stream search it once ran on hand-built plans was deleted.  This
guard keeps all of them
deleted: it fails if one of the deleted module files exists again, or if
any module under ``src/``, ``examples/`` or ``bench/`` defines, imports or
references one of the deleted names, declares or passes one of the deleted
keywords, or spells one of the deleted environment variables.  The keyword
sets of the engine, the solve path's constructors, the figure drivers, the
element-type path and the solve result are pinned too, so a removed option
cannot come back unnoticed.
"""

from __future__ import annotations

import ast
import inspect
import os
import textwrap

import pytest

from repro.amg.comm_analysis import (
    hierarchy_comm_profiles,
    level_patterns,
    level_transfer_patterns,
)
from repro.amg.relax import DistributedJacobi
from repro.amg.solver import BoomerAMGSolver, SolveResult
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle, coarse_gather_pattern
from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.persistent import WorldNeighborCollective
from repro.experiments import (
    run_balance_ablation,
    run_crossover,
    run_graph_creation,
    run_per_level,
    run_selection_ablation,
    run_strong_scaling,
    run_weak_scaling,
)
from repro.experiments.config import measured_cycle_times, measured_level_times
from repro.experiments.per_level import (
    executed_cycle_statistics,
    executed_statistics,
)
from repro.pattern import CommPattern
from repro.pattern.builders import (
    halo_exchange_pattern,
    pattern_from_edges,
    random_pattern,
)
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.simmpi import ExchangeEngine
from repro.sparse.spmv import WorldSpMV

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

#: Trees the guard parses.
GUARDED = ("src", "examples", "bench")

#: Modules of the deleted envelope-routed runtime, and of the deleted
#: worker fault injection.
DELETED_MODULES = ("mailbox", "request", "comm", "world", "topo_comm",
                   "faults")

#: Public names of the deleted runtime and the per-rank collective API.
RUNTIME_NAMES = {"PersistentNeighborCollective", "neighbor_alltoallv_init",
                 "run_spmd", "SimWorld", "SimComm",
                 "dist_graph_create_adjacent", "Envelope"}

#: Names of the deleted per-message plan form and the helpers beside it.
#: (``SlotTable.take`` is gone too, but ``take`` is ``np.take`` elsewhere.)
PLAN_OBJECT_NAMES = {"Slot", "from_slots", "to_slots", "from_table", "_fill",
                     "from_messages", "_cut", "_views", "messages_from",
                     "messages_to", "_matching", "required_deliveries",
                     "planned_deliveries", "_columns_to_multiset",
                     "unique_pairs_first_appearance", "unique_payload_keys",
                     "duplicate_item_count", "group_slots_by_final_dest",
                     "dedup_savings_fraction", "_pair_columns",
                     "neighbor_lists", "_RowMap"}

#: Names of the deleted wall-clock autotuning hooks of the solve path.
CLOCK_HOOK_NAMES = {"set_run_observer", "FixedStepClock", "abort_cycle",
                    "_attach_observers", "_make_observer", "_recovery_events"}

#: Names of the deleted online selector, its modeled simulation, and the
#: event kinds and sources a trace of set-up commits no longer records.
SELECTOR_NAMES = {"OnlineSelector", "_LevelState", "AutoSimulation",
                  "simulate_modeled_auto", "_add_auto_series", "EVENT_KINDS",
                  "EVENT_SOURCES"}

#: Names of the deleted per-rank views of a pattern and its second edge
#: merge: a pattern is its CSR columns, and ``group_rows_to_csr`` is the one
#: pass that merges repeated edges.  (``CommPattern.edges`` and
#: ``CommPattern.transpose`` are gone too, but ``ParCSRMatrix.transpose`` is
#: live and ``edges`` is a common local name.)
PATTERN_VIEW_NAMES = {"send_map", "recv_map", "send_items", "recv_items",
                      "send_ranks", "recv_ranks", "edge_lists",
                      "from_edge_arrays", "_pattern_from_triples",
                      "_columns_from_edge_lists", "_recv_index", "_edge_slot"}

#: Names of the deleted on-disk tier of the plan cache.
PLAN_CACHE_DISK_NAMES = {"PlanCacheWarning", "cache_dir", "_disk_load",
                         "_disk_store", "_digest", "CACHE_FORMAT_VERSION"}

#: Names of the deleted decision trace: each row of ``WorldVCycle.schedule``
#: carries its level's decision.  (Its ``to_json`` / ``from_dict`` are gone
#: too, but those are common method names elsewhere.)
DECISION_TRACE_NAMES = {"DecisionTrace", "TRACE_SCHEMA_VERSION"}

#: Names of the deleted worker fault injection and of the failure policies
#: other than respawn-retry-raise: the serial fallback with its quarantined
#: pool, and the environment defaults of the policy and the ack timeout.
FAILURE_POLICY_NAMES = {"FaultPlan", "FaultSpec", "degraded", "quarantine",
                        "_fall_back", "_pool_failed", "FAULTS_ENV",
                        "ON_FAILURE_ENV", "ON_FAILURE_POLICIES",
                        "default_on_failure", "TIMEOUT_ENV",
                        "default_worker_timeout", "CORRUPT_WIRE_BYTES"}

#: Names of the deleted receipt-stream search of the world compile: a plan
#: the planner's witness does not certify goes to the hop-by-hop join.
RECEIPT_SEARCH_NAMES = {"_searched", "_receipt_stream", "_all_held",
                        "_unowned_queries", "_STEP_BITS"}

#: Names of the deleted second ``auto`` rule (each level's ``A`` times
#: alone): the drivers read ``ExperimentContext.decisions``, the commits
#: ``WorldVCycle(variant="auto")`` makes.
SECOND_AUTO_NAMES = {"seed_trace", "best_variant"}

DELETED_NAMES = RUNTIME_NAMES | PLAN_OBJECT_NAMES | CLOCK_HOOK_NAMES | \
    SELECTOR_NAMES | PATTERN_VIEW_NAMES | PLAN_CACHE_DISK_NAMES | \
    DECISION_TRACE_NAMES | FAILURE_POLICY_NAMES | RECEIPT_SEARCH_NAMES | \
    SECOND_AUTO_NAMES

#: Keywords no longer taken: per-level traffic is a list of profiled
#: engines passed as ``engine=``, and the pool's failure policy, retry
#: schedule and fault plan are not options.
DELETED_KEYWORDS = {"level_profilers", "on_failure", "fault_plan",
                    "max_retries", "retry_backoff"}

#: Environment variables the library no longer reads.
DELETED_VARIABLES = {"REPRO_FAULTS", "REPRO_ON_FAILURE",
                     "REPRO_WORKER_TIMEOUT"}

_DELETED_PATHS = tuple(f"repro.simmpi.{name}" for name in DELETED_MODULES)


def _is_deleted_module(module: str) -> bool:
    return any(module == path or module.startswith(path + ".")
               for path in _DELETED_PATHS)


def _violations(source: str) -> list:
    """``(line, what)`` for every definition, import or attribute reference
    of the deleted runtime in ``source``, every parameter or call keyword
    with a deleted keyword's name, and every string naming a deleted
    environment variable."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant):
            if node.value in DELETED_VARIABLES:
                found.append((node.lineno, node.value))
            continue
        if isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
            if name in DELETED_KEYWORDS:
                found.append((node.lineno, f"{name}="))
            continue
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets
                     if isinstance(target, ast.Name)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if _is_deleted_module(alias.name)]
            continue
        elif isinstance(node, ast.ImportFrom) and node.module:
            if _is_deleted_module(node.module):
                found.append((node.lineno, node.module))
                continue
            found += [(node.lineno, f"{node.module}.{alias.name}")
                      for alias in node.names
                      if alias.name in DELETED_NAMES
                      or _is_deleted_module(f"{node.module}.{alias.name}")]
            continue
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name in DELETED_NAMES]
    return found


def _guarded_modules():
    for tree in GUARDED:
        for directory, _, files in os.walk(os.path.join(REPO_ROOT, tree)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def test_the_envelope_runtime_modules_are_gone():
    simmpi = os.path.join(REPO_ROOT, "src", "repro", "simmpi")
    assert os.path.isfile(os.path.join(simmpi, "engine.py"))
    present = [name for name in DELETED_MODULES
               if os.path.exists(os.path.join(simmpi, f"{name}.py"))]
    assert not present, f"deleted runtime modules are back: {present}"


def test_no_module_defines_or_imports_the_deleted_runtime():
    modules = list(_guarded_modules())
    assert len(modules) > 50
    offences = []
    for path in modules:
        with open(path, encoding="utf-8") as handle:
            offences += [f"{os.path.relpath(path, REPO_ROOT)}:{line}: {what}"
                         for line, what in _violations(handle.read())]
    assert not offences, "\n".join(offences)


@pytest.mark.parametrize("source", [
    "from repro.simmpi.comm import Anything",
    "import repro.simmpi.mailbox",
    "from repro.simmpi.request import PersistentRequest",
    "from repro.simmpi import run_spmd",
    "from repro.simmpi import topo_comm",
    "from repro.collectives.api import neighbor_alltoallv_init",
    "from repro.collectives import PersistentNeighborCollective",
    "import repro.simmpi as simmpi\nworld = simmpi.SimWorld(4)",
    "class SimComm:\n    pass",
    "def dist_graph_create_adjacent(comm):\n    pass",
    "Envelope = tuple",
    "from repro.collectives.plan import Slot",
    "from repro.collectives import unique_payload_keys",
    "plan.messages_from(0)",
    "class _RowMap:\n    pass",
    "from repro.pattern import neighbor_lists",
    "engine.set_run_observer(None)",
    "from repro.collectives.autotune import FixedStepClock",
    "def _recovery_events(self):\n    return 0",
    "from repro.collectives.autotune import OnlineSelector",
    "from repro.collectives import simulate_modeled_auto",
    "from repro.collectives.autotune import EVENT_KINDS",
    "class AutoSimulation:\n    pass",
    "def f(level_profilers=None):\n    pass",
    "WorldVCycle(h, m, level_profilers=[])",
    "pattern.send_map(0)",
    "CommPattern.from_edge_arrays(4, srcs, dests, items)",
    "from repro.pattern.builders import _pattern_from_triples",
    "from repro.collectives import PlanCacheWarning",
    "directory = plan_cache.cache_dir()",
    "def _disk_store(kind, key, payload):\n    pass",
    "CACHE_FORMAT_VERSION = 11",
    "from repro.collectives import DecisionTrace",
    "trace = autotune.DecisionTrace([])",
    "TRACE_SCHEMA_VERSION = 4",
    "import repro.simmpi.faults",
    "from repro.simmpi import FaultPlan, FaultSpec",
    "ExchangeEngine(8, runtime='procs', on_failure='fallback')",
    "ProcsPool(2, max_retries=0, retry_backoff=0.0, fault_plan=None)",
    "if engine.degraded:\n    pass",
    "engine._pool.quarantine()",
    "timeout = os.environ.get('REPRO_WORKER_TIMEOUT')",
    "ON_FAILURE_ENV = 'REPRO_ON_FAILURE'",
    "from repro.collectives.exchange import _STEP_BITS, _all_held",
    "def _searched(tables, recv_step, send_steps):\n    pass",
    "stream = exchange._receipt_stream(tables, recv_step, 4, 9)",
    "_STEP_BITS = 3",
    "from repro.collectives.autotune import seed_event, seed_trace",
    "choice = profile.best_variant()",
    """
    def later():
        from repro.simmpi.world import helper
    """,
])
def test_the_guard_sees_each_kind_of_use(source):
    assert _violations(textwrap.dedent(source))


@pytest.mark.parametrize("source", [
    "from repro.simmpi.engine import ExchangeEngine",
    "from repro.simmpi import ExchangeEngine, TrafficProfiler",
    "from repro.collectives.api import neighbor_alltoallv_init_world",
    "from repro.collectives.persistent import WorldNeighborCollective",
    "from repro.simmpi.procs import ProcsPool",
    "from repro.collectives.plan import PhaseTable, PlannedMessage, SlotTable",
    "from repro.collectives.dedup import unique_keys_segmented",
    "np.take(work, rows, axis=0)",
    "from repro.collectives.autotune import seed_event",
    "WorldVCycle(h, m, engine=[ExchangeEngine(8)] * 3)",
    "def f(profilers=None):\n    pass",
    "CommPattern.from_edge_lists(4, srcs, dests, item_arrays)",
    "prolongation.transpose()",
    "from repro.collectives import clear_plan_cache, plan_cache_stats",
    "from repro.collectives.autotune import DecisionEvent",
    "payload = event.to_json()",
    "ExchangeEngine(8, runtime='procs', n_workers=2)",
    "process.join(timeout=10.0)",
    "actions = [event.action for event in engine.events]",
    "from repro.simmpi.procs import MAX_RETRIES, WORKER_TIMEOUT",
])
def test_the_world_path_stays_allowed(source):
    assert not _violations(source)



#: The keyword-only parameters of the engine and the solve path's
#: constructors.  The engine takes the runtime, the worker count and the
#: profiler, and no failure-policy option.  It carries them to the solve
#: path, so none of the others takes ``profiler=`` or ``level_profilers=``,
#: and the cycle and the solver take no ``n_workers=`` either.  The pattern carries the
#: element type, so neither collective constructor takes ``dtype=`` or
#: ``item_size=``.  The product's kernel follows from the operator's rows,
#: so neither the SpMV nor the smoother takes a kernel or layout knob.  The
#: solvers take a hierarchy, not the set-up's options: a caller who tunes
#: it calls ``build_hierarchy`` and passes the result as ``hierarchy=``.
CONSTRUCTOR_KEYWORDS = {
    ExchangeEngine: {"profiler", "runtime", "n_workers"},
    WorldSpMV: {"variant", "strategy", "engine"},
    DistributedJacobi: {"omega"},
    WorldVCycle: {"variant", "strategy", "pre_sweeps", "post_sweeps",
                  "omega", "engine", "runtime", "model"},
    WorldAMGSolver: {"pre_sweeps", "post_sweeps", "omega", "variant",
                     "strategy", "hierarchy", "engine", "runtime", "model"},
    BoomerAMGSolver: {"pre_sweeps", "post_sweeps", "omega", "hierarchy"},
    WorldNeighborCollective: {"engine", "runtime", "n_workers",
                              "vector_length"},
    neighbor_alltoallv_init_world: {"variant", "strategy", "engine",
                                    "runtime", "n_workers", "vector_length"},
}


@pytest.mark.parametrize("constructor", CONSTRUCTOR_KEYWORDS,
                         ids=lambda constructor: constructor.__name__)
def test_the_solve_path_constructors_keep_their_keyword_sets(constructor):
    keywords = {parameter.name for parameter
                in inspect.signature(constructor).parameters.values()
                if parameter.kind is parameter.KEYWORD_ONLY}
    assert keywords == CONSTRUCTOR_KEYWORDS[constructor]


#: The options (keyword-only parameters and parameters with a default) of
#: the figure drivers, the measured helpers, the element-type path and the
#: solve result.  Each figure driver has one code path: it plots modeled
#: times and planned counts on the config's sweeps, and the measured helpers
#: execute what it models, over every variant with a fixed number of timed
#: rounds.  Only the pattern constructors and builders set an exchange's
#: element type, as ``dtype`` x ``item_size``; ``item_bytes`` is derived from
#: them, and the ParCSR / hierarchy patterns are float64 scalar halos.  A
#: solve's result carries its numbers only: why each level runs its variant
#: is on the solver's schedule, so ``SolveResult`` has no decision field.
OPTIONS = {
    run_graph_creation: set(),
    run_crossover: {"auto"},
    run_per_level: set(),
    run_strong_scaling: set(),
    run_weak_scaling: set(),
    run_selection_ablation: set(),
    run_balance_ablation: set(),
    measured_level_times: set(),
    measured_cycle_times: set(),
    executed_statistics: set(),
    executed_cycle_statistics: set(),
    CommPattern: {"dtype", "item_size"},
    CommPattern.from_edge_lists: {"dtype", "item_size"},
    CommPattern.from_csr: {"dtype", "item_size"},
    pattern_from_edges: {"dtype", "item_size"},
    random_pattern: {"avg_neighbors", "avg_items_per_message",
                     "duplicate_fraction", "items_per_rank", "seed", "dtype",
                     "item_size"},
    halo_exchange_pattern: {"width", "points_per_cell", "dtype", "item_size",
                            "periodic"},
    pattern_from_parcsr: set(),
    level_patterns: set(),
    level_transfer_patterns: set(),
    hierarchy_comm_profiles: {"model", "strategy"},
    coarse_gather_pattern: set(),
    SolveResult: {"residual_norms", "iterations", "converged"},
}


@pytest.mark.parametrize("function", OPTIONS,
                         ids=lambda function: function.__qualname__)
def test_the_drivers_and_the_element_type_path_keep_their_options(function):
    options = {parameter.name for parameter
               in inspect.signature(function).parameters.values()
               if parameter.kind is parameter.KEYWORD_ONLY
               or parameter.default is not parameter.empty}
    assert options == OPTIONS[function]
