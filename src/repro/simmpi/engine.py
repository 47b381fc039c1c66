"""The world-stepped exchange engine: batched columnar delivery for all ranks.

The :class:`ExchangeEngine` executes a neighborhood collective as a *world
program* (:class:`~repro.collectives.exchange.WorldExchange`): every rank's
values live in one world work array, and a whole phase for the whole
communicator is one kernel call — never O(messages) Python work.  I/O is
flat-native: ``run`` takes one rank-major array of owned values and returns
one array of received values — or, for an exchange registered *on the
caller's vector*
(``register(world, vector_length=n)``, item ids being positions in it), takes
the vector itself and returns the round buffer ``[x | …]`` read-only, with
:meth:`ExchangeEngine.halo_rows` locating the received values in it: what
:class:`~repro.sparse.spmv.WorldSpMV` multiplies by, no pack, no unpack.

Both engine runtimes execute the layout the compiler numbered: rows
``[owned (or the whole vector) | receive blocks a later step reads |
terminal blocks]``, so loading is ``work[:n] = values``, a send step only
accounts traffic (and is skipped when no profiler is attached), and a
receive step is one ``work[:a].take(src, 0, work[a:b], "clip")`` — rows
earlier steps wrote, taken into the slice the step owns, never overlapping
it, called on the array itself.  :meth:`ExchangeEngine.register` only
validates that program, remaps its head and fixes a bound handle's input
test: a vector of exactly the registered shape and dtype is copied into the
head as is; anything else goes through the full input check.  Every work
row holds its ``(origin, item)`` key's one per-iteration value; repeat
deliveries leave the data path, not the accounting.

A fresh output is one more ``gather(work, result, out)`` into a new array.
On an unbound handle a *terminal* receive step — one whose rows no later
step reads — owns no rows at all: ``result`` points its output rows straight
at the step's sources, so that one pass both makes the last hop's deliveries
and copies out what earlier steps delivered.  A bound handle keeps every
block, because its round buffer *is* the output.

* ``runtime="engine"`` (default) — the parent runs the steps itself, one
  ``take`` each.
* ``runtime="procs"`` — a persistent, supervised worker pool
  (:mod:`repro.simmpi.procs`): the work array and the receive steps' ``src``
  rows move into ``multiprocessing.shared_memory`` and every forked worker
  gathers its even share of each step's ``[a, b)``, a barrier between
  steps.  A retried round, and a round the parent finishes itself after the
  pool failed, are the same steps on the same rows.

Profiler data-path totals are identical on both.  These two are the only
runtimes: ``REPRO_RUNTIME=procs`` in the environment flips the default for
every engine in the process — how CI runs the whole tier-1 suite through the
worker pool — and any other value raises.

Engines own external resources only under ``runtime="procs"`` (workers and
shared segments); :meth:`ExchangeEngine.close` — or using the engine as a
context manager — releases them deterministically on any runtime, with a
``weakref.finalize`` backstop for engines that are simply dropped.

The engine deliberately knows nothing about plans or patterns: it executes
whatever registered program it is handed, which keeps :mod:`repro.simmpi`
free of dependencies on :mod:`repro.collectives` (compilation lives there, in
:func:`~repro.collectives.exchange.compile_world_exchange`; the kernel import
happens lazily, in the constructor, for the same reason).
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simmpi.profiler import TrafficProfiler
from repro.utils.errors import CommunicationError, ValidationError, WorkerError
from repro.utils.validation import check_value_preserving_cast

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.collectives.exchange import WorldExchange, WorldPhaseProgram
    from repro.simmpi.faults import FaultPlan
    from repro.simmpi.procs import ProcsPool, RecoveryEvent, SharedProgram

#: Per-iteration input: one flat concatenation of all ranks' owned values in
#: rank order (native, zero-copy), or one dense array per rank.
WorldValues = Union[Sequence[np.ndarray], np.ndarray]

#: Environment variable that flips the default runtime for every engine in
#: the process, including those a collective, SpMV or V-cycle creates itself.
RUNTIME_ENV = "REPRO_RUNTIME"

#: Environment variable that flips the default worker-failure policy for
#: every ``runtime="procs"`` engine in the process — the way to set it for
#: engines a collective, SpMV or V-cycle creates itself.
ON_FAILURE_ENV = "REPRO_ON_FAILURE"

#: Every runtime an engine executes, and so every value ``runtime=`` and
#: ``REPRO_RUNTIME`` may name.
ENGINE_RUNTIMES = ("engine", "procs")

#: What a ``runtime="procs"`` engine does when a worker dies, hangs, or
#: corrupts its pipe: ``"retry"`` respawns the pool and retries (then
#: raises), ``"fallback"`` retries and — with retries exhausted — finishes
#: the round on the single-process staged path and stays serial,
#: ``"raise"`` fails fast with no retry.
ON_FAILURE_POLICIES = ("retry", "fallback", "raise")


def default_runtime() -> str:
    """The runtime a ``runtime=None`` caller gets: ``REPRO_RUNTIME`` when
    set, ``"engine"`` otherwise.  A value that names no engine runtime
    raises :class:`ValidationError`: a typo must not silently run the
    default."""
    value = os.environ.get(RUNTIME_ENV, "").strip().lower()
    if value and value not in ENGINE_RUNTIMES:
        raise ValidationError(
            f"{RUNTIME_ENV} must be one of {ENGINE_RUNTIMES}, got {value!r}")
    return value or "engine"


def default_on_failure() -> str:
    """The policy an ``on_failure=None`` caller gets: ``REPRO_ON_FAILURE``
    when set, ``"retry"`` otherwise.  A value that names no policy raises
    :class:`ValidationError`, as an unknown ``REPRO_RUNTIME`` does."""
    value = os.environ.get(ON_FAILURE_ENV, "").strip().lower()
    if value and value not in ON_FAILURE_POLICIES:
        raise ValidationError(
            f"{ON_FAILURE_ENV} must be one of {ON_FAILURE_POLICIES}, "
            f"got {value!r}")
    return value or "retry"


@dataclass
class _RegisteredProgram:
    """Engine-side state of one registered world exchange: ``work`` rows
    ``[head | kept blocks …]``, per schedule step ``(program, src, a, b)``
    (a receive fills rows ``[a, b)`` from the earlier rows ``src`` — none,
    ``a == b``, for a terminal step folded into the result; a send,
    ``src is None``, only accounts), and ``result`` the ``work`` row of every
    output entry.  Bound to a vector of ``vector_length`` entries, the head
    is that vector and ``work`` is what a round returns.  ``shared`` is set
    only while a ``runtime="procs"`` pool holds ``work`` and the ``src`` rows
    in its two shared-memory segments (they are then views of those).

    A bound handle also fixes its fast path at registration: ``head`` is the
    vector's rows of ``work`` as one 1-D view — an input of exactly its
    shape and dtype is copied in with no further check — and ``buffer`` the
    read-only flat view of ``work`` a round returns (``None`` while ``work``
    is a shared segment, which hands out a copy instead)."""

    world: "WorldExchange"
    vector_length: Optional[int]
    work: np.ndarray
    steps: Sequence[Tuple["WorldPhaseProgram", np.ndarray | None, int, int]]
    result: np.ndarray
    shared: Optional["SharedProgram"] = None
    head: Optional[np.ndarray] = None
    buffer: Optional[np.ndarray] = None


def _check_range(name: str, index: np.ndarray, bound: int) -> None:
    """Reject an index outside ``[0, bound)`` once, so no kernel has to
    (``take`` clips, fancy indexing wraps negatives — either would deliver
    garbage)."""
    if index.size and not (0 <= index.min() and index.max() < bound):
        raise CommunicationError(f"corrupt world exchange: {name} holds an "
                                 f"index outside [0, {bound})")


def _checked_steps(world: "WorldExchange", fold: bool):
    """``world``'s schedule as ``(program, src, a, b)``, validated.

    The receive blocks must tile the rows: those below ``n_unbound_rows``
    one after another from the owned rows up, in schedule order, the
    terminal ones likewise from ``n_unbound_rows`` to ``n_world_rows``.  A
    step may read only what the steps before it kept — every ``src`` below
    the end of the last kept block so far, which no terminal block is —
    so whatever order its rows sit in, nothing is read before it is
    written.  With ``fold`` a terminal step keeps its slot with the empty
    range at that row.  Returns ``(steps, terminal srcs in row order)``.
    """
    kept_end, n_kept = world.owned_items_all.size, world.n_unbound_rows
    tail_end, steps, tail = n_kept, [], []
    for kind, phase in world.steps:
        program = world.programs[phase]
        if kind == "send":
            steps.append((program, None, 0, 0))
            continue
        src, a, b = program.src, program.a, program.b
        kept = a < n_kept
        start = kept_end if kept else tail_end
        if (a, b) != (start, start + src.size) or (kept and b > n_kept):
            raise CommunicationError(
                f"corrupt world exchange: {phase} writes rows [{a}, {b}), but "
                f"its {src.size} rows must start at row {start}: the blocks "
                "must tile the rows")
        _check_range(f"{phase} src", src, kept_end)
        if kept:
            kept_end = b
        else:
            tail_end = b
            tail.append(src)
        steps.append((program, src[:0], kept_end, kept_end)
                     if fold and not kept else (program, src, a, b))
    if (kept_end, tail_end) != (n_kept, world.n_world_rows):
        raise CommunicationError(
            f"corrupt world exchange: the blocks end at rows {kept_end} and "
            f"{tail_end}, not {n_kept} and {world.n_world_rows}")
    _check_range("result_rows", world.result_rows, world.n_world_rows)
    return steps, tail


def _as_rows(values, n_rows: int, spec, what: str) -> np.ndarray:
    """``values`` as ``(n_rows, item_size)`` rows of the exchange's dtype."""
    array = np.asarray(values)
    check_value_preserving_cast(array.dtype, spec.dtype)
    expected = (n_rows,) if spec.item_size == 1 else (n_rows, spec.item_size)
    if array.shape != expected and array.shape != (n_rows, spec.item_size):
        raise ValidationError(
            f"{what} must have shape {expected}, got {array.shape}")
    return array.astype(spec.dtype, copy=False).reshape(n_rows, spec.item_size)


class ExchangeEngine:
    """Executes registered world exchanges, one phase at a time for all ranks.

    One engine serves one world (communicator size); any number of world
    exchanges — e.g. one per AMG level — can be registered against it and
    executed repeatedly.  When a :class:`TrafficProfiler` is attached, every
    phase of every iteration is accounted through
    :meth:`TrafficProfiler.record_batch` with exactly the messages of the
    plan the program was compiled from.

    ``runtime`` selects who runs the staged steps (``"engine"`` the parent,
    ``"procs"`` a shared-memory worker pool; ``None`` resolves through
    ``REPRO_RUNTIME``); ``n_workers`` sizes the procs pool (default: one per
    available core, capped by ``n_ranks``).

    Worker failures on the procs backend are supervised: ``on_failure``
    picks the policy (``"retry"`` — respawn the pool and retry, then raise;
    ``"fallback"`` — retry, then re-run the round on the single-process
    path and stay serial; ``"raise"`` — fail fast; ``None`` resolves
    through ``REPRO_ON_FAILURE``, default ``"retry"``), ``timeout`` bounds
    how long the parent waits for worker acknowledgements
    (``REPRO_WORKER_TIMEOUT``, default 120 s), ``max_retries`` /
    ``retry_backoff`` shape the retry schedule, and ``fault_plan`` injects
    deterministic chaos (:mod:`repro.simmpi.faults`, ``REPRO_FAULTS``).
    Every supervision decision is recorded in :attr:`events`.

    ``clock`` supplies the timestamps of the per-round timing hook
    (:meth:`set_run_observer`, used by the online autotuner); the default is
    ``time.perf_counter``, and injecting a deterministic clock makes timed
    runs bit-reproducible.  The clock is only consulted while an observer
    is attached — the plain data path never reads it.
    """

    def __init__(self, n_ranks: int, *, profiler: TrafficProfiler | None = None,
                 runtime: str | None = None, n_workers: int | None = None,
                 on_failure: str | None = None,
                 timeout: float | None = None, max_retries: int = 2,
                 retry_backoff: float = 0.05,
                 fault_plan: "FaultPlan | None" = None,
                 clock=None):
        if n_ranks <= 0:
            raise CommunicationError("an exchange engine needs at least one rank")
        if n_workers is not None and int(n_workers) < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        if runtime is None:
            runtime = default_runtime()
        if runtime not in ENGINE_RUNTIMES:
            raise ValidationError(
                f"engine runtime must be one of {ENGINE_RUNTIMES}, "
                f"got {runtime!r}"
            )
        if on_failure is None:
            on_failure = default_on_failure()
        if on_failure not in ON_FAILURE_POLICIES:
            raise ValidationError(
                f"on_failure must be one of {ON_FAILURE_POLICIES}, "
                f"got {on_failure!r}"
            )
        self.n_ranks = int(n_ranks)
        self.profiler = profiler
        self.runtime = runtime
        self.on_failure = on_failure
        self._programs: List[_RegisteredProgram] = []
        self._closed = False
        self._pool: Optional["ProcsPool"] = None
        self._pool_failed = False
        self._events: List["RecoveryEvent"] = []
        self._finalizer = None
        self._clock = clock if clock is not None else time.perf_counter
        self._run_observer = None
        from repro.collectives.kernels import _numpy_gather

        self._gather = _numpy_gather
        if runtime == "procs":
            from repro.simmpi.procs import ProcsPool, default_worker_count

            self._pool = ProcsPool(
                n_workers=int(n_workers) if n_workers is not None
                else default_worker_count(self.n_ranks),
                timeout=timeout,
                # "raise" means fail fast: the pool gets no retry budget.
                max_retries=0 if on_failure == "raise" else max_retries,
                retry_backoff=retry_backoff,
                fault_plan=fault_plan,
                events=self._events)
            # The backstop must not keep the engine alive, so it closes the
            # pool object directly (close() is idempotent).
            self._finalizer = weakref.finalize(self, ProcsPool.close,
                                               self._pool)

    # -- lifecycle ------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Workers executing each round (1 on the single-process runtime)."""
        return self._pool.n_workers if self._pool is not None else 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the engine's resources."""
        return self._closed

    @property
    def events(self) -> List["RecoveryEvent"]:
        """The supervision decision trace: every retry, give-up, and fallback
        recorded as a structured :class:`~repro.simmpi.procs.RecoveryEvent`,
        in the order they were decided."""
        return list(self._events)

    @property
    def degraded(self) -> bool:
        """Whether the procs pool failed permanently and the engine now runs
        every round on the single-process staged path."""
        return self._pool_failed

    def close(self) -> None:
        """Release workers and shared-memory segments deterministically.

        Idempotent; a no-op beyond flagging on the single-process runtime
        (which owns no external resources).  A closed engine rejects further
        ``register`` and ``run`` calls.
        """
        if self._closed:
            return
        self._closed = True
        self._programs.clear()      # drop the views of the pool's segments
        if self._finalizer is not None:
            self._finalizer()       # ProcsPool.close: the backstop, spent here
        self._run_observer = None

    def __enter__(self) -> "ExchangeEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise CommunicationError("exchange engine is closed")

    # -- registration ---------------------------------------------------------

    def register(self, world: "WorldExchange", *,
                 vector_length: int | None = None) -> int:
        """Register a compiled world exchange; returns its engine handle.

        The persistent collective's init, with the optimisation already done
        by the compiler: registration validates the program it will
        run (blocks that tile the rows, every ``src`` row written before its
        step, every result row in range — a corrupt program raises
        :class:`CommunicationError` here, never a wrong answer in ``run``),
        remaps the head, allocates the persistent work array and, on
        ``runtime="procs"``, moves that array and the steps' source rows
        into the two segments the workers attach to.  An unbound handle
        keeps the rows ``[0, world.n_unbound_rows)``: each terminal row of
        the result reads its source instead.

        ``vector_length=n`` binds the handle to the caller's ``(n,)`` vector,
        item ids being positions in it (as for every ``pattern_from_parcsr``
        pattern; scalar items only): owned row ``i`` becomes entry
        ``owned_items_all[i]`` of the vector, every later row moves up by
        ``n - n_owned`` and every block is kept; see :meth:`run` and
        :meth:`halo_rows`.
        """
        self._check_open()
        if world.n_ranks > self.n_ranks:
            raise CommunicationError(
                "world exchange spans more ranks than the engine provides"
            )
        ids = world.owned_items_all
        bound = vector_length is not None
        if bound and (
                world.spec.item_size != 1 or vector_length < 0 or (
                    ids.size and not 0 <= ids.min() <= ids.max() < vector_length)):
            raise ValidationError(
                f"binding an exchange to a vector of length {vector_length} "
                f"needs item_size == 1 (got {world.spec.item_size}) and every "
                f"owned item id in [0, {vector_length})")
        steps, tail = _checked_steps(world, fold=not bound)
        if bound:
            shift = vector_length - ids.size
            lut = np.arange(shift, world.n_world_rows + shift)
            lut[:ids.size] = ids
            steps = [(program, None, 0, 0) if src is None
                     else (program, np.take(lut, src), a + shift, b + shift)
                     for program, src, a, b in steps]
            n_rows = world.n_world_rows + shift
        else:
            lut = np.concatenate([np.arange(world.n_unbound_rows), *tail])
            n_rows = world.n_unbound_rows
        work = np.zeros((n_rows, world.spec.item_size), dtype=world.spec.dtype)
        state = _RegisteredProgram(world, vector_length, work, steps,
                                   np.take(lut, world.result_rows))
        if self._pool is not None and not self._pool_failed:
            try:
                shared = self._pool.register(
                    state.work, [step[1:] for step in state.steps])
            except WorkerError as exc:
                if self.on_failure != "fallback":
                    raise
                self._fall_back("register", exc)    # stays on its own arrays
            else:
                state.shared, state.work = shared, shared.work.array
                state.steps = [(program, src, a, b) for (program, _, a, b), src
                               in zip(state.steps, shared.step_sources())]
        if bound:
            state.head = state.work[:vector_length, 0]
            if state.shared is None:
                state.buffer = state.work.reshape(-1)
                state.buffer.flags.writeable = False
        self._programs.append(state)
        return len(self._programs) - 1

    def _program(self, handle: int) -> _RegisteredProgram:
        if handle < 0 or handle >= len(self._programs):
            raise CommunicationError(f"unknown exchange handle {handle}")
        return self._programs[handle]

    def _bound(self, handle: int) -> _RegisteredProgram:
        state = self._program(handle)
        if state.vector_length is None:
            raise ValidationError(
                f"exchange handle {handle} is not bound to a vector")
        return state

    def halo_rows(self, handle: int) -> np.ndarray:
        """Row of a vector-bound handle's round buffer holding each entry of
        ``world.result_items_all``, in that order (fixed at registration)."""
        return self._bound(handle).result

    def buffer_length(self, handle: int) -> int:
        """Entries of the round buffer a vector-bound handle's ``run`` returns."""
        return self._bound(handle).work.shape[0]

    # -- per-iteration execution ----------------------------------------------

    def set_run_observer(self, observer) -> None:
        """Attach (or with ``None`` detach) the per-round timing hook.

        While attached, every :meth:`run` is bracketed by two readings of
        the engine's clock and ``observer(handle, seconds)`` is called with
        the elapsed wall time of the round — retries, fallbacks, and serial
        completion included, which is exactly what an online autotuner must
        see.  One observer per engine; setting a new one replaces the old.
        """
        self._run_observer = observer

    def run(self, handle: int, values: WorldValues) -> np.ndarray:
        """Execute one full exchange round for every rank (start + wait).

        ``values`` holds every rank's owned item values: one flat array in
        ``world.owned_items_all`` order (native), or a sequence of per-rank
        dense arrays.  Returns a fresh flat array of every rank's received
        values in ``world.result_items_all`` order (delimited per rank by
        ``world.result_offsets``): the value its source owns of every item
        each rank receives.  It is made by one
        gather from the work array, which also performs the round's terminal
        deliveries: those rows are read from their sources, never stored.

        On a handle registered with ``vector_length=n``, ``values`` is the
        ``(n,)`` vector itself (anything else raises :class:`ValidationError`)
        and the return is the engine's round buffer, read-only and valid until
        the handle's next round: entries ``[:n]`` are the vector, entry
        ``halo_rows(handle)[k]`` the value of ``world.result_items_all[k]``.
        """
        observer = self._run_observer
        if observer is None:
            return self._execute(handle, values)
        start = self._clock()
        result = self._execute(handle, values)
        observer(handle, self._clock() - start)
        return result

    def _execute(self, handle: int, values: WorldValues) -> np.ndarray:
        """One exchange round, untimed (the body :meth:`run` wraps): load the
        head, run the steps — on the pool, else here — select the result."""
        self._check_open()
        state = self._program(handle)
        work, head = state.work, state.head
        if head is not None and isinstance(values, np.ndarray) \
                and values.shape == head.shape and values.dtype == head.dtype:
            head[...] = values          # a bound handle's own vector, as is
        else:
            loaded = self._load_values(state, values)
            work[:loaded.shape[0]] = loaded
        delivered = False
        if state.shared is not None and not self._pool_failed:
            try:
                self._pool.run(handle)
                delivered = True
            except WorkerError as exc:
                if self.on_failure != "fallback":
                    raise
                # No worker is left to write a row: the half-written round
                # re-runs below, on the same rows.
                self._fall_back("run", exc)
        self._run_staged(state, delivered)
        if state.buffer is not None:
            return state.buffer         # the round buffer itself, read-only
        if state.vector_length is not None:
            # The rows are a shared segment: a private read-only copy, so no
            # shared-memory view escapes to the caller.
            rows = work.copy().reshape(-1)
            rows.flags.writeable = False
            return rows
        # One pass: the terminal deliveries, and the rows earlier steps made.
        rows = np.empty((state.result.size, work.shape[1]), dtype=work.dtype)
        self._gather(work, state.result, rows)
        return rows.reshape(-1) if state.world.spec.item_size == 1 else rows

    # -- helpers --------------------------------------------------------------

    def _run_staged(self, state: _RegisteredProgram, delivered: bool) -> None:
        """One round's steps in the parent, in schedule order: every send
        step accounted (one bulk record each) when a profiler is attached,
        every receive step gathered unless the pool already ``delivered`` it
        — one ``take`` into the slice it owns, called on the array directly
        (``np.take`` would add two Python frames per step)."""
        work, account = state.work, self.profiler is not None
        for program, src, a, b in state.steps:
            if src is None:
                if account:
                    self._account(program)
            elif b > a and not delivered:
                # Sources are rows of earlier steps (< a): no overlap.  Indices
                # were validated at register, so "clip" never clips.
                work[:a].take(src, 0, work[a:b], "clip")

    def _fall_back(self, command: str, exc: WorkerError) -> None:
        """Degrade permanently to the single-process path after pool failure.

        Quarantines the pool (stopping any wedged worker that might later
        wake and scribble on the shared work arrays — the parent-side
        segments stay alive until ``close``) and records the decision in the
        event trace.  Every subsequent round of every registered program
        runs here, on the rows it already has.
        """
        from repro.simmpi.procs import RecoveryEvent

        self._pool.quarantine()
        self._pool_failed = True
        self._events.append(RecoveryEvent(
            action="fallback", command=command,
            attempt=self._pool.max_retries,
            chosen=(f"retries exhausted; quarantined the "
                    f"{self._pool.n_workers}-worker pool and completed the "
                    f"{command} on the single-process staged path "
                    f"(engine stays serial from here on)"),
            crashes=exc.crashes))

    def _load_values(self, state: _RegisteredProgram,
                     values: WorldValues) -> np.ndarray:
        """Validate the per-iteration input; returns the head rows to load."""
        world, n = state.world, state.vector_length
        spec = world.spec
        if n is not None:
            if not isinstance(values, np.ndarray) or values.shape != (n,):
                raise ValidationError(
                    f"this exchange is bound to a vector: values must be one array "
                    f"of shape ({n},), got {getattr(values, 'shape', type(values))}")
            check_value_preserving_cast(values.dtype, spec.dtype)
            return values.reshape(n, 1)
        n_owned_total = int(world.owned_offsets[-1])
        if isinstance(values, np.ndarray):
            return _as_rows(values, n_owned_total, spec, "flat world input")
        if len(values) != world.n_ranks:
            raise ValidationError(
                f"expected one value array per rank ({world.n_ranks}), "
                f"got {len(values)}"
            )
        counts = np.diff(world.owned_offsets).tolist()
        tail = () if spec.item_size == 1 else (spec.item_size,)
        if counts and all(
                isinstance(array, np.ndarray) and array.dtype == spec.dtype
                and array.shape == (n_owned, *tail)
                for array, n_owned in zip(values, counts)):
            return np.concatenate(values).reshape(n_owned_total, spec.item_size)
        # Anything else: rank by rank, casting — or naming the offending rank.
        parts = [_as_rows(rank_values, n_owned, spec,
                          f"rank {rank} owns {n_owned} items of size "
                          f"{spec.item_size}; values")
                 for rank, (rank_values, n_owned) in enumerate(zip(values, counts))]
        return np.concatenate(parts) if parts \
            else np.empty((0, spec.item_size), dtype=spec.dtype)

    def _account(self, program: "WorldPhaseProgram") -> None:
        """Bulk-record the phase's messages with the attached profiler."""
        if program.msg_sources.size == 0:
            return
        self.profiler.record_batch(program.msg_sources, program.msg_dests,
                                   program.msg_nbytes, tag=program.tag)
