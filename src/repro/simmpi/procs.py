"""Shared-memory multiprocessing runtime for the world-stepped engine.

The :class:`~repro.simmpi.engine.ExchangeEngine` runs a registered world
exchange as a schedule of steps: every send phase, then one receive step
``gather(work[:a], src, work[a:b])``.  This module is the
``runtime="procs"`` backend of those steps: at registration the work array
and the receive steps' ``src`` rows (concatenated in row order) move into
two :mod:`multiprocessing.shared_memory` segments, and a persistent pool of
worker processes (forked once per engine, lazily at the first registration)
executes every step in parallel.

**Step shares.**  A receive step fills the contiguous rows ``[a, b)`` from
rows below ``a``.  Worker ``w`` of ``n`` owns the even share
``[a + lo, a + hi)`` of them (:func:`_share`: shares tile the step and differ
by at most one row) and runs ``gather(work[:a], src[lo:hi],
work[a + lo:a + hi])`` — disjoint writes, reads only of rows no step writes.
A :class:`multiprocessing.Barrier` after each receive step orders every
write of a step before any read of the next.  Send steps move nothing: they
stay accounting in the parent (and fault-injection points here).

The parent loads the head — rows no worker ever writes — before dispatching
and, after all workers report done, copies the result out (or, on an
unbound handle, runs the output gather into a fresh array), so no
shared-memory view ever escapes to the caller.  An unbound handle's receive
step is an empty range ``a == b``: every worker's share of it is empty and
only the barrier and the fault-injection point remain.  Message accounting
(the profiler) stays in the parent, exactly as on the serial path.

**Supervision.**  The parent collects acknowledgements with one
``multiprocessing.connection.wait`` over every command pipe *and* every
process sentinel, so a worker that dies mid-round (OOM kill, segfault,
``os._exit``) is diagnosed the moment its sentinel fires — not after a
per-worker poll timeout.  Failures are classified: a dead, wedged, or
wire-corrupted worker raises :class:`~repro.utils.errors.WorkerError`
carrying structured :class:`~repro.utils.errors.WorkerCrash` records
(retryable infrastructure fault); an exception *inside* a worker's program
raises plain :class:`~repro.utils.errors.CommunicationError` (deterministic
bug — retrying would only repeat it).  The ack timeout is configurable
(``timeout=`` here and on the engine, ``REPRO_WORKER_TIMEOUT`` in the
environment).

**Recovery.**  On a :class:`WorkerError` the pool tears the broken workers
down (aborting the barrier so survivors blocked in ``Barrier.wait`` exit
cleanly), respawns the pool, re-registers every retained
:class:`SharedProgram` from the parent-side segments, and re-dispatches the
failed command — up to ``max_retries`` times with exponential backoff.
Workers only ever write the rows behind the head, all fully rewritten in
schedule order, so a half-written round is safely discarded and the retried
result — or the one the engine finishes itself, on the same rows, once the
pool is quarantined — is byte-identical to the serial engine.  Every decision
lands in ``events`` as a structured :class:`RecoveryEvent` (the
decision-trace idiom).  Fault injection for all of this is deterministic:
:class:`~repro.simmpi.faults.FaultPlan` (``REPRO_FAULTS``).

Lifecycle: workers are daemonic ``fork`` children driven over per-worker
pipes; :meth:`ProcsPool.close` shuts them down and unlinks every segment
deterministically (``ExchangeEngine.close`` / context-manager exit calls it,
with a ``weakref.finalize`` backstop for engines that are simply dropped).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.faults import CORRUPT_WIRE_BYTES, FaultPlan, FaultSpec, fire
from repro.utils.arrays import concatenate_or_empty
from repro.utils.errors import (
    CommunicationError,
    ValidationError,
    WorkerCrash,
    WorkerError,
)

#: Environment variable overriding the default worker-acknowledgement timeout.
TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"

#: How long the parent waits for a worker to finish one exchange round or
#: acknowledge a command before declaring the pool wedged (default; see
#: ``REPRO_WORKER_TIMEOUT`` and the ``timeout=`` keywords).
_WORKER_TIMEOUT = 120.0

#: After the first failure is detected, how long the parent keeps draining
#: the surviving workers' pending acknowledgements (they unblock as soon as
#: the barrier is aborted) so a recovered pool never reads a stale ack.
_DRAIN_GRACE = 5.0


def default_worker_timeout() -> float:
    """The ack timeout a ``timeout=None`` caller gets: ``REPRO_WORKER_TIMEOUT``
    when set (must be a positive number of seconds), 120 s otherwise."""
    text = os.environ.get(TIMEOUT_ENV, "").strip()
    if not text:
        return _WORKER_TIMEOUT
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"{TIMEOUT_ENV} must be a number of seconds, got {text!r}"
        ) from None
    if value <= 0:
        raise ValidationError(
            f"{TIMEOUT_ENV} must be positive, got {value}"
        )
    return value


def default_worker_count(n_ranks: int) -> int:
    """Worker-pool size when the caller does not choose: one per core, capped
    by the rank count."""
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    return max(1, min(int(n_ranks), cores))


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervision decision, recorded in the pool/engine event trace.

    ``action`` names what was decided (``"retry"`` — respawn and re-dispatch;
    ``"give-up"`` — retries exhausted, error propagated; ``"fallback"`` —
    engine finished the round on the single-process path); ``command`` is
    what failed (``"run"`` or ``"register"``), ``attempt`` the 0-based
    delivery attempt that failed, ``crashes`` the structured per-worker
    diagnoses, and ``chosen`` the human-readable decision line.
    """

    action: str
    command: str
    attempt: int
    chosen: str
    crashes: Tuple[WorkerCrash, ...] = ()

    def describe(self) -> str:
        """One trace line: what failed, what was chosen."""
        failed = "; ".join(crash.describe() for crash in self.crashes) \
            or "no worker diagnosis"
        return (f"[{self.action}] {self.command} attempt {self.attempt} "
                f"failed ({failed}) -> {self.chosen}")


class SharedBlock:
    """One shared-memory segment viewed as a numpy array.

    The parent creates blocks (``SharedBlock(shape, dtype)``); workers attach
    by name (:meth:`attach`).  ``close`` drops the numpy view before closing
    the mapping (numpy holds a buffer export, so the view must die first) and
    only the parent ever unlinks.
    """

    def __init__(self, shape: Tuple[int, ...], dtype: np.dtype, *,
                 _shm: Optional[shared_memory.SharedMemory] = None):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if _shm is None:
            # A zero-row exchange still needs a valid (1-byte) segment.
            self.shm = shared_memory.SharedMemory(create=True,
                                                  size=max(1, nbytes))
            self.owner = True
        else:
            self.shm = _shm
            self.owner = False
        self.shape = tuple(int(s) for s in shape)
        self.dtype = dtype
        self.array: np.ndarray = np.ndarray(self.shape, dtype=dtype,
                                            buffer=self.shm.buf)

    @property
    def name(self) -> str:
        """Segment name workers attach by."""
        return self.shm.name

    @classmethod
    def attach(cls, name: str, shape: Tuple[int, ...],
               dtype: np.dtype) -> "SharedBlock":  # pragma: no cover - forked child
        # Forked workers share the parent's resource tracker, whose cache is
        # a per-name set — the attach-side registration is an idempotent
        # no-op there, and the parent's unlink clears the one entry.  (Do NOT
        # "fix" bpo-39959 by unregistering here: that would remove the
        # parent's entry and make the parent's unlink trip the tracker.)
        return cls(shape, dtype, _shm=shared_memory.SharedMemory(name=name))

    def close(self) -> None:
        """Release this process's mapping (and the segment, if owner)."""
        if self.array is None:
            return
        self.array = None
        self.shm.close()
        if self.owner:
            self.shm.unlink()


def _share(n_rows: int, worker_id: int, n_workers: int) -> Tuple[int, int]:
    """Worker ``worker_id``'s share ``[lo, hi)`` of a step's ``n_rows`` rows:
    the shares tile the step in worker order and differ by at most one row."""
    return (n_rows * worker_id // n_workers,
            n_rows * (worker_id + 1) // n_workers)


@dataclass
class SharedProgram:
    """Parent-side handle on one registered program's two shared segments.

    ``work`` holds the program's rows — the engine loads the head into its view
    before a round and copies results out after, so callers only ever see
    private copies.  ``sources`` holds every receive step's ``src`` rows, one
    block after another in row order: the blocks tile the rows behind the
    head, so ``sources[r - head]`` is the earlier row that row ``r`` copies.
    ``steps`` lists the schedule as ``(kind, a, b)``: a ``"recv"`` fills
    rows ``[a, b)``, a ``"send"`` moves nothing.  The segments outlive any
    one worker generation: after a crash the respawned pool re-attaches to
    exactly these blocks (:meth:`ProcsPool._respawn`).
    """

    work: SharedBlock
    sources: SharedBlock
    steps: Tuple[Tuple[str, int, int], ...]

    def step_sources(self) -> List[Optional[np.ndarray]]:
        """Per schedule step, the parent's view of its ``src`` rows (``None``
        for a send)."""
        head = self.work.shape[0] - self.sources.shape[0]
        return [self.sources.array[a - head:b - head] if kind == "recv" else None
                for kind, a, b in self.steps]

    def close(self) -> None:
        self.sources.close()
        self.work.close()

    def descriptor(self, handle: int) -> dict:
        """Picklable registration message a worker rebuilds its views from."""
        return {"handle": handle, "steps": self.steps,
                "blocks": [(block.name, block.shape, block.dtype.str)
                           for block in (self.work, self.sources)]}


def share_program(work: np.ndarray, steps: Sequence[tuple]) -> SharedProgram:
    """Move a program's two arrays into shared memory.

    ``steps`` is the schedule as ``(src, a, b)`` — ``src is None`` for a
    send.  The ``src`` rows are concatenated in row order.  A
    segment that cannot be created (``EMFILE``, a full ``/dev/shm``) takes
    the one created before it down with it.
    """
    receives = sorted((step for step in steps if step[0] is not None),
                      key=lambda step: step[1])
    sources = concatenate_or_empty([src for src, _, _ in receives])
    blocks: List[SharedBlock] = []
    try:
        for array in (work, sources):
            blocks.append(SharedBlock(array.shape, array.dtype))
            blocks[-1].array[...] = array
    except OSError:
        for block in blocks:
            block.close()
        raise
    return SharedProgram(*blocks, steps=tuple(
        ("send" if src is None else "recv", int(a), int(b))
        for src, a, b in steps))


# -- the worker side ---------------------------------------------------------------


def _attach_program(descriptor: dict) -> tuple:  # pragma: no cover - forked child
    """A worker's ``(work, sources, steps)`` of a registered program, the two
    blocks attached by name from its descriptor."""
    work, sources = (SharedBlock.attach(name, tuple(shape), np.dtype(dtype))
                     for name, shape, dtype in descriptor["blocks"])
    return work, sources, descriptor["steps"]


def _run_round(program: tuple, worker_id: int, n_workers: int, barrier,
               conn, fault: Optional[FaultSpec]) -> None:  # pragma: no cover
    """Execute this worker's share of one exchange round's steps.

    ``fault`` (chaos testing only) fires at the first step whose kind matches
    the spec's phase — *inside* the round, peers already committed to their
    barrier waits, exactly where a real OOM kill or wedge lands.
    """
    from repro.collectives.kernels import _numpy_gather as gather

    work, sources = program[0].array, program[1].array
    head = work.shape[0] - sources.shape[0]
    for kind, a, b in program[2]:
        if fault is not None and fault.phase == kind:
            fire(fault, conn)
            fault = None  # a "hang" fault eventually returns; fire once
        if kind == "send":
            continue
        lo, hi = _share(b - a, worker_id, n_workers)
        if hi > lo:
            gather(work[:a], sources[a - head + lo:a - head + hi],
                   work[a + lo:a + hi])
        barrier.wait()


def _safe_send(conn: Connection, payload) -> bool:  # pragma: no cover - forked child
    """Send an acknowledgement, tolerating a parent that is already gone.

    A worker whose parent died (or closed the pipe) must exit its loop
    instead of raising into a retry spin — the orphan-hygiene guarantee.
    """
    try:
        conn.send(payload)
        return True
    except (BrokenPipeError, OSError):
        return False


def _worker_main(worker_id: int, n_workers: int, conn: Connection, barrier,
                 fault_plan: Optional[FaultPlan]) -> None:  # pragma: no cover - forked child
    """Worker loop: register programs, run rounds, exit on close.

    Every command carries the delivery coordinate (round/handle, attempt)
    the fault plan is consulted with; a healthy run never pays more than a
    ``None`` check.
    """
    import threading

    programs: Dict[int, tuple] = {}
    try:
        while True:
            command = conn.recv()
            kind = command[0]
            if kind == "close":
                break
            corrupt_ack = False
            try:
                if kind == "register":
                    descriptor, attempt = command[1], command[2]
                    fault = fault_plan.match(
                        phases=("register",), round=descriptor["handle"],
                        worker=worker_id, attempt=attempt,
                    ) if fault_plan else None
                    if fault is not None:
                        if fault.kind == "corrupt":
                            corrupt_ack = True
                        else:
                            fire(fault, conn)
                    programs[descriptor["handle"]] = \
                        _attach_program(descriptor)
                elif kind == "run":
                    handle, round_index, attempt = command[1:4]
                    fault = fault_plan.match(
                        phases=("send", "recv"), round=round_index,
                        worker=worker_id, attempt=attempt,
                    ) if fault_plan else None
                    if fault is not None and fault.kind == "corrupt":
                        corrupt_ack, fault = True, None
                    _run_round(programs[handle], worker_id, n_workers,
                               barrier, conn, fault)
                if corrupt_ack:
                    conn.send_bytes(CORRUPT_WIRE_BYTES)
                elif not _safe_send(conn, (worker_id, None)):
                    break
            except threading.BrokenBarrierError:
                if not _safe_send(conn, (worker_id,
                                         "barrier broken by a peer worker")):
                    break
            except Exception as exc:
                barrier.abort()
                if not _safe_send(conn, (worker_id,
                                         f"{type(exc).__name__}: {exc}")):
                    break
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        for work, sources, _ in programs.values():
            sources.close()
            work.close()
        try:
            conn.close()
        except OSError:
            pass


# -- the parent side ---------------------------------------------------------------


@dataclass
class ProcsPool:
    """A persistent, supervised pool of workers plus their shared programs.

    One pool per ``runtime="procs"`` engine.  The workers are forked lazily at
    the first :meth:`register` (so an engine that never registers anything
    never forks) and live until :meth:`close` — or until one of them dies,
    in which case the pool respawns them and retries (``max_retries`` times,
    exponential ``retry_backoff`` between attempts) before letting the
    :class:`~repro.utils.errors.WorkerError` escape to the engine's
    ``on_failure`` policy.  ``events`` accumulates one
    :class:`RecoveryEvent` per supervision decision.
    """

    n_workers: int
    timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    fault_plan: Optional[FaultPlan] = None
    events: Optional[List[RecoveryEvent]] = None
    _processes: List[mp.Process] = field(default_factory=list)
    _connections: List[Connection] = field(default_factory=list)
    _barrier: Optional[object] = None
    _programs: List[SharedProgram] = field(default_factory=list)
    _round: int = 0
    _broken: bool = False
    _closed: bool = False

    def __post_init__(self) -> None:
        if self.timeout is None:
            self.timeout = default_worker_timeout()
        self.timeout = float(self.timeout)
        if self.timeout <= 0:
            raise ValidationError(
                f"worker timeout must be positive, got {self.timeout}"
            )
        if int(self.max_retries) < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        self.max_retries = int(self.max_retries)
        if self.fault_plan is None:
            self.fault_plan = FaultPlan.from_environment()
        if self.events is None:
            self.events = []

    @property
    def started(self) -> bool:
        """Whether the workers have been forked yet."""
        return bool(self._processes)

    def _ensure_started(self) -> None:
        if self._processes or self._closed:
            return
        # Start the parent's resource tracker BEFORE forking, so every worker
        # inherits it and their shared-memory attaches register with the one
        # tracker the parent's unlink later clears.  Forking first would leave
        # each child to spawn a private tracker whose cache nobody clears —
        # "leaked shared_memory objects" warnings at interpreter shutdown.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        context = mp.get_context("fork")
        self._barrier = context.Barrier(self.n_workers)
        for worker_id in range(self.n_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(worker_id, self.n_workers, child_conn, self._barrier,
                      self.fault_plan),
                daemon=True,
                name=f"repro-exchange-worker-{worker_id}",
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._connections.append(parent_conn)
        self._broken = False

    # -- supervision ---------------------------------------------------------------

    def _abort_barrier(self) -> None:
        """Wake every worker blocked in ``Barrier.wait`` (idempotent)."""
        if self._barrier is not None:
            self._barrier.abort()

    def _crash(self, worker_id: int, what: str, detail: str) -> WorkerCrash:
        process = self._processes[worker_id]
        process.join(timeout=0.2)  # reap, and settle the exit code
        return WorkerCrash(worker_id=worker_id, exitcode=process.exitcode,
                           command=what, detail=detail)

    def _collect(self, what: str) -> None:
        """Wait for every worker's acknowledgement; diagnose failures.

        One ``connection.wait`` over all command pipes *and* process
        sentinels: a dead worker surfaces the instant its sentinel fires.
        After the first failure the barrier is aborted (unblocking peers
        committed to ``Barrier.wait``) and the survivors' pending acks are
        drained for a short grace period, so a pool that outlives the error
        never reads a stale acknowledgement on its next command.
        """
        pending: Dict[int, Tuple[mp.Process, Connection]] = {
            worker_id: (process, conn)
            for worker_id, (process, conn)
            in enumerate(zip(self._processes, self._connections))
        }
        crashes: List[WorkerCrash] = []
        soft_errors: List[str] = []
        deadline = time.monotonic() + self.timeout
        drain_deadline: Optional[float] = None

        def start_draining() -> None:
            nonlocal drain_deadline
            if drain_deadline is None:
                self._abort_barrier()
                drain_deadline = time.monotonic() + min(self.timeout,
                                                        _DRAIN_GRACE)

        while pending:
            now = time.monotonic()
            limit = drain_deadline if drain_deadline is not None else deadline
            if now >= limit:
                if drain_deadline is not None:
                    # Grace exhausted: whoever still has not answered is
                    # genuinely wedged, not merely barrier-blocked.
                    for worker_id in sorted(pending):
                        crashes.append(self._crash(
                            worker_id, what,
                            f"no acknowledgement within the "
                            f"{min(self.timeout, _DRAIN_GRACE):.1f}s drain "
                            f"grace after the barrier was aborted"))
                    pending.clear()
                    break
                # Primary timeout: abort the barrier and give the workers
                # one short grace to distinguish wedged from barrier-blocked.
                start_draining()
                continue
            by_object = {}
            for worker_id, (process, conn) in pending.items():
                by_object[conn] = worker_id
                by_object[process.sentinel] = worker_id
            ready = mp_connection.wait(list(by_object), timeout=limit - now)
            for worker_id in sorted({by_object[obj] for obj in ready}):
                process, conn = pending[worker_id]
                # Prefer the pipe: a worker may have answered and *then*
                # died; its ack is still the truth about this command.
                if conn.poll(0):
                    try:
                        _, error = conn.recv()
                    except (EOFError, OSError):
                        crashes.append(self._crash(
                            worker_id, what,
                            "command pipe closed before acknowledgement"))
                    except Exception as exc:  # corrupted wire bytes
                        crashes.append(self._crash(
                            worker_id, what,
                            f"unreadable acknowledgement "
                            f"({type(exc).__name__}: {exc})"))
                    else:
                        if error is not None:
                            soft_errors.append(
                                f"worker {worker_id}: {error}")
                    del pending[worker_id]
                elif not process.is_alive():
                    crashes.append(self._crash(
                        worker_id, what, "worker process died"))
                    del pending[worker_id]
            if crashes or soft_errors:
                start_draining()

        if crashes:
            self._broken = True
            message = (f"procs {what} failed: "
                       + "; ".join(crash.describe() for crash in crashes))
            if soft_errors:
                message += " (peers: " + "; ".join(soft_errors) + ")"
            raise WorkerError(message, crashes=tuple(crashes))
        if soft_errors:
            # A program error inside a worker: deterministic, not retryable.
            # The barrier was aborted to unblock peers; restore it so the
            # pool stays usable for the caller's next (corrected) command.
            real = [error for error in soft_errors
                    if "barrier broken by a peer worker" not in error]
            self._barrier.reset()
            raise CommunicationError(
                f"procs {what} failed: " + "; ".join(real or soft_errors)
            )

    def _dispatch(self, command: tuple, what: str) -> None:
        """Send one command to every worker; a dead pipe is a crash."""
        crashes: List[WorkerCrash] = []
        for worker_id, conn in enumerate(self._connections):
            try:
                conn.send(command)
            except (BrokenPipeError, OSError):
                crashes.append(self._crash(
                    worker_id, what,
                    "command pipe broken before dispatch"))
        if crashes:
            self._broken = True
            self._abort_barrier()
            raise WorkerError(
                f"procs {what} dispatch failed: "
                + "; ".join(crash.describe() for crash in crashes),
                crashes=tuple(crashes))

    # -- recovery ------------------------------------------------------------------

    def _record(self, action: str, what: str, attempt: int, chosen: str,
                exc: WorkerError) -> None:
        self.events.append(RecoveryEvent(
            action=action, command=what, attempt=attempt, chosen=chosen,
            crashes=exc.crashes))

    def _teardown_workers(self, *, graceful: bool) -> None:
        """Stop the current worker generation, keeping the shared programs.

        Aborts the barrier *first* so a worker blocked in ``Barrier.wait``
        (its peer died mid-round) wakes up and reads the close command
        instead of deadlocking the join.
        """
        self._abort_barrier()
        if graceful:
            for conn in self._connections:
                try:
                    conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
        join_timeout = 10.0 if graceful else 0.5
        for process in self._processes:
            process.join(timeout=join_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=10.0)
            process.close()
        for conn in self._connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._processes.clear()
        self._connections.clear()
        self._barrier = None

    def _respawn(self, attempt: int) -> None:
        """Replace a broken worker generation and restore its state.

        Re-registers every retained :class:`SharedProgram` from the
        parent-side segments (which survive worker death) so the new workers
        see exactly the handles the old ones did.
        """
        self._teardown_workers(graceful=False)
        self._ensure_started()
        for handle, program in enumerate(self._programs):
            self._dispatch(("register", program.descriptor(handle), attempt),
                           "register")
            self._collect("register")

    def quarantine(self) -> None:
        """Stop the workers but keep every shared segment alive.

        The engine calls this before falling back to the single-process
        path: a wedged worker that later wakes must not scribble on the
        work array while the serial kernels are using it.  The pool stays
        un-closed so :meth:`close` still unlinks the segments.
        """
        if self._closed:
            return
        self._teardown_workers(graceful=False)
        self._broken = True

    def _retry_loop(self, what: str, dispatch) -> None:
        """Run ``dispatch()`` with supervised retry + backoff + respawn."""
        attempt = 0
        while True:
            try:
                if self._broken and self._programs:
                    self._respawn(attempt)
                    if what == "register":
                        # The respawn re-registered every retained program —
                        # including the one this call appended — so the
                        # failed registration is already redone.
                        return
                self._ensure_started()
                dispatch(attempt)
                return
            except WorkerError as exc:
                if attempt >= self.max_retries:
                    self._record(
                        "give-up", what, attempt,
                        f"retries exhausted after {attempt + 1} attempt(s); "
                        f"raising to the engine's on_failure policy", exc)
                    raise
                backoff = self.retry_backoff * (2 ** attempt)
                self._record(
                    "retry", what, attempt,
                    f"respawning {self.n_workers} worker(s) and retrying "
                    f"after {backoff:.2f}s backoff "
                    f"(attempt {attempt + 2}/{self.max_retries + 1})", exc)
                time.sleep(backoff)
                attempt += 1

    # -- commands ------------------------------------------------------------------

    def register(self, work: np.ndarray,
                 steps: Sequence[tuple]) -> SharedProgram:
        """Share a program (:func:`share_program`) and hand it to
        every worker."""
        if self._closed:
            raise CommunicationError("exchange engine is closed")
        program = share_program(work, steps)
        self._programs.append(program)
        descriptor = program.descriptor(len(self._programs) - 1)

        def dispatch(attempt: int) -> None:
            self._dispatch(("register", descriptor, attempt), "register")
            self._collect("register")

        try:
            self._retry_loop("register", dispatch)
        except Exception:
            # Registration never took: drop the segments immediately rather
            # than carrying a half-registered program to the next respawn.
            self._programs.pop()
            program.close()
            raise
        return program

    def run(self, handle: int) -> None:
        """Execute one exchange round across all workers (blocking)."""
        if self._closed:
            raise CommunicationError("exchange engine is closed")
        round_index = self._round
        self._round += 1

        def dispatch(attempt: int) -> None:
            self._dispatch(("run", handle, round_index, attempt), "run")
            self._collect("run")

        self._retry_loop("run", dispatch)

    def close(self) -> None:
        """Shut the workers down and release every shared segment."""
        if self._closed:
            return
        self._closed = True
        self._teardown_workers(graceful=True)
        for program in self._programs:
            program.close()
        self._programs.clear()
