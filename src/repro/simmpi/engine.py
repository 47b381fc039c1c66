"""The world-stepped exchange engine: batched columnar delivery for all ranks.

The :class:`ExchangeEngine` executes a neighborhood collective as a *world
program* (:class:`~repro.collectives.exchange.WorldExchange`): every rank's
values live in one world work array, and a whole round for the whole
communicator is one kernel call — never O(messages) Python work.  I/O is
flat-native: ``run`` takes one rank-major array of owned values and returns
one array of received values — or, for an exchange registered *on the
caller's vector*
(``register(world, vector_length=n)``, item ids being positions in it), takes
the vector itself and returns the round buffer ``[x | halo]`` read-only, with
:meth:`ExchangeEngine.halo_rows` locating the received values in it: what
:class:`~repro.sparse.spmv.WorldSpMV` multiplies by, no pack, no unpack.

The compiler already composed every hop of the plan into its end points
(``world.result_rows``, the owned row of every output entry), so a round on
either engine runtime is: load the head, one ``take``, and — only when a
profiler is attached — one bulk accounting record per send phase.  An
unbound handle's work array is its owned rows, and the take is the output
gather into a fresh array.  A vector-bound handle's is ``[x | halo]``: the
take fills the halo rows ``n + arange(R)`` from the vector rows
``owned_items_all[result_rows]``, and the buffer itself is the output.
:meth:`ExchangeEngine.register` validates that one source column, allocates
the work array and fixes each handle's input test: a bound handle's vector
of exactly the registered shape and dtype is copied into the head as is,
and an unbound handle's list of per-rank arrays of exactly the exchange's
dtype, ndim and owned lengths is concatenated into the owned rows; anything
else goes through the full input check.

* ``runtime="engine"`` (default) — the parent makes the take itself.
* ``runtime="procs"`` — a persistent, supervised worker pool
  (:mod:`repro.simmpi.procs`) runs the round's one receive step: the work
  array and the step's source rows move into
  ``multiprocessing.shared_memory`` and every forked worker gathers its even
  share of the halo rows.  On an unbound handle the step is an empty slot —
  the output gather stays in the parent.  A round the pool retries after a
  worker died or hung is the same step on the same rows.

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
:func:`~repro.collectives.exchange.compile_world_exchange`).
"""

from __future__ import annotations

import os
import weakref
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from repro.simmpi.profiler import TrafficProfiler
from repro.utils.errors import CommunicationError, ValidationError
from repro.utils.validation import (check_non_negative_int,
                                    check_value_preserving_cast)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.collectives.exchange import WorldExchange, WorldPhaseProgram
    from repro.simmpi.procs import ProcsPool, RecoveryEvent, SharedProgram

#: Per-iteration input: one flat concatenation of all ranks' owned values in
#: rank order (native, zero-copy), or one dense array per rank.
WorldValues = Union[Sequence[np.ndarray], np.ndarray]

#: Environment variable that flips the default runtime for every engine in
#: the process, including those a collective, SpMV or V-cycle creates itself.
RUNTIME_ENV = "REPRO_RUNTIME"

#: Every runtime an engine executes, and so every value ``runtime=`` and
#: ``REPRO_RUNTIME`` may name.
ENGINE_RUNTIMES = ("engine", "procs")


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


@dataclass
class _RegisteredProgram:
    """Engine-side state of one registered world exchange.

    ``sends`` are the world's send phases in schedule order, each accounted
    with one bulk record per round while a profiler is attached, and
    ``source`` is the round's one gather column: the ``work`` row every
    delivered entry copies.  Unbound, ``work`` is the owned rows and
    ``source`` is ``world.result_rows``, gathered into a fresh output.
    Bound to a vector of ``vector_length`` (``n``) entries, ``work`` is
    ``[x | halo]``, what a round returns, and ``source`` is the vector row
    of every halo row ``n + arange(R)``.
    ``shared`` is set only while a ``runtime="procs"`` pool holds ``work``
    and ``source`` in its two shared-memory segments (they are then views of
    those).

    A bound handle also fixes its fast path at registration: ``head`` is the
    vector's rows of ``work`` as one 1-D view — an input of exactly its
    shape and dtype is copied in with no further check — ``halo`` the rows
    behind it as another, which the round's take fills, and ``buffer`` the
    read-only flat view of ``work`` a round returns (``None`` while ``work``
    is a shared segment, which hands out a copy instead).  An unbound handle
    fixes its list fast path likewise: ``owned`` is ``work`` as one ``(n,)``
    view (``(n, item_size)`` for wider items) and ``lengths`` every rank's
    owned-row count, so a list or tuple of per-rank arrays of exactly that
    dtype, ndim and lengths is concatenated straight into ``owned``."""

    world: "WorldExchange"
    vector_length: Optional[int]
    work: np.ndarray
    sends: List["WorldPhaseProgram"]
    source: np.ndarray
    shared: Optional["SharedProgram"] = None
    head: Optional[np.ndarray] = None
    halo: Optional[np.ndarray] = None
    buffer: Optional[np.ndarray] = None
    owned: Optional[np.ndarray] = None
    lengths: Optional[List[int]] = None


def _check_range(name: str, index: np.ndarray, bound: int) -> None:
    """Reject an index outside ``[0, bound)`` once, so no kernel has to
    (``take`` in the rounds' ``mode="wrap"``, and fancy indexing of a
    negative one, would wrap it — and deliver garbage)."""
    if index.size and not (0 <= index.min() and index.max() < bound):
        raise CommunicationError(f"corrupt world exchange: {name} holds an "
                                 f"index outside [0, {bound})")


def _checked_steps(world: "WorldExchange") -> List["WorldPhaseProgram"]:
    """``world``'s send phases in schedule order, once its one source
    column checks out: every output entry must copy an owned row."""
    _check_range("result_rows", world.result_rows, world.owned_items_all.size)
    return [world.programs[phase] for kind, phase in world.steps
            if kind == "send"]


def _as_rows(values, n_rows: int, spec, what: str) -> np.ndarray:
    """``values`` as ``(n_rows, item_size)`` rows of the exchange's dtype."""
    array = np.asarray(values)
    check_value_preserving_cast(array.dtype, spec.dtype)
    expected = (n_rows,) if spec.item_size == 1 else (n_rows, spec.item_size)
    if array.shape != expected and array.shape != (n_rows, spec.item_size):
        raise ValidationError(
            f"{what} must have shape {expected}, got {array.shape}")
    return array.astype(spec.dtype, copy=False).reshape(n_rows, spec.item_size)


def _load_ranks(state: _RegisteredProgram, values) -> bool:
    """Concatenate a list or tuple of per-rank arrays straight into an
    unbound handle's owned rows, if C-level passes over it show that nothing
    needs a cast or a reshape: every entry an exact ``ndarray``, each rank's
    of its owned length, and ``concatenate`` itself refuses any other dtype
    (``casting="no"``) or shape.  One copy, no temporary.  Returns
    ``False`` — on anything else, a 0-d entry included — to send the input
    through the checked per-rank path, which rewrites every owned row."""
    try:
        if type(values) not in (list, tuple) \
                or set(map(type, values)) != {np.ndarray} \
                or list(map(len, values)) != state.lengths:
            return False
        np.concatenate(values, out=state.owned, casting="no")
    except (TypeError, ValueError):
        return False
    return True


class ExchangeEngine:
    """Executes registered world exchanges, one phase at a time for all ranks.

    One engine serves one world (communicator size); any number of world
    exchanges — e.g. one per AMG level — can be registered against it and
    executed repeatedly.  When a :class:`TrafficProfiler` is attached, every
    phase of every iteration is accounted through
    :meth:`TrafficProfiler.record_batch` with exactly the messages of the
    plan the program was compiled from.

    ``runtime`` selects who runs each round's receive step (``"engine"``
    the parent, ``"procs"`` a shared-memory worker pool; ``None`` resolves
    through ``REPRO_RUNTIME``); ``n_workers`` sizes the procs pool (default:
    one per available core, capped by ``n_ranks``).

    Worker failures on the procs backend are supervised: the pool respawns
    its workers and retries the failed command, then raises
    :class:`~repro.utils.errors.WorkerError` (:mod:`repro.simmpi.procs`).
    Every retry and give-up is recorded in :attr:`events`.
    """

    def __init__(self, n_ranks: int, *, profiler: TrafficProfiler | None = None,
                 runtime: str | None = None, n_workers: int | None = None):
        if isinstance(n_ranks, (int, np.integer)) and n_ranks <= 0:
            raise ValidationError("an exchange engine needs at least one rank")
        # A float, bool or string is rejected, never truncated.
        n_ranks = check_non_negative_int("n_ranks", n_ranks)
        if n_workers is not None:
            if isinstance(n_workers, (int, np.integer)) and n_workers < 1:
                raise ValidationError(
                    f"n_workers must be >= 1, got {n_workers}")
            n_workers = check_non_negative_int("n_workers", n_workers)
        if runtime is None:
            runtime = default_runtime()
        if runtime not in ENGINE_RUNTIMES:
            raise ValidationError(
                f"engine runtime must be one of {ENGINE_RUNTIMES}, "
                f"got {runtime!r}"
            )
        self.n_ranks = n_ranks
        self.profiler = profiler
        self.runtime = runtime
        self._programs: List[_RegisteredProgram] = []
        self._closed = False
        self._pool: Optional["ProcsPool"] = None
        self._events: List["RecoveryEvent"] = []
        self._finalizer = None
        if runtime == "procs":
            from repro.simmpi.procs import ProcsPool, default_worker_count

            self._pool = ProcsPool(
                n_workers=n_workers if n_workers is not None
                else default_worker_count(self.n_ranks),
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
        """The supervision decision trace: every retry and give-up recorded
        as a structured :class:`~repro.simmpi.procs.RecoveryEvent`, in the
        order they were decided."""
        return list(self._events)

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
        by the compiler: registration checks the one source column it will
        gather (every ``result_rows`` entry an owned row — a corrupt program
        raises :class:`CommunicationError` here, never a wrong answer in
        ``run``), allocates the persistent work array and, on
        ``runtime="procs"``, moves that array and the source rows into the
        two segments the workers attach to.  An unbound handle keeps the
        owned rows only.

        ``vector_length=n`` binds the handle to the caller's ``(n,)`` vector,
        item ids being positions in it (as for every ``pattern_from_parcsr``
        pattern; scalar items only): the work array is ``[x | halo]``, halo
        row ``n + k`` holding output entry ``k``; see :meth:`run` and
        :meth:`halo_rows`.
        """
        self._check_open()
        if world.n_ranks > self.n_ranks:
            raise CommunicationError(
                "world exchange spans more ranks than the engine provides"
            )
        ids = world.owned_items_all
        bound = vector_length is not None
        if bound and not (isinstance(vector_length, (int, np.integer))
                          and vector_length < 0):
            # A float, bool or string is rejected, never truncated.
            vector_length = check_non_negative_int("vector_length",
                                                   vector_length)
        if bound and (
                world.spec.item_size != 1 or vector_length < 0 or (
                    ids.size and not 0 <= ids.min() <= ids.max() < vector_length)):
            raise ValidationError(
                f"binding an exchange to a vector of length {vector_length} "
                f"needs item_size == 1 (got {world.spec.item_size}) and every "
                f"owned item id in [0, {vector_length})")
        sends = _checked_steps(world)
        if bound:
            head, n_halo = vector_length, world.result_rows.size
            source = np.take(ids, world.result_rows)
        else:
            head, n_halo, source = ids.size, 0, world.result_rows
        work = np.zeros((head + n_halo, world.spec.item_size),
                        dtype=world.spec.dtype)
        state = _RegisteredProgram(world, vector_length, work, sends, source)
        if self._pool is not None:
            # The pool's schedule: every send, then the round's one receive
            # step — an empty slot on an unbound handle, whose output gather
            # stays here.
            steps = [(None, 0, 0)] * len(sends) \
                + [(source if bound else source[:0], head, head + n_halo)]
            shared = self._pool.register(work, steps)
            state.shared, state.work = shared, shared.work.array
            if bound:
                state.source = shared.step_sources()[-1]
        if bound:
            # Cut after the pool swapped ``work`` for its shared segment.
            state.head, state.halo = state.work[:head, 0], state.work[head:, 0]
            if state.shared is None:
                state.buffer = state.work.reshape(-1)
                state.buffer.flags.writeable = False
        else:
            state.owned = state.work
            if world.spec.item_size == 1:
                state.owned = state.owned[:, 0]
            state.lengths = np.diff(world.owned_offsets).tolist()
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
        ``world.result_items_all``, in that order: ``n + arange(R)`` on a
        vector of ``n`` entries and ``R`` output entries."""
        state = self._bound(handle)
        n = state.vector_length
        return np.arange(n, n + state.world.result_rows.size)

    # -- per-iteration execution ----------------------------------------------

    def run(self, handle: int, values: WorldValues) -> np.ndarray:
        """Execute one full exchange round for every rank (start + wait).

        ``values`` holds every rank's owned item values: one flat array in
        ``world.owned_items_all`` order (native), or a sequence of per-rank
        dense arrays.  A list or tuple of exact ``ndarray`` s, each of the
        exchange's dtype and of shape ``(n_owned,)`` (``(n_owned,
        item_size)`` for wider items), is checked and concatenated into the
        work array by C-level calls, with no per-rank Python work; any other
        sequence — casts, nested lists, ``(n_owned, 1)`` columns, subclasses
        — is still accepted through the checked per-rank path, which names
        the offending rank.  Anything else raises :class:`ValidationError`.
        Returns a fresh flat array of every rank's received
        values in ``world.result_items_all`` order (delimited per rank by
        ``world.result_offsets``): the value its source owns of every item
        each rank receives, made by one gather from the owned rows.

        On a handle registered with ``vector_length=n``, ``values`` is the
        ``(n,)`` vector itself (anything else raises :class:`ValidationError`)
        and the return is the engine's round buffer, read-only and valid until
        the handle's next round: entries ``[:n]`` are the vector, entry
        ``halo_rows(handle)[k]`` the value of ``world.result_items_all[k]``.

        The round loads the head, runs the receive step — on the pool, else
        here — and accounts every send phase.
        """
        self._check_open()
        state = self._program(handle)
        work, head = state.work, state.head
        if head is not None and isinstance(values, np.ndarray) \
                and values.shape == head.shape and values.dtype == head.dtype:
            head[...] = values          # a bound handle's own vector, as is
        elif not (state.owned is not None and _load_ranks(state, values)):
            loaded = self._load_values(state, values)
            work[:loaded.shape[0]] = loaded
        if state.shared is not None:
            self._pool.run(handle)
        if self.profiler is not None:
            for program in state.sends:
                self._account(program)
        if state.vector_length is None:
            # The round's one gather: every output entry from its owned row.
            # Indices were validated at register, so "wrap" never wraps
            # ("raise" would buffer ``out``).
            rows = np.empty((state.source.size, work.shape[1]),
                            dtype=work.dtype)
            work.take(state.source, 0, rows, "wrap")
            return rows.reshape(-1) if state.world.spec.item_size == 1 \
                else rows
        if state.buffer is not None:
            # The halo from the vector rows: two disjoint views fixed at
            # register, the take called on the array directly (``np.take``
            # would add two Python frames).
            head.take(state.source, 0, state.halo, "wrap")
            return state.buffer         # the round buffer itself, read-only
        # The rows are a shared segment: a private read-only copy, so no
        # shared-memory view escapes to the caller.
        rows = work.copy().reshape(-1)
        rows.flags.writeable = False
        return rows

    # -- helpers --------------------------------------------------------------

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
        if not isinstance(values, SequenceABC):     # a dict or set is none
            raise ValidationError(
                "values must be one flat array of every rank's owned values "
                "or a sequence (list or tuple) of one array per rank, got "
                f"{type(values).__name__}")
        if len(values) != world.n_ranks:
            raise ValidationError(
                f"expected one value array per rank ({world.n_ranks}), "
                f"got {len(values)}"
            )
        # What _load_ranks did not take: rank by rank, casting — or naming
        # the offending rank.
        parts = [_as_rows(rank_values, n_owned, spec,
                          f"rank {rank} owns {n_owned} items of size "
                          f"{spec.item_size}; values")
                 for rank, (rank_values, n_owned)
                 in enumerate(zip(values, state.lengths))]
        return np.concatenate(parts) if parts \
            else np.empty((0, spec.item_size), dtype=spec.dtype)

    def _account(self, program: "WorldPhaseProgram") -> None:
        """Bulk-record the phase's messages with the attached profiler."""
        if program.msg_sources.size == 0:
            return
        self.profiler.record_batch(program.msg_sources, program.msg_dests,
                                   program.msg_nbytes, tag=program.tag)
