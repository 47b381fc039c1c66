"""Functional execution of collective plans on the simulated MPI runtime.

A :class:`PersistentNeighborCollective` is one rank's handle on a persistent
neighborhood collective: it is created once (``init``), then every iteration
packs its send buffers, starts communication, and unpacks received values —
the Start/Wait cycle the paper times.  The handle executes whatever
:class:`~repro.collectives.plan.CollectivePlan` it is given, so the same class
runs the standard, partially optimized and fully optimized variants; the
difference is entirely in the plan.

The data path is array-native: at init time the plan is compiled into
gather/scatter index arrays (:mod:`repro.collectives.exchange`), and every
iteration moves a dense value array of any dtype (float32/float64/int64/
complex128/…) with any number of components per item.  Packing is one fancy
index per phase into a contiguous send arena whose per-message slices are
posted directly as the persistent send buffers; unpacking is the mirror
scatter.  No per-item Python loop runs between ``start`` and ``wait``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.collectives.exchange import (
    PHASE_TAGS,
    CompiledExchange,
    CompiledPhase,
    ExchangeSpec,
    WorldExchange,
    compile_exchange,
    compile_world_exchange,
)
from repro.collectives import plan_cache
from repro.collectives.plan import CollectivePlan, Phase, Variant
from repro.simmpi.comm import SimComm
from repro.simmpi.engine import ExchangeEngine, WorldValues
from repro.simmpi.profiler import TrafficProfiler
from repro.simmpi.request import PersistentRecvRequest, PersistentSendRequest
from repro.utils.errors import CommunicationError, ValidationError
from repro.utils.validation import check_value_preserving_cast

#: Tag offsets per phase so concurrent phases never match each other's traffic
#: (shared with the world engine's bulk accounting).
_PHASE_TAGS = PHASE_TAGS


def _gather_into(work: np.ndarray, indices: np.ndarray, out: np.ndarray) -> None:
    """Pack: one fancy-index gather from the work array into a send arena.

    Kept as a module-level seam so tests can shim it and count invocations —
    the count must scale with the number of phases, never with item count.
    """
    np.take(work, indices, axis=0, out=out)


def _scatter_from(work: np.ndarray, indices: np.ndarray, arena: np.ndarray) -> None:
    """Unpack: one fancy-index scatter from a receive arena into the work array."""
    work[indices] = arena


class _PhaseEndpoint:
    """One rank's sends and receives for one phase of a compiled plan.

    The send (receive) buffers of all messages of the phase live in one
    contiguous arena; each persistent request posts an arena *slice*, so the
    wire sees exactly the bytes the gather produced, with no per-message copy
    on the pack side.
    """

    def __init__(self, comm: SimComm, compiled: CompiledPhase, spec: ExchangeSpec):
        tag = _PHASE_TAGS[compiled.phase]
        self.phase = compiled.phase
        self._gather = compiled.gather
        self._scatter = compiled.scatter
        self.send_messages = compiled.send_messages
        self.recv_messages = compiled.recv_messages
        self.send_arena = np.empty((compiled.gather.size, spec.item_size),
                                   dtype=spec.dtype)
        self.recv_arena = np.empty((compiled.scatter.size, spec.item_size),
                                   dtype=spec.dtype)
        offsets = compiled.send_offsets
        self.send_requests: List[PersistentSendRequest] = [
            comm.send_init(self.send_arena[offsets[i]:offsets[i + 1]],
                           dest=message.dest, tag=tag)
            for i, message in enumerate(self.send_messages)
        ]
        offsets = compiled.recv_offsets
        self.recv_requests: List[PersistentRecvRequest] = [
            comm.recv_init(self.recv_arena[offsets[i]:offsets[i + 1]],
                           source=message.src, tag=tag)
            for i, message in enumerate(self.recv_messages)
        ]

    # -- per-iteration operations ---------------------------------------------

    def pack(self, work: np.ndarray) -> None:
        """Fill the send arena from the work array (single gather)."""
        if self._gather.size:
            _gather_into(work, self._gather, self.send_arena)

    def start(self) -> None:
        """Start all persistent requests of the phase (MPI_Startall)."""
        for request in self.recv_requests:
            request.start()
        for request in self.send_requests:
            request.start()

    def wait(self, work: np.ndarray) -> None:
        """Complete the phase and scatter received values into the work array."""
        for request in self.recv_requests:
            request.wait()
        for request in self.send_requests:
            request.wait()
        if self._scatter.size:
            _scatter_from(work, self._scatter, self.recv_arena)

    @property
    def n_messages(self) -> int:
        """Messages this rank sends in the phase."""
        return len(self.send_messages)


class PersistentNeighborCollective:
    """One rank's persistent handle for a planned neighborhood collective.

    The interface is array-native: ``start`` takes a dense array of the
    rank's owned item values in ``owned_item_ids`` order (shape
    ``(n_owned,)``, or ``(n_owned, item_size)`` for vector-valued items) and
    ``wait`` returns the received values in ``recv_item_ids`` order.
    """

    def __init__(self, comm: SimComm, plan: CollectivePlan, *,
                 dtype: np.dtype | type | str | None = None,
                 item_size: int | None = None,
                 duplicate_comm: bool = True):
        self.comm = comm.dup() if duplicate_comm else comm
        self.plan = plan
        self.rank = comm.rank
        self.variant = plan.variant
        if plan.pattern.n_ranks > comm.size:
            raise CommunicationError(
                "plan was built for more ranks than the communicator provides"
            )
        self.spec = ExchangeSpec(
            dtype=np.dtype(dtype) if dtype is not None else plan.pattern.dtype,
            item_size=int(item_size) if item_size is not None
            else plan.pattern.item_size,
        )
        self.compiled: CompiledExchange = compile_exchange(plan, self.rank, self.spec)
        self._phases = [_PhaseEndpoint(self.comm, phase, self.spec)
                        for phase in self.compiled.phases]
        self._phase_by_name = {endpoint.phase: endpoint for endpoint in self._phases}
        self._work = np.zeros((self.compiled.n_rows, self.spec.item_size),
                              dtype=self.spec.dtype)
        self._started = False

    # -- array API: index metadata ---------------------------------------------

    @property
    def owned_item_ids(self) -> np.ndarray:
        """Item ids of the dense input, in input order (ascending)."""
        return self.compiled.owned_items

    @property
    def recv_item_ids(self) -> np.ndarray:
        """Item ids of the dense output of ``wait``, in output order (ascending)."""
        return self.compiled.result_items

    @property
    def recv_item_sources(self) -> np.ndarray:
        """Owning rank of every entry of ``recv_item_ids``."""
        return self.compiled.result_sources

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the exchange."""
        return self.spec.dtype

    @property
    def item_size(self) -> int:
        """Components per item."""
        return self.spec.item_size

    # -- persistent life-cycle ----------------------------------------------------

    def start(self, values: np.ndarray) -> None:
        """Begin one iteration of communication (MPI_Start).

        ``values`` holds the current values of the items this rank *owns*, as
        a dense array in ``owned_item_ids`` order.  Following Algorithm 5, the
        fully local phase and the initial redistribution are started
        immediately; the redistribution is completed inside ``start`` so the
        inter-region phase can begin.
        """
        if self._started:
            raise CommunicationError("collective started twice without wait")
        self._load_owned(values)
        work = self._work
        if self.variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
            direct = self._phase_by_name[Phase.DIRECT]
            direct.pack(work)
            direct.start()
        else:
            local = self._phase_by_name[Phase.LOCAL]
            setup = self._phase_by_name[Phase.SETUP_REDIST]
            global_phase = self._phase_by_name[Phase.GLOBAL]
            local.pack(work)
            local.start()
            setup.pack(work)
            setup.start()
            setup.wait(work)
            global_phase.pack(work)
            global_phase.start()
        self._started = True

    def wait(self) -> np.ndarray:
        """Complete the iteration (MPI_Wait) and return received values.

        Returns the values of every item this rank receives in the pattern
        (plus items it sends to itself), as a dense array in
        ``recv_item_ids`` order.
        """
        if not self._started:
            raise CommunicationError("wait called before start")
        work = self._work
        if self.variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
            self._phase_by_name[Phase.DIRECT].wait(work)
        else:
            local = self._phase_by_name[Phase.LOCAL]
            global_phase = self._phase_by_name[Phase.GLOBAL]
            final = self._phase_by_name[Phase.FINAL_REDIST]
            local.wait(work)
            global_phase.wait(work)
            final.pack(work)
            final.start()
            final.wait(work)
        self._started = False
        result = work[self.compiled.result_rows]
        if self.spec.item_size == 1:
            result = result.reshape(-1)
        return result

    def exchange(self, values: np.ndarray) -> np.ndarray:
        """Convenience start-then-wait for a single iteration."""
        self.start(values)
        return self.wait()

    def _load_owned(self, values: np.ndarray) -> None:
        """Copy the caller's dense input into the owned rows of the work array."""
        n_owned = self.compiled.n_owned
        expected = (n_owned,) if self.spec.item_size == 1 else \
            (n_owned, self.spec.item_size)
        array = np.asarray(values)
        # Reject value-corrupting casts: the rule shared with the world engine.
        check_value_preserving_cast(array.dtype, self.spec.dtype)
        array = array.astype(self.spec.dtype, copy=False)
        if array.shape != expected and array.shape != (n_owned, self.spec.item_size):
            raise ValidationError(
                f"rank {self.rank} owns {n_owned} items of size {self.spec.item_size}; "
                f"values must have shape {expected}, got {array.shape}"
            )
        self._work[:n_owned] = array.reshape(n_owned, self.spec.item_size)

    # -- introspection ---------------------------------------------------------------

    def messages_per_iteration(self) -> int:
        """Number of messages this rank sends every iteration."""
        return sum(endpoint.n_messages for endpoint in self._phases)

    def describe(self) -> str:
        """Short human-readable summary."""
        return (f"rank {self.rank}: {self.variant.value} collective, "
                f"{self.messages_per_iteration()} messages/iteration, "
                f"{self.spec.item_size}x{self.spec.dtype.name} items")


class WorldNeighborCollective:
    """All ranks' persistent handles, fused into one world-stepped collective.

    Where :class:`PersistentNeighborCollective` is one rank's view of a plan
    (run one instance per simulated-rank thread), a world collective holds
    *every* rank's compiled gather/scatter arrays and executes a whole
    iteration for the whole communicator through the batched
    :class:`~repro.simmpi.engine.ExchangeEngine` — O(phases) numpy calls, no
    per-message envelopes, no threads.  Results are byte-identical to running
    the per-rank executor on the envelope-routed runtime, and an attached
    profiler sees identical data-path byte/message totals.

    ``exchange_flat`` is the engine's native form: one flat array of every
    rank's owned values (``world.owned_items_all`` order) in, one of received
    values (``world.result_items_all`` order) out.  ``exchange`` also takes
    one array per rank and returns one view per rank (``recv_item_ids``).

    ``vector_length=n`` registers the exchange *on the caller's vector*
    (:meth:`ExchangeEngine.register`): a round is ``engine.run(handle, x)``
    and returns the engine's round buffer; ``exchange``, and a per-rank list
    given to ``exchange_flat``, raise :class:`ValidationError`.

    ``runtime`` / ``n_workers`` select and size the engine backend
    (``"engine"`` staged single-process, ``"procs"`` shared-memory worker
    pool) when the collective creates its own private engine; they cannot
    be combined with a shared ``engine``, which already fixed its runtime.  ``close`` (or using the collective as a
    context manager) releases a private engine's workers and shared
    segments deterministically — a shared engine is left to its owner.
    """

    def __init__(self, plan: CollectivePlan, *,
                 dtype: np.dtype | type | str | None = None,
                 item_size: int | None = None,
                 engine: ExchangeEngine | None = None,
                 profiler: TrafficProfiler | None = None,
                 runtime: str | None = None,
                 n_workers: int | None = None,
                 vector_length: int | None = None):
        if engine is not None and profiler is not None \
                and engine.profiler is not profiler:
            raise ValidationError(
                "pass either an engine (with its own profiler) or a profiler, "
                "not both"
            )
        if engine is not None and (runtime is not None or n_workers is not None):
            raise ValidationError(
                "a shared engine already fixed its runtime; pass runtime/"
                "n_workers only when the collective creates its own engine"
            )
        self.plan = plan
        self.variant = plan.variant
        self.spec = ExchangeSpec(
            dtype=np.dtype(dtype) if dtype is not None else plan.pattern.dtype,
            item_size=int(item_size) if item_size is not None
            else plan.pattern.item_size,
        )
        # Planner-built plans carry a content token, so the compiled world
        # program can be served from (and feed) the plan/exchange cache; a
        # hit is byte-identical to the cold compile and registration never
        # mutates it, so one world may back many collectives/engines.
        world = plan_cache.fetch_world(plan, self.spec)
        if world is None:
            world = compile_world_exchange(plan, self.spec)
            plan_cache.store_world(plan, self.spec, world)
        self.world: WorldExchange = world
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else \
            ExchangeEngine(self.world.n_ranks, profiler=profiler,
                           runtime=runtime, n_workers=n_workers)
        self._handle = self.engine.register(self.world,
                                            vector_length=vector_length)
        # Per-rank slices of the flat result (a bound vector has none).
        offsets = self.world.result_offsets.tolist()
        self._result_bounds = None if vector_length is not None \
            else list(zip(offsets[:-1], offsets[1:]))

    @property
    def handle(self) -> int:
        """This collective's registration handle on :attr:`engine`.

        The key the engine's per-round timing hook reports, so callers
        (e.g. the online autotuner) can attribute measured rounds back to
        the collective that ran.
        """
        return self._handle

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Release the private engine's resources (no-op on a shared engine)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "WorldNeighborCollective":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- index metadata (per rank) --------------------------------------------

    @property
    def n_ranks(self) -> int:
        """Ranks of the communicator the collective spans."""
        return self.world.n_ranks

    def owned_item_ids(self, rank: int) -> np.ndarray:
        """Item ids of ``rank``'s dense input, in input order (ascending)."""
        return self.world.owned_item_ids(rank)

    def recv_item_ids(self, rank: int) -> np.ndarray:
        """Item ids of ``rank``'s dense output, in output order (ascending)."""
        return self.world.recv_item_ids(rank)

    def recv_item_sources(self, rank: int) -> np.ndarray:
        """Owning rank of every entry of ``recv_item_ids(rank)``."""
        return self.world.recv_item_sources(rank)

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the exchange."""
        return self.spec.dtype

    @property
    def item_size(self) -> int:
        """Components per item."""
        return self.spec.item_size

    # -- execution -------------------------------------------------------------

    def exchange_flat(self, values: WorldValues) -> np.ndarray:
        """One full iteration for every rank, flat in and out (engine-native)."""
        return self.engine.run(self._handle, values)

    def exchange(self, values: WorldValues) -> List[np.ndarray]:
        """One full iteration for every rank; one result view per rank."""
        if self._result_bounds is None:
            raise ValidationError(
                "this collective is bound to a vector: run engine.run(handle, "
                "x) and read the halo at engine.halo_rows(handle)")
        flat = self.exchange_flat(values)
        return [flat[a:b] for a, b in self._result_bounds]

    # -- introspection ----------------------------------------------------------

    def messages_per_iteration(self) -> int:
        """Messages the whole communicator sends every iteration."""
        return self.world.n_messages

    def describe(self) -> str:
        """Short human-readable summary."""
        return (f"world {self.variant.value} collective over "
                f"{self.world.n_ranks} ranks, "
                f"{self.messages_per_iteration()} messages/iteration, "
                f"{self.spec.item_size}x{self.spec.dtype.name} items")
