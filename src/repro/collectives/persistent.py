"""Functional execution of collective plans on the world exchange engine.

A :class:`WorldNeighborCollective` is a persistent neighborhood collective
for a whole simulated communicator: it is created once (``init``) — the plan
is compiled into one world program
(:func:`~repro.collectives.exchange.compile_world_exchange`) and registered
with an :class:`~repro.simmpi.engine.ExchangeEngine` — then every iteration
moves every rank's dense value array through it, the Start/Wait cycle the
paper times.  The collective executes whatever
:class:`~repro.collectives.plan.CollectivePlan` it is given, so the same class
runs the standard, partially optimized and fully optimized variants; the
difference is entirely in the plan.

The data path is array-native and dtype-generic (float32/float64/int64/
complex128/… with any number of components per item): the element type is
the pattern's (``pattern.dtype`` × ``pattern.item_size``), and a round is
O(phases) numpy calls for the whole communicator, with no per-item or
per-message Python loop.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.collectives.exchange import (
    ExchangeSpec,
    WorldExchange,
    compile_world_exchange,
)
from repro.collectives import plan_cache
from repro.collectives.plan import CollectivePlan
from repro.simmpi.engine import ExchangeEngine, WorldValues
from repro.utils.errors import ValidationError

#: Shortest run of consecutive ranks with equal result lengths that a list
#: round cuts with one reshape: iterating the ``(k, L)`` array makes its row
#: views in C, but the reshape costs about as much as 20 slices, so shorter
#: runs are cut rank by rank.
MIN_RUN = 20


def result_cuts(offsets: np.ndarray, item_size: int) -> List[tuple]:
    """How :meth:`WorldNeighborCollective.exchange` cuts a flat result
    delimited by ``offsets`` into per-rank views: ``(cut, shape)`` pieces in
    rank order.

    Every run of at least :data:`MIN_RUN` consecutive ranks that receive the
    same number ``L`` of items is one piece, the run's slice of the result
    and its shape ``(k, L)`` (``(k, L, item_size)`` for wider items), with
    an explicit ``L`` so that a run of empty ranks reshapes too.  The ranks
    between such runs are one piece: a list of their slices, and ``None``.
    Only those ranks get a slice of their own: the periodic 64×64 halo is
    one piece, and one slice.
    """
    lengths = np.diff(offsets)
    starts = np.flatnonzero(np.diff(lengths, prepend=-1))
    stops = np.append(starts[1:], lengths.size)
    long = stops - starts >= MIN_RUN
    bounds = offsets.tolist()

    def slices(first: int, stop: int) -> list:
        return list(map(slice, bounds[first:stop], bounds[first + 1:stop + 1]))

    cuts = []
    rank = 0
    for start, stop in zip(starts[long].tolist(), stops[long].tolist()):
        if rank < start:
            cuts.append((slices(rank, start), None))
        shape = (stop - start, bounds[start + 1] - bounds[start], item_size)
        cuts.append((slice(bounds[start], bounds[stop]),
                     shape if item_size > 1 else shape[:2]))
        rank = stop
    if rank < lengths.size:
        cuts.append((slices(rank, lengths.size), None))
    return cuts


class WorldNeighborCollective:
    """Every rank's persistent handle, as one world-stepped collective.

    The collective holds *every* rank's share of the compiled world program
    and executes a whole iteration for the whole communicator through the
    batched :class:`~repro.simmpi.engine.ExchangeEngine` — O(phases) numpy
    calls.  Rank ``r`` receives the value its source owns for every entry of
    ``recv_item_ids(r)``, and an attached profiler records exactly the plan's
    messages (one per phase-table row, self-messages dropped).

    ``exchange_flat`` is the engine's native form: one flat array of every
    rank's owned values (``world.owned_items_all`` order) in, one of received
    values (``world.result_items_all`` order) out.  ``exchange`` also takes
    one array per rank and returns one view per rank (``recv_item_ids``).

    ``vector_length=n`` registers the exchange *on the caller's vector*
    (:meth:`ExchangeEngine.register`): a round is ``engine.run(handle, x)``
    and returns the engine's round buffer; ``exchange``, and a per-rank list
    given to ``exchange_flat``, raise :class:`ValidationError`.

    ``engine`` is the execution configuration — its runtime, worker count
    and traffic profiler; a caller who wants the traffic accounted passes
    an engine that has a profiler.  Without one the collective creates a
    private engine on ``runtime`` / ``n_workers`` (``"engine"``
    single-process, ``"procs"`` shared-memory worker pool); they cannot be
    combined with a shared ``engine``, which already fixed its runtime.
    ``close`` (or using the collective as a context manager) releases a
    private engine's workers and shared segments deterministically — a
    shared engine is left to its owner.
    """

    def __init__(self, plan: CollectivePlan, *,
                 engine: ExchangeEngine | None = None,
                 runtime: str | None = None,
                 n_workers: int | None = None,
                 vector_length: int | None = None):
        if engine is not None and (runtime is not None or n_workers is not None):
            raise ValidationError(
                "a shared engine already fixed its runtime; pass runtime/"
                "n_workers only when the collective creates its own engine"
            )
        self.plan = plan
        self.variant = plan.variant
        # Planner-built plans carry a content token, so the compiled world
        # program can be served from (and feed) the plan/exchange cache; a
        # hit is byte-identical to the cold compile and registration never
        # mutates it, so one world may back many collectives/engines.
        world = plan_cache.fetch_world(plan)
        if world is None:
            world = compile_world_exchange(plan)
            plan_cache.store_world(plan, world)
        self.world: WorldExchange = world
        self.spec: ExchangeSpec = world.spec
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else \
            ExchangeEngine(self.world.n_ranks, runtime=runtime,
                           n_workers=n_workers)
        self._handle = self.engine.register(self.world,
                                            vector_length=vector_length)
        # How a list round cuts the flat result (a bound vector has none).
        self._result_cuts = None if vector_length is not None \
            else result_cuts(self.world.result_offsets, self.spec.item_size)

    @property
    def handle(self) -> int:
        """This collective's registration handle on :attr:`engine`."""
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
        """One full iteration for every rank; one result view per rank.

        ``values`` is the flat array :meth:`exchange_flat` takes, or one
        array per rank in ``owned_item_ids`` order.  A list or tuple of exact
        ``ndarray`` s of :attr:`dtype`, each of shape ``(n_owned,)``
        (``(n_owned, item_size)`` for wider items), is checked and loaded by
        C-level calls with no per-rank Python work; any other per-rank form
        (casts, nested lists, ``(n_owned, 1)`` columns, subclasses) is still
        accepted through the engine's checked per-rank path.

        The views are cut from the round's one fresh result array by runs,
        not by ranks (:func:`result_cuts`): a long run of ranks that receive
        equally many items is one reshape, whose rows numpy makes in C, and
        every other rank one prebuilt slice.
        """
        if self._result_cuts is None:
            raise ValidationError(
                "this collective is bound to a vector: run engine.run(handle, "
                "x) and read the halo at engine.halo_rows(handle)")
        flat = self.exchange_flat(values)
        views: List[np.ndarray] = []
        for cut, shape in self._result_cuts:
            views.extend(flat[cut].reshape(shape) if shape is not None
                         else [flat[span] for span in cut])
        return views

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
