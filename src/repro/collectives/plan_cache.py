"""In-process cache for collective plans and compiled world exchanges.

Setup at scale pays two distinct costs: *planning* (pattern → message
schedule) and *world compilation* (plan → checked hops, each phase's
message columns and the one-gather result view).  Both are pure functions
of content — a pattern's CSR columns and element type, the
rank mapping and the variant/strategy — so drivers that
rebuild the same problem (the figure harness, repeated ``WorldVCycle``
setups, every warm re-run of a weak-scaling sweep) can reuse earlier results
instead of recompiling.

The cache is one LRU per kind (plans, worlds) of
:data:`MEMORY_CACHE_SIZE` entries, keyed on the live objects —
:class:`~repro.pattern.comm_pattern.CommPattern` hashes by content, the
mapping contributes its placement token.  It lives and dies with the
process, as a persistent collective's set-up does in the paper;
``make_plan(..., use_cache=False)`` bypasses it and
:func:`clear_plan_cache` empties it.

Cache hits are byte-identical to cold compiles (the golden cache tests pin
this).  A cached :class:`~repro.collectives.exchange.WorldExchange` is the
program the engine runs, so a hit is re-registered with any engine runtime
without renumbering anything — registration validates it, remaps its head,
and never mutates it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Tuple

#: Entries kept per kind (plans and worlds count separately).
MEMORY_CACHE_SIZE = 128


class _LRUCache:
    """A tiny thread-safe LRU keyed on hashable content tuples."""

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


_plan_lru = _LRUCache(MEMORY_CACHE_SIZE)
_world_lru = _LRUCache(MEMORY_CACHE_SIZE)


# -- content keys -----------------------------------------------------------------


def _strategy_token(strategy) -> str:
    """Stable string form of a balance strategy (enum value or repr)."""
    if strategy is None:
        return "none"
    value = getattr(strategy, "value", strategy)
    return str(value)


def mapping_token(mapping) -> Tuple:
    """Hashable content token of a :class:`RankMapping` placement.

    A mapping has no content ``__hash__`` of its own; its cache identity is
    the machine geometry plus the rank→core placement array — everything the
    planner's locality queries can observe.
    """
    machine = mapping.machine
    return (machine.name, machine.nodes, machine.sockets_per_node,
            machine.cores_per_socket, mapping.n_ranks, mapping.kind.value,
            mapping.region_kind, mapping.ranks_per_node,
            mapping.cores_array().tobytes())


def plan_key(pattern, mapping, variant, strategy) -> Tuple:
    """In-process cache key of a plan: pattern content + mapping + protocol.

    The unaggregated variants ignore the balance strategy, so it is
    normalised out of their key — ``standard`` plans built under different
    strategies are the same plan.
    """
    from repro.collectives.plan import Variant

    variant = Variant(variant)
    if variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        strategy = None
    return (pattern, mapping_token(mapping), variant.value,
            _strategy_token(strategy))


# -- public fetch/store API --------------------------------------------------------


def fetch_plan(pattern, mapping, variant, strategy):
    """A cached plan for the key, or ``None``."""
    return _plan_lru.get(plan_key(pattern, mapping, variant, strategy))


def store_plan(plan) -> None:
    """Cache a freshly built plan."""
    _plan_lru.put(plan_key(plan.pattern, plan.mapping, plan.variant,
                           plan.strategy), plan)


def fetch_world(plan):
    """A cached world exchange of ``plan``, or ``None``.

    A world is keyed by its plan's :func:`plan_key` token: the pattern in it
    carries the element type, which sets the wire sizes.  Plans without a
    ``cache_token`` (phase tables assembled by hand) are uncacheable: the
    inputs alone do not determine their message schedule, so serving a
    cached world for them could be wrong.
    """
    key = plan.cache_token
    return None if key is None else _world_lru.get(key)


def store_world(plan, world) -> None:
    """Cache a freshly compiled world exchange."""
    key = plan.cache_token
    if key is not None:
        _world_lru.put(key, world)


def clear_plan_cache() -> None:
    """Empty both LRUs and reset their counters."""
    _plan_lru.clear()
    _world_lru.clear()


def plan_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of both LRUs (for tests and benchmarks)."""
    return {
        "plan_memory_hits": _plan_lru.hits,
        "plan_memory_misses": _plan_lru.misses,
        "world_memory_hits": _world_lru.hits,
        "world_memory_misses": _world_lru.misses,
    }
