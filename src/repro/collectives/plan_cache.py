"""Content-addressed cache for collective plans and compiled world exchanges.

Setup at scale pays two distinct costs: *planning* (pattern → message
schedule) and *world compilation* (plan → concatenated gather/scatter/wire
programs).  Both are pure functions of content — a pattern's CSR columns, the
rank mapping, the variant/strategy, and the element spec — so drivers that
rebuild the same problem (the figure harness, repeated ``WorldVCycle``
setups, every warm re-run of a weak-scaling sweep) can reuse earlier results
instead of recompiling.

Two tiers share one content key:

* an **in-process LRU** (always on) keyed on the live objects —
  :class:`~repro.pattern.comm_pattern.CommPattern` hashes by content, the
  mapping contributes its placement token — serving repeated setups inside
  one driver process, and
* an optional **on-disk store** under ``REPRO_PLAN_CACHE=<dir>`` persisting
  pickled plans/worlds across processes and runs.  Entries are
  content-addressed by a SHA-256 digest of the full key, carry a format
  version, and are *verified on load*: a corrupted, truncated, or
  stale-format file is discarded with a :class:`PlanCacheWarning` and the
  caller recompiles — a cache can produce a miss, never a wrong result.

Cache hits are byte-identical to cold compiles (the golden cache tests pin
this).  A cached :class:`~repro.collectives.exchange.WorldExchange` is the
program the engine runs, so a hit is re-registered with any engine runtime
without renumbering anything — registration validates it, remaps its head,
and never mutates it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import warnings
from collections import OrderedDict
from typing import Any, Dict, Tuple

import numpy as np

#: Environment variable naming the on-disk cache directory (absent = no disk).
ENV_VAR = "REPRO_PLAN_CACHE"

#: Bump when the pickled layout of plans/worlds changes; older on-disk
#: entries are then discarded as stale instead of being unpickled blindly.
CACHE_FORMAT_VERSION = 5

#: Entries kept per in-process tier (plans and worlds count separately).
MEMORY_CACHE_SIZE = 128

_MAGIC = b"repro-plan-cache"


class PlanCacheWarning(UserWarning):
    """Structured warning for discarded (corrupted or stale) cache entries."""


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
_disk_hits = 0
_disk_misses = 0


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


def world_key(plan, spec) -> Tuple | None:
    """In-process cache key of a compiled world exchange, or ``None``.

    Extends the plan's :func:`plan_key` token with the element spec —
    ``(dtype, item_size)`` changes the wire sizes — and the rank count
    (already implied by the pattern, kept explicit per the cache-key
    contract).  Plans without a ``cache_token`` (hand-built ``phases``
    dicts) are uncacheable: the inputs alone do not determine their message
    schedule, so serving a cached world for them could be wrong.
    """
    if plan.cache_token is None:
        return None
    return (plan.cache_token
            + (spec.dtype.str, int(spec.item_size), plan.pattern.n_ranks))


def _digest(kind: str, key: Tuple) -> str:
    """SHA-256 content digest of a cache key, stable across processes.

    ``hash()`` of the in-process key is salted per interpreter
    (``PYTHONHASHSEED``), so the on-disk address re-derives everything from
    raw bytes: the pattern's CSR columns and element meta, the mapping token,
    and the protocol/spec strings.
    """
    pattern = key[0]
    hasher = hashlib.sha256()
    hasher.update(_MAGIC)
    hasher.update(f":v{CACHE_FORMAT_VERSION}:{kind}".encode())
    src_offsets, dests, item_offsets, items = pattern.csr()
    for label, column in (("src_offsets", src_offsets), ("dests", dests),
                          ("item_offsets", item_offsets), ("items", items)):
        hasher.update(label.encode())
        hasher.update(np.ascontiguousarray(column).tobytes())
    hasher.update(f"{pattern.n_ranks}:{pattern.dtype.str}:"
                  f"{pattern.item_size}:{pattern.item_bytes}".encode())
    for part in key[1:]:
        if isinstance(part, tuple):
            for piece in part:
                hasher.update(repr(piece).encode()
                              if not isinstance(piece, bytes) else piece)
        else:
            hasher.update(repr(part).encode())
    return hasher.hexdigest()


# -- on-disk tier -----------------------------------------------------------------


def cache_dir() -> str | None:
    """The configured on-disk cache directory, or ``None`` when disabled."""
    directory = os.environ.get(ENV_VAR, "").strip()
    return directory or None


def _entry_path(directory: str, kind: str, digest: str) -> str:
    return os.path.join(directory, f"{kind}-{digest}.pkl")


def _discard(path: str, reason: str) -> None:
    """Drop a bad on-disk entry with a structured warning; never raise."""
    warnings.warn(
        f"discarding plan-cache entry {os.path.basename(path)}: {reason}",
        PlanCacheWarning, stacklevel=4)
    try:
        os.unlink(path)
    except OSError:
        pass


def _disk_load(kind: str, key: Tuple):
    """Load and verify one on-disk entry; ``None`` on miss or any defect.

    Nothing is hashed unless a cache directory is configured.
    """
    global _disk_hits, _disk_misses
    directory = cache_dir()
    if directory is None:
        return None
    digest = _digest(kind, key)
    path = _entry_path(directory, kind, digest)
    if not os.path.exists(path):
        _disk_misses += 1
        return None
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except Exception as exc:  # noqa: BLE001 - any unpickling defect is a miss
        _discard(path, f"unreadable ({type(exc).__name__}: {exc})")
        _disk_misses += 1
        return None
    if not isinstance(envelope, dict) \
            or envelope.get("format") != CACHE_FORMAT_VERSION:
        _discard(path, "stale cache format")
        _disk_misses += 1
        return None
    if envelope.get("kind") != kind or envelope.get("digest") != digest:
        _discard(path, "content digest mismatch")
        _disk_misses += 1
        return None
    _disk_hits += 1
    return envelope.get("payload")


def _disk_store(kind: str, key: Tuple, payload) -> None:
    """Persist one entry (atomic rename); failures degrade to no caching."""
    directory = cache_dir()
    if directory is None:
        return
    digest = _digest(kind, key)
    try:
        os.makedirs(directory, exist_ok=True)
        path = _entry_path(directory, kind, digest)
        # Unique per writer: concurrent simulated ranks (threads) may store
        # the same digest, and a shared staging path would let one writer's
        # rename snatch the file out from under another's.
        staging = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(staging, "wb") as handle:
            pickle.dump({"format": CACHE_FORMAT_VERSION, "kind": kind,
                         "digest": digest, "payload": payload}, handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(staging, path)
    except OSError as exc:
        warnings.warn(f"plan cache write failed: {exc}", PlanCacheWarning,
                      stacklevel=4)


# -- public fetch/store API --------------------------------------------------------


def fetch_plan(pattern, mapping, variant, strategy):
    """A cached plan for the key, or ``None`` (memory first, then disk)."""
    key = plan_key(pattern, mapping, variant, strategy)
    plan = _plan_lru.get(key)
    if plan is not None:
        return plan
    plan = _disk_load("plan", key)
    if plan is not None:
        _plan_lru.put(key, plan)
    return plan


def store_plan(plan) -> None:
    """Cache a freshly built plan in both tiers."""
    key = plan_key(plan.pattern, plan.mapping, plan.variant, plan.strategy)
    _plan_lru.put(key, plan)
    _disk_store("plan", key, plan)


def fetch_world(plan, spec):
    """A cached world exchange for ``(plan key, spec)``, or ``None``."""
    key = world_key(plan, spec)
    if key is None:
        return None
    world = _world_lru.get(key)
    if world is not None:
        return world
    world = _disk_load("world", key)
    if world is not None:
        _world_lru.put(key, world)
    return world


def store_world(plan, spec, world) -> None:
    """Cache a freshly compiled world exchange in both tiers."""
    key = world_key(plan, spec)
    if key is None:
        return
    _world_lru.put(key, world)
    _disk_store("world", key, world)


def clear_plan_cache(*, disk: bool = False) -> None:
    """Reset the in-process tiers (and optionally delete the disk entries)."""
    global _disk_hits, _disk_misses
    _plan_lru.clear()
    _world_lru.clear()
    _disk_hits = 0
    _disk_misses = 0
    directory = cache_dir()
    if disk and directory and os.path.isdir(directory):
        for name in os.listdir(directory):
            if name.endswith(".pkl") and "-" in name:
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass


def plan_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of every tier (for tests and benchmarks)."""
    return {
        "plan_memory_hits": _plan_lru.hits,
        "plan_memory_misses": _plan_lru.misses,
        "world_memory_hits": _world_lru.hits,
        "world_memory_misses": _world_lru.misses,
        "disk_hits": _disk_hits,
        "disk_misses": _disk_misses,
    }
