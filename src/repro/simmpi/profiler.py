"""Traffic profiling for the simulated runtime.

The profiler records every message an exchange round stands for, classifies
it by locality (when given a :class:`~repro.topology.mapping.RankMapping`),
and produces the per-process and per-class statistics that the integration
tests compare against the pure planner's predictions — if the executed
collectives and the planner ever disagree about how many inter-region bytes
move, something is wrong.

Traffic arrives through one door, :meth:`TrafficProfiler.record_batch`: the
:class:`~repro.simmpi.engine.ExchangeEngine` calls it once per phase with
column arrays describing *all* messages of the phase.  Every recorded
message is data-path traffic; a rank's message to itself moves nothing and
is dropped.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.topology.machine import Locality
from repro.topology.mapping import RankMapping

#: Code order of the vectorized locality classification (``Locality`` values).
_LOCALITY_ORDER = (Locality.SELF, Locality.INTRA_SOCKET,
                   Locality.INTER_SOCKET, Locality.INTER_NODE)


@dataclass(frozen=True)
class TrafficRecord:
    """One observed message."""

    source: int
    dest: int
    tag: int
    nbytes: int
    locality: Optional[Locality]


@dataclass(frozen=True)
class TrafficBatch:
    """Many observed messages of one bulk record (one engine phase).

    Column arrays are parallel: message ``i`` went ``sources[i] ->
    dests[i]`` carrying ``nbytes[i]`` bytes.  ``locality_codes`` holds the
    vectorized classification (``Locality`` integer values) or ``None`` when
    the profiler has no mapping.
    """

    sources: np.ndarray
    dests: np.ndarray
    nbytes: np.ndarray
    tag: int
    locality_codes: Optional[np.ndarray]

    @property
    def message_count(self) -> int:
        """Messages in the batch."""
        return int(self.sources.size)

    def expand(self) -> List[TrafficRecord]:
        """Materialise one :class:`TrafficRecord` per message (query-time only)."""
        localities: List[Optional[Locality]]
        if self.locality_codes is None:
            localities = [None] * self.message_count
        else:
            localities = [_LOCALITY_ORDER[code]
                          for code in self.locality_codes.tolist()]
        return [TrafficRecord(source=s, dest=d, tag=self.tag, nbytes=b,
                              locality=l)
                for s, d, b, l in zip(self.sources.tolist(), self.dests.tolist(),
                                      self.nbytes.tolist(), localities)]


@dataclass
class TrafficSummary:
    """Aggregated counters for one locality class (or for all traffic)."""

    message_count: int = 0
    byte_count: int = 0

    def add_bulk(self, message_count: int, byte_count: int) -> None:
        """Account many messages at once (batch-record accumulation)."""
        self.message_count += int(message_count)
        self.byte_count += int(byte_count)


class TrafficProfiler:
    """Thread-safe collector of sent messages across a simulated world."""

    def __init__(self, mapping: RankMapping | None = None):
        self.mapping = mapping
        self._lock = threading.Lock()
        self._batches: List[TrafficBatch] = []

    # -- recording -----------------------------------------------------------

    def record_batch(self, sources: np.ndarray, dests: np.ndarray,
                     nbytes: np.ndarray, *, tag: int = 0) -> None:
        """Record many messages with one call (the engine's bulk counters).

        ``sources`` / ``dests`` / ``nbytes`` are parallel arrays, one entry
        per message.  Self-messages are dropped element-wise, and locality
        classification runs vectorized, so a phase of ten thousand messages
        costs one Python call, not ten thousand.
        """
        sources = np.asarray(sources, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if not (sources.shape == dests.shape == nbytes.shape):
            raise ValueError("record_batch columns must be parallel arrays")
        keep = sources != dests
        if not keep.all():
            sources, dests, nbytes = sources[keep], dests[keep], nbytes[keep]
        if sources.size == 0:
            return
        codes = None
        if self.mapping is not None:
            codes = self.mapping.locality_codes(sources, dests)
        batch = TrafficBatch(sources=sources, dests=dests, nbytes=nbytes,
                             tag=int(tag), locality_codes=codes)
        with self._lock:
            self._batches.append(batch)

    def clear(self) -> None:
        """Drop all recorded traffic."""
        with self._lock:
            self._batches.clear()

    # -- queries --------------------------------------------------------------

    def _snapshot(self) -> List[TrafficBatch]:
        with self._lock:
            return list(self._batches)

    @property
    def records(self) -> List[TrafficRecord]:
        """All recorded messages, batches expanded in recording order."""
        return [record for batch in self._snapshot() for record in batch.expand()]

    def total(self) -> TrafficSummary:
        """Counters over all recorded messages."""
        summary = TrafficSummary()
        for batch in self._snapshot():
            summary.add_bulk(batch.message_count, int(batch.nbytes.sum()))
        return summary

    def data_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All recorded traffic as ``(sources, dests, nbytes)`` column arrays.

        The bulk view observed-statistics consumers build on (one
        ``np.bincount`` away from per-rank byte counts).
        """
        batches = self._snapshot()
        if not batches:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        return tuple(np.concatenate([getattr(batch, name) for batch in batches])
                     for name in ("sources", "dests", "nbytes"))

    def by_locality(self) -> Dict[Locality, TrafficSummary]:
        """Counters split by locality class (requires a mapping)."""
        summaries: Dict[Locality, TrafficSummary] = defaultdict(TrafficSummary)
        for batch in self._snapshot():
            if batch.locality_codes is None:
                continue
            counts = np.bincount(batch.locality_codes,
                                 minlength=len(_LOCALITY_ORDER))
            bytes_per_class = np.bincount(batch.locality_codes,
                                          weights=batch.nbytes,
                                          minlength=len(_LOCALITY_ORDER))
            for code, locality in enumerate(_LOCALITY_ORDER):
                if counts[code]:
                    summaries[locality].add_bulk(int(counts[code]),
                                                 int(bytes_per_class[code]))
        return dict(summaries)

    def per_rank(self, *, localities: Iterable[Locality] | None = None
                 ) -> Dict[int, TrafficSummary]:
        """Counters of sent traffic per source rank, optionally filtered by class."""
        wanted = set(localities) if localities is not None else None
        # Accumulate columnar, convert once: the filtered (source, nbytes)
        # columns of every batch are concatenated and reduced with a single
        # bincount pair instead of touching a summary dict per record.
        source_parts: List[np.ndarray] = []
        nbyte_parts: List[np.ndarray] = []
        for batch in self._snapshot():
            sources, nbytes = batch.sources, batch.nbytes
            if wanted is not None:
                if batch.locality_codes is None:
                    continue
                keep = np.isin(batch.locality_codes,
                               np.asarray([int(l) for l in wanted]))
                sources, nbytes = sources[keep], nbytes[keep]
            if sources.size:
                source_parts.append(sources)
                nbyte_parts.append(nbytes)
        if not source_parts:
            return {}
        sources = np.concatenate(source_parts)
        nbytes = np.concatenate(nbyte_parts)
        length = int(sources.max()) + 1
        counts = np.bincount(sources, minlength=length)
        byte_counts = np.bincount(sources, weights=nbytes, minlength=length)
        return {int(rank): TrafficSummary(int(counts[rank]),
                                          int(byte_counts[rank]))
                for rank in np.flatnonzero(counts)}

    def max_messages_per_rank(self, *, localities: Iterable[Locality] | None = None) -> int:
        """Maximum number of messages sent by any single rank."""
        per_rank = self.per_rank(localities=localities)
        if not per_rank:
            return 0
        return max(s.message_count for s in per_rank.values())

    def inter_region_records(self) -> List[TrafficRecord]:
        """Messages whose endpoints lie in different aggregation regions."""
        if self.mapping is None:
            return []
        return [r for r in self.records
                if not self.mapping.same_region(r.source, r.dest)]
