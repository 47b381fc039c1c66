"""Unit tests for the traffic profiler's bulk counters."""

import threading

import numpy as np

from repro.simmpi.profiler import TrafficBatch, TrafficProfiler, TrafficRecord
from repro.topology.machine import Locality
from repro.topology.presets import paper_mapping


def _ring(n_ranks):
    """Every rank sends to the next: ``(sources, dests)`` columns."""
    sources = np.arange(n_ranks)
    return sources, (sources + 1) % n_ranks


class TestTrafficProfiler:
    def test_records_locality_and_bytes(self):
        mapping = paper_mapping(8, ranks_per_node=4)
        profiler = TrafficProfiler(mapping)
        # Every rank sends 4 float64 to the next rank (32 bytes each).
        sources, dests = _ring(8)
        profiler.record_batch(sources, dests, np.full(8, 32), tag=1)
        total = profiler.total()
        assert total.message_count == 8
        assert total.byte_count == 8 * 32
        by_locality = profiler.by_locality()
        # Ring over two nodes of four ranks: 6 intra-node hops, 2 inter-node.
        assert by_locality[Locality.INTRA_SOCKET].message_count == 6
        assert by_locality[Locality.INTER_NODE].message_count == 2

    def test_per_rank_and_maxima(self):
        mapping = paper_mapping(4, ranks_per_node=4)
        profiler = TrafficProfiler(mapping)
        profiler.record_batch(np.zeros(3, dtype=np.int64), np.array([1, 2, 3]),
                              np.full(3, 16))
        assert profiler.max_messages_per_rank() == 3
        assert set(profiler.per_rank().keys()) == {0}

    def test_clear(self):
        mapping = paper_mapping(2, ranks_per_node=2)
        profiler = TrafficProfiler(mapping)
        profiler.record_batch(np.array([0, 1]), np.array([1, 0]), np.full(2, 8))
        assert profiler.total().message_count > 0
        profiler.clear()
        assert profiler.total().message_count == 0

    def test_inter_region_records(self):
        mapping = paper_mapping(8, ranks_per_node=4)
        profiler = TrafficProfiler(mapping)
        # Rank 0 sends once across the node boundary and once on its node.
        profiler.record_batch(np.array([0, 0]), np.array([7, 1]), np.full(2, 8))
        inter = profiler.inter_region_records()
        assert len(inter) == 1 and inter[0].dest == 7

    def test_by_locality_sums_bytes_per_class(self):
        mapping = paper_mapping(8, ranks_per_node=4)
        profiler = TrafficProfiler(mapping)
        # 0 -> 1 and 0 -> 2 stay on the node; 0 -> 4 and 3 -> 7 leave it.
        profiler.record_batch(np.array([0, 0, 0, 3]), np.array([1, 2, 4, 7]),
                              np.array([8, 16, 32, 64]))
        by_locality = profiler.by_locality()
        assert set(by_locality) == {Locality.INTRA_SOCKET, Locality.INTER_NODE}
        assert by_locality[Locality.INTRA_SOCKET].byte_count == 24
        assert by_locality[Locality.INTER_NODE].byte_count == 96
        assert sum(s.message_count for s in by_locality.values()) == 4

    def test_per_rank_filtered_by_locality(self):
        mapping = paper_mapping(8, ranks_per_node=4)
        profiler = TrafficProfiler(mapping)
        profiler.record_batch(np.array([0, 0, 0, 3]), np.array([1, 2, 4, 7]),
                              np.array([8, 16, 32, 64]))
        inter = profiler.per_rank(localities=[Locality.INTER_NODE])
        assert {rank: (s.message_count, s.byte_count)
                for rank, s in inter.items()} == {0: (1, 32), 3: (1, 64)}
        assert profiler.max_messages_per_rank() == 3
        assert profiler.max_messages_per_rank(localities=[Locality.INTER_NODE]) == 1
        assert profiler.per_rank(localities=[Locality.INTER_SOCKET]) == {}

    def test_without_a_mapping_only_totals_are_known(self):
        profiler = TrafficProfiler()
        sources, dests = _ring(4)
        profiler.record_batch(sources, dests, np.full(4, 8))
        assert profiler.total().message_count == 4
        assert profiler.by_locality() == {}
        assert profiler.per_rank(localities=[Locality.INTER_NODE]) == {}
        assert profiler.inter_region_records() == []
        assert all(record.locality is None for record in profiler.records)
        assert len(profiler.per_rank()) == 4

    def test_empty_profiler(self):
        profiler = TrafficProfiler(paper_mapping(4, ranks_per_node=2))
        total = profiler.total()
        assert (total.message_count, total.byte_count) == (0, 0)
        columns = profiler.data_columns()
        assert all(column.dtype == np.int64 and column.size == 0
                   for column in columns)
        assert len({id(column) for column in columns}) == 3
        assert profiler.records == []
        assert profiler.per_rank() == {}
        assert profiler.max_messages_per_rank() == 0

    def test_a_batch_of_self_messages_records_nothing(self):
        profiler = TrafficProfiler(paper_mapping(4, ranks_per_node=2))
        profiler.record_batch(np.arange(4), np.arange(4), np.full(4, 8))
        assert profiler.records == []
        assert profiler.data_columns()[0].size == 0

    def test_columns_are_stored_as_int64(self):
        profiler = TrafficProfiler()
        profiler.record_batch([0, 1], np.array([1, 0], dtype=np.int32),
                              np.array([8, 8], dtype=np.uint16))
        assert all(column.dtype == np.int64 for column in profiler.data_columns())
        assert profiler.total().byte_count == 16

    def test_records_keep_tags_in_recording_order(self):
        profiler = TrafficProfiler()
        profiler.record_batch(np.array([0]), np.array([1]), np.array([8]), tag=13)
        profiler.record_batch(np.array([2, 1]), np.array([3, 0]),
                              np.array([4, 4]), tag=11)
        assert [(r.source, r.dest, r.tag) for r in profiler.records] == \
            [(0, 1, 13), (2, 3, 11), (1, 0, 11)]

    def test_batch_expands_to_one_record_per_message(self):
        batch = TrafficBatch(sources=np.array([0, 2]), dests=np.array([1, 3]),
                             nbytes=np.array([8, 24]), tag=12,
                             locality_codes=np.array([int(Locality.INTER_NODE),
                                                      int(Locality.INTRA_SOCKET)]))
        assert batch.message_count == 2
        assert batch.expand() == [
            TrafficRecord(0, 1, 12, 8, Locality.INTER_NODE),
            TrafficRecord(2, 3, 12, 24, Locality.INTRA_SOCKET),
        ]

    def test_concurrent_batches_are_all_counted(self):
        """Recording is thread-safe: no batch from a concurrent recorder is lost."""
        profiler = TrafficProfiler(paper_mapping(8, ranks_per_node=4))
        sources, dests = _ring(8)
        n_threads, batches_each = 8, 50

        def recorder():
            for _ in range(batches_each):
                profiler.record_batch(sources, dests, np.full(8, 16))

        threads = [threading.Thread(target=recorder) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = profiler.total()
        assert total.message_count == n_threads * batches_each * 8
        assert total.byte_count == 16 * total.message_count
