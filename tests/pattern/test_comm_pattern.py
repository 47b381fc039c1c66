"""Unit tests for CommPattern and its builders."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.pattern.builders import (
    halo_exchange_pattern,
    pattern_from_edges,
    random_pattern,
)
from repro.pattern.comm_pattern import CommPattern
from repro.utils.errors import ValidationError
from oracles import edge_maps, patterns_equivalent


class TestCommPatternBasics:
    def test_columns_list_each_sources_edges_in_destination_order(self):
        pattern = pattern_from_edges(4, [(0, 3, [13]), (2, 1, [12]), (0, 1, [10, 11])])
        assert [column.tolist() for column in pattern.csr()] == [
            [0, 2, 2, 3, 3], [1, 3, 1], [0, 2, 3, 4], [10, 11, 13, 12]]
        assert pattern.edge_sources().tolist() == [0, 0, 2]

    def test_empty_edges_dropped(self):
        pattern = CommPattern(3, {0: {1: [], 2: [5]}})
        assert pattern.csr()[1].tolist() == [2]
        assert pattern.n_messages == 1

    def test_counts(self):
        pattern = pattern_from_edges(4, [(0, 1, [1, 2]), (1, 0, [3])],
                                     dtype=np.float32)
        assert pattern.n_messages == 2
        assert pattern.total_items == 3
        assert pattern.item_bytes == 4
        assert pattern.total_bytes == 12

    @pytest.mark.parametrize("dtype,item_size", [(np.float32, 3),
                                                 (np.complex128, 1),
                                                 (np.int64, 2)])
    def test_item_bytes_is_derived_from_the_element_type(self, dtype,
                                                         item_size):
        pattern = pattern_from_edges(3, [(0, 1, [1, 2])], dtype=dtype,
                                     item_size=item_size)
        assert pattern.item_bytes == np.dtype(dtype).itemsize * item_size
        # A pickle carries the element type only; the size is derived again.
        state = pattern.__getstate__()
        assert "item_bytes" not in state
        assert pickle.loads(pickle.dumps(pattern)).item_bytes \
            == pattern.item_bytes

    def test_out_of_range_ranks_rejected(self):
        with pytest.raises(ValidationError):
            CommPattern(2, {0: {5: [1]}})
        with pytest.raises(ValidationError):
            CommPattern(2, {7: {0: [1]}})

    def test_active_ranks(self):
        pattern = pattern_from_edges(6, [(0, 3, [1])])
        assert pattern.active_ranks().tolist() == [0, 3]

    def test_equality(self):
        a = pattern_from_edges(3, [(0, 1, [1, 2])])
        b = pattern_from_edges(3, [(0, 1, [1, 2])])
        c = pattern_from_edges(3, [(0, 1, [2, 1])])
        assert a == b
        assert a != c  # order matters for strict equality
        assert patterns_equivalent(a, c)  # but not for equivalence

    def test_equivalence_respects_item_multiplicity(self):
        a = pattern_from_edges(3, [(0, 1, [1, 1, 2])])
        b = pattern_from_edges(3, [(0, 1, [1, 2, 2])])
        assert not patterns_equivalent(a, b)

    def test_equivalence_respects_size_and_item_bytes(self):
        edges = [(0, 1, [1, 2])]
        a = pattern_from_edges(3, edges)
        assert not patterns_equivalent(a, pattern_from_edges(4, edges))
        assert not patterns_equivalent(
            a, pattern_from_edges(3, edges, item_size=2))

    def test_equivalence_detects_missing_edge(self):
        a = pattern_from_edges(3, [(0, 1, [1]), (2, 0, [4])])
        b = pattern_from_edges(3, [(0, 1, [1])])
        assert not patterns_equivalent(a, b)
        assert not patterns_equivalent(b, a)

    def test_edges_deterministic_order(self):
        pattern = pattern_from_edges(4, [(2, 0, [5]), (0, 3, [1]), (0, 1, [2])])
        edges = list(zip(pattern.edge_sources().tolist(),
                         pattern.csr()[1].tolist()))
        assert edges == [(0, 1), (0, 3), (2, 0)]

    def test_repeated_edges_concatenate(self):
        pattern = pattern_from_edges(3, [(0, 1, [1]), (0, 1, [2])])
        assert pattern.n_messages == 1
        assert pattern.csr()[3].tolist() == [1, 2]

    def test_equal_patterns_hash_equal(self):
        a = pattern_from_edges(3, [(0, 1, [1, 2]), (1, 2, [3])])
        b = pattern_from_edges(3, [(0, 1, [1, 2]), (1, 2, [3])])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1                      # usable as dict/set keys
        assert hash(a) != hash(pattern_from_edges(3, [(0, 1, [1, 2])]))

    def test_hash_respects_item_bytes(self):
        a = pattern_from_edges(3, [(0, 1, [1])])
        b = pattern_from_edges(3, [(0, 1, [1])], dtype=np.float32)
        assert a != b
        assert hash(a) != hash(b)

    def test_eq_and_hash_respect_dtype_and_item_size(self):
        # Same wire size (8 bytes/item) but incompatible exchange element types
        # must not collide as dict/set keys.
        a = pattern_from_edges(3, [(0, 1, [1, 2])], dtype=np.float64, item_size=1)
        b = pattern_from_edges(3, [(0, 1, [1, 2])], dtype=np.float32, item_size=2)
        assert a != b
        assert hash(a) != hash(b)

    def test_columns_are_the_read_only_storage_itself(self):
        pattern = pattern_from_edges(4, [(0, 1, [1, 2]), (2, 1, [3])])
        columns = pattern.csr()
        # No per-call copy: every call hands back the stored arrays.
        assert all(a is b for a, b in zip(columns, pattern.csr()))
        assert not any(column.flags.writeable for column in columns)
        with pytest.raises(ValueError):
            columns[3][0] = 99

    def test_caller_array_not_frozen_by_construction(self):
        mine = np.array([4, 5, 6], dtype=np.int64)
        pattern = CommPattern(2, {0: {1: mine}})
        mine[0] = 40                                  # caller's array untouched
        assert pattern.csr()[3].tolist() == [4, 5, 6]

    def test_readonly_view_of_writable_buffer_copied(self):
        base = np.array([4, 5, 6], dtype=np.int64)
        view = base.view()
        view.flags.writeable = False
        pattern = CommPattern(2, {0: {1: view}})
        hash_before = hash(pattern)
        base[0] = 99                                  # mutation through the base
        assert pattern.csr()[3].tolist() == [4, 5, 6]
        assert hash(pattern) == hash_before

    def test_edge_arrays_expand_pattern(self):
        pattern = pattern_from_edges(4, [(0, 1, [1, 2]), (2, 3, [3])])
        origins, dests, items = pattern.edge_arrays()
        assert origins.tolist() == [0, 0, 2]
        assert dests.tolist() == [1, 1, 3]
        assert items.tolist() == [1, 2, 3]
        assert pattern.edge_arrays() is not None     # cached path
        assert not items.flags.writeable

    def test_unique_edge_table_dedups_within_edge(self):
        pattern = pattern_from_edges(4, [(1, 0, [5, 5, 4]), (0, 1, [9])])
        origins, dests, items = pattern.unique_edge_table()
        assert origins.tolist() == [0, 1, 1]
        assert dests.tolist() == [1, 0, 0]
        assert items.tolist() == [9, 4, 5]


class TestRandomPattern:
    def test_deterministic_for_seed(self):
        assert patterns_equivalent(random_pattern(16, seed=9), random_pattern(16, seed=9))

    def test_different_seeds_differ(self):
        a, b = random_pattern(16, seed=1), random_pattern(16, seed=2)
        assert not patterns_equivalent(a, b)

    def test_no_self_messages(self):
        pattern = random_pattern(16, seed=3)
        assert np.all(pattern.edge_sources() != pattern.csr()[1])

    def test_items_owned_by_sender(self):
        pattern = random_pattern(8, items_per_rank=16, seed=5)
        origins, _, items = pattern.edge_arrays()
        assert np.all(items // 16 == origins)

    def test_duplicate_fraction_controls_sharing(self):
        """Higher duplicate_fraction -> larger share of transfers that are duplicates
        (i.e. more payload the deduplicating collective can remove)."""
        def duplicate_share(fraction):
            pattern = random_pattern(8, duplicate_fraction=fraction, seed=6)
            transfers = 0
            duplicates = 0
            for sends in edge_maps(pattern)[0]:
                seen = {}
                for dest, items in sends.items():
                    for item in items.tolist():
                        seen.setdefault(item, set()).add(dest)
                        transfers += 1
                duplicates += sum(len(dests) - 1 for dests in seen.values())
            return duplicates / transfers

        assert duplicate_share(0.9) > duplicate_share(0.0)

    def test_single_rank_pattern_is_empty(self):
        assert random_pattern(1, seed=0).n_messages == 0

    def test_invalid_duplicate_fraction(self):
        with pytest.raises(ValidationError):
            random_pattern(4, duplicate_fraction=1.5)


class TestHaloPattern:
    def test_interior_rank_has_four_neighbors(self):
        pattern = halo_exchange_pattern((4, 4), points_per_cell=8)
        interior = 1 * 4 + 1
        assert np.diff(pattern.csr()[0])[interior] == 4

    def test_corner_rank_has_two_neighbors(self):
        pattern = halo_exchange_pattern((4, 4), points_per_cell=8)
        assert np.diff(pattern.csr()[0])[0] == 2

    def test_periodic_gives_four_neighbors_everywhere(self):
        pattern = halo_exchange_pattern((4, 4), points_per_cell=8, periodic=True)
        assert np.diff(pattern.csr()[0]).tolist() == [4] * 16

    def test_message_sizes_uniform(self):
        pattern = halo_exchange_pattern((3, 3), points_per_cell=10, width=2)
        assert set(pattern.edge_item_counts().tolist()) == {20}

    def test_symmetry(self):
        pattern = halo_exchange_pattern((4, 4))
        edges = set(zip(pattern.edge_sources().tolist(),
                        pattern.csr()[1].tolist()))
        assert edges == {(dest, src) for src, dest in edges}  # symmetric neighbours


def test_pattern_from_edges_makes_as_many_calls_with_4x_the_items(count_calls):
    """Pattern construction is per-edge work, never per-item work.

    A 1024-rank irregular pattern's edge triples are assembled into a pattern
    with its columnar edge table (``edge_arrays()``) through the production
    CSR path (``pattern_from_edges`` -> ``CommPattern.from_edge_lists``),
    once as generated and once with every item list four times longer.  The
    seed's build extended nested dicts item by item (kept as the oracle of
    ``tests/collectives/test_construction_equivalence.py``); the CSR build
    converts each edge's list with one array call and canonicalises all
    edges with one stable lexsort, so both builds make the same number of
    Python + C calls — about eleven per edge, whatever the items.
    """
    n_ranks = 1024
    base = random_pattern(n_ranks, avg_neighbors=16, avg_items_per_message=48,
                          duplicate_fraction=0.4, seed=11)
    triples = [(src, dest, items)
               for src, sends in enumerate(edge_maps(base)[0])
               for dest, items in sends.items()]
    longer = [(src, dest, (4 * items[:, None] + np.arange(4)).ravel())
              for src, dest, items in triples]
    assert pattern_from_edges(n_ranks, longer).total_items \
        == 4 * base.total_items
    counts = [count_calls(lambda edges=edges:
                          pattern_from_edges(n_ranks, edges).edge_arrays())
              for edges in (triples, longer)]
    assert counts[0] == counts[1], counts


def test_a_pickled_pattern_hashes_like_an_equal_one_in_another_process():
    """A pattern's hash is a hash of bytes, which differs between processes:
    a pickle must not carry it, or a pattern loaded elsewhere (the disk plan
    cache) equals a fresh one yet misses it as a dict key."""
    pattern = halo_exchange_pattern((4, 4))
    hash(pattern)
    code = ("import pickle, sys\n"
            "from repro.pattern.builders import halo_exchange_pattern\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = halo_exchange_pattern((4, 4))\n"
            "print(loaded == fresh, {fresh: 1}.get(loaded))\n")
    env = dict(os.environ, PYTHONHASHSEED="123",
               PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code],
                            input=pickle.dumps(pattern), capture_output=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().split() == ["True", "1"]
