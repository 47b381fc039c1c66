"""Construction-equivalence tests: CSR-native builds vs the dict-build reference.

The CSR-native pattern construction must be a pure storage/performance
change: for every producer — edge-list builder, random generator, halo
builder and ParCSR halo pattern (``A``, ``P`` and ``Pᵀ``) — and for every
constructor route (``from_edge_lists``, ``pattern_from_edges`` and the dict
constructor, all merging repeated edges in ``group_rows_to_csr``) the CSR
build has to produce *byte-identical* ``csr()`` / ``edge_arrays()`` /
``unique_edge_table()`` columns, equal patterns (``__eq__``/``__hash__``
invariant across construction routes), identical plan phases, and identical
statistics to the seed's edge-by-edge dict construction, which is preserved
in ``reference_pattern.py`` for exactly this comparison.
"""

import numpy as np
import pytest

from reference_pattern import (
    DictPattern,
    reference_halo_pattern,
    reference_pattern_from_edges,
    reference_random_pattern,
)

from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.builders import (
    halo_exchange_pattern,
    pattern_from_edges,
    random_pattern,
)
from repro.pattern.comm_pattern import CommPattern
from repro.amg.hierarchy import build_hierarchy
from repro.sparse import comm_pkg, pattern_from_parcsr, strong_scaling_problem
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

EDGE_TRIPLES = [
    (0, 4, [100, 100, 101]), (0, 5, [100]), (1, 1, [7, 7, 8]),
    (2, 5, [120]), (0, 1, [103]), (3, 12, [130]),
    (0, 4, [99]),                       # repeated (src, dest): concatenates
]

#: Empty item arrays: dropped alone, and a no-op beside a repeated pair.
EMPTY_ITEM_TRIPLES = [
    (0, 1, []), (2, 3, [5]), (2, 3, []), (0, 2, [4, 4]), (3, 0, []),
    (0, 2, []), (2, 3, [6, 5]), (1, 0, np.empty(0, dtype=np.int64)),
]

#: The raw edges each edge-list case feeds the constructors; every other
#: case feeds its reference's (already merged) edges.
RAW_TRIPLES = {"edges": EDGE_TRIPLES, "edges-empty-items": EMPTY_ITEM_TRIPLES}


def reference_sends_from_parcsr(matrix):
    """Seed comm-package send side: per-rank, per-owner dict assembly.

    Needed columns are read off each rank's own rows and their owners come
    from the *column* partition, so grid transfers resolve correctly.
    """
    partition = matrix.col_partition
    sends = {}
    for rank in range(partition.n_ranks):
        first, last = matrix.partition.row_range(rank)
        col_first, col_last = partition.row_range(rank)
        cols = np.unique(matrix.matrix[first:last].indices).astype(np.int64)
        needed = cols[(cols < col_first) | (cols >= col_last)]
        owners = partition.owners_of(needed)
        for owner in np.unique(owners):
            sends.setdefault(int(owner), {})[rank] = needed[owners == owner]
    return sends


def reference_pattern_from_parcsr(matrix) -> DictPattern:
    """Seed ``pattern_from_parcsr``: dict-built SpMV pattern of ``matrix``."""
    return DictPattern(matrix.n_ranks, reference_sends_from_parcsr(matrix))


def assert_tables_identical(csr_pattern: CommPattern, reference: DictPattern):
    """Byte-identical columnar tables between the CSR build and the dict build."""
    for ours, theirs in zip(csr_pattern.edge_arrays(), reference.edge_arrays()):
        assert ours.dtype == theirs.dtype == np.int64
        np.testing.assert_array_equal(ours, theirs)
        assert ours.tobytes() == theirs.tobytes()
    for ours, theirs in zip(csr_pattern.unique_edge_table(),
                            reference.unique_edge_table()):
        assert ours.tobytes() == theirs.tobytes()


def _parcsr_pair(operator):
    """CSR build vs the dict build on a cache-free twin (its own per-rank split)."""
    return lambda: (pattern_from_parcsr(operator()),
                    reference_pattern_from_parcsr(operator()))


def _transfer(name):
    hierarchy = build_hierarchy(strong_scaling_problem(1024, 8).matrix, seed=1)
    return getattr(hierarchy, name)(0)


CASES = {
    "edges": lambda: (pattern_from_edges(16, EDGE_TRIPLES),
                      reference_pattern_from_edges(16, EDGE_TRIPLES)),
    "random-low-dup": lambda: (
        random_pattern(32, avg_neighbors=7, duplicate_fraction=0.1, seed=21),
        reference_random_pattern(32, avg_neighbors=7, duplicate_fraction=0.1,
                                 seed=21)),
    "random-high-dup": lambda: (
        random_pattern(48, avg_neighbors=9, duplicate_fraction=0.7, seed=22),
        reference_random_pattern(48, avg_neighbors=9, duplicate_fraction=0.7,
                                 seed=22)),
    "halo": lambda: (halo_exchange_pattern((4, 4), points_per_cell=6),
                     reference_halo_pattern((4, 4), points_per_cell=6)),
    "halo-periodic": lambda: (
        halo_exchange_pattern((2, 3), points_per_cell=4, periodic=True),
        reference_halo_pattern((2, 3), points_per_cell=4, periodic=True)),
    "edges-empty-items": lambda: (
        pattern_from_edges(4, EMPTY_ITEM_TRIPLES),
        reference_pattern_from_edges(4, EMPTY_ITEM_TRIPLES)),
    # One and two ranks a side: two faces reach the same neighbor, and the
    # last face wins.
    "halo-periodic-1x2": lambda: (
        halo_exchange_pattern((1, 2), points_per_cell=3, periodic=True),
        reference_halo_pattern((1, 2), points_per_cell=3, periodic=True)),
    "halo-periodic-2x2": lambda: (
        halo_exchange_pattern((2, 2), points_per_cell=3, periodic=True),
        reference_halo_pattern((2, 2), points_per_cell=3, periodic=True)),
    "empty": lambda: (pattern_from_edges(8, []),
                      reference_pattern_from_edges(8, [])),
    "parcsr": _parcsr_pair(lambda: strong_scaling_problem(4096, 16).matrix),
    "parcsr-prolongation": _parcsr_pair(lambda: _transfer("prolongation_matrix")),
    "parcsr-restriction": _parcsr_pair(lambda: _transfer("restriction_matrix")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csr_build_matches_dict_build_tables(case):
    csr_pattern, reference = CASES[case]()
    assert_tables_identical(csr_pattern, reference)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_construction_route_gives_the_reference_columns(case):
    """The builder, ``from_edge_lists``, ``pattern_from_edges`` and the dict
    constructor each store the dict build's ``csr()`` columns, byte for
    byte: repeated pairs concatenate in call order, empty item arrays drop."""
    csr_pattern, reference = CASES[case]()
    n_ranks = reference.n_ranks
    triples = RAW_TRIPLES.get(case, list(reference.edges()))
    srcs, dests, item_arrays = zip(*triples) if triples else ((), (), ())
    # The dict route gets each raw pair once, with its merged items (empty
    # for a pair whose items were all empty).
    sends = {}
    for src, dest, _ in triples:
        sends.setdefault(src, {})[dest] = \
            reference.sends.get(src, {}).get(dest, [])
    routes = {
        "builder": csr_pattern,
        "from_edge_lists": CommPattern.from_edge_lists(n_ranks, srcs, dests,
                                                       item_arrays),
        "pattern_from_edges": pattern_from_edges(n_ranks, triples),
        "dict": CommPattern(n_ranks, sends),
    }
    expected = [(column.dtype, column.tobytes()) for column in reference.csr()]
    for route, pattern in routes.items():
        assert [(column.dtype, column.tobytes())
                for column in pattern.csr()] == expected, route


@pytest.mark.parametrize("case", sorted(CASES))
def test_eq_and_hash_invariant_across_construction_routes(case):
    """A pattern built through the dict-mapping constructor equals (and hashes
    with) the same pattern built through the CSR-native route."""
    csr_pattern, reference = CASES[case]()
    dict_route = CommPattern(csr_pattern.n_ranks, reference.sends)
    assert dict_route == csr_pattern
    assert hash(dict_route) == hash(csr_pattern)
    assert len({dict_route, csr_pattern}) == 1
    # Metadata still differentiates:
    assert dict_route != CommPattern(csr_pattern.n_ranks, reference.sends,
                                     dtype=np.float32)
    assert dict_route != CommPattern(csr_pattern.n_ranks, reference.sends,
                                     item_size=2)


@pytest.mark.parametrize("case", ["edges", "random-high-dup", "halo", "parcsr"])
@pytest.mark.parametrize("variant", list(Variant))
def test_plans_identical_across_construction_routes(case, variant):
    """Plan phases and statistics must not depend on the construction route."""
    csr_pattern, reference = CASES[case]()
    dict_route = CommPattern(csr_pattern.n_ranks, reference.sends)
    mapping = paper_mapping(csr_pattern.n_ranks, ranks_per_node=4)
    plan = make_plan(csr_pattern, mapping, variant)
    twin = make_plan(dict_route, mapping, variant, use_cache=False)
    assert plan.phases == twin.phases
    assert plan.self_deliveries == twin.self_deliveries
    ours, theirs = plan.statistics(), twin.statistics()
    for field in ("local_messages", "global_messages", "local_bytes",
                  "global_bytes"):
        np.testing.assert_array_equal(getattr(ours, field),
                                      getattr(theirs, field), err_msg=field)
    twin.validate()


class TestCsrConstructor:
    """Validation of the CSR-native constructor."""

    def _columns(self):
        src_offsets = np.array([0, 2, 3, 3], dtype=np.int64)
        dests = np.array([1, 2, 0], dtype=np.int64)
        item_offsets = np.array([0, 2, 3, 5], dtype=np.int64)
        items = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        return src_offsets, dests, item_offsets, items

    def test_round_trip(self):
        pattern = CommPattern.from_csr(3, *self._columns())
        assert all(np.array_equal(ours, theirs) for ours, theirs
                   in zip(pattern.csr(), self._columns()))
        assert pattern == CommPattern(3, {0: {1: [10, 11], 2: [12]},
                                          1: {0: [13, 14]}})

    def test_items_column_is_stored_zero_copy(self):
        pattern = CommPattern.from_csr(3, *self._columns())
        _, _, items = pattern.edge_arrays()
        assert items is pattern.csr()[3]
        assert not items.flags.writeable

    def test_frozen_producer_columns_stored_without_copy(self, monkeypatch):
        """Producers that freeze their columns share storage with the pattern."""
        matrix = strong_scaling_problem(1024, 8).matrix
        produced = []
        group = comm_pkg.group_rows_to_csr
        monkeypatch.setattr(comm_pkg, "group_rows_to_csr", lambda *rows: (
            produced.append(group(*rows)), produced[-1])[1])
        pattern = pattern_from_parcsr(matrix)
        assert len(produced) == 1 and pattern.n_messages
        for produced_column, pattern_column in zip(produced[0], pattern.csr()):
            assert pattern_column is produced_column

    def test_rejects_inconsistent_offsets(self):
        src_offsets, dests, item_offsets, items = self._columns()
        with pytest.raises(ValidationError):
            CommPattern.from_csr(3, src_offsets[:-1], dests, item_offsets, items)
        with pytest.raises(ValidationError):
            CommPattern.from_csr(3, src_offsets, dests, item_offsets[:-1], items)
        with pytest.raises(ValidationError):
            CommPattern.from_csr(3, src_offsets, dests, item_offsets, items[:-1])

    def test_rejects_unsorted_or_duplicate_dests(self):
        src_offsets, dests, item_offsets, items = self._columns()
        bad = dests.copy()
        bad[0], bad[1] = 2, 1                      # descending within segment
        with pytest.raises(ValidationError):
            CommPattern.from_csr(3, src_offsets, bad, item_offsets, items)
        bad[0], bad[1] = 1, 1                      # duplicate edge
        with pytest.raises(ValidationError):
            CommPattern.from_csr(3, src_offsets, bad, item_offsets, items)

    def test_rejects_empty_edges_and_bad_ranks(self):
        src_offsets, dests, item_offsets, items = self._columns()
        empty_edge = np.array([0, 0, 3, 5], dtype=np.int64)
        with pytest.raises(ValidationError):
            CommPattern.from_csr(3, src_offsets, dests, empty_edge, items)
        bad_dest = dests.copy()
        bad_dest[2] = 7
        with pytest.raises(ValidationError):
            CommPattern.from_csr(3, src_offsets, bad_dest, item_offsets, items)
