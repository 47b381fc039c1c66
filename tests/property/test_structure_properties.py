"""Property-based tests for patterns, partitions, and cost models."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.pattern.builders import pattern_from_edges
from repro.perfmodel.locality import LocalityAwareModel, LocalityParameters
from repro.sparse.partition import RowPartition
from repro.topology.machine import Locality
from repro.topology.presets import paper_mapping
from repro.utils.arrays import counts_to_displs, partition_evenly
from oracles import PostalModel


# ---------------------------------------------------------------------------
# Array helpers
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
def test_counts_displs_roundtrip(counts):
    assert np.diff(counts_to_displs(counts)).tolist() == counts


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=64))
def test_partition_evenly_conserves_and_balances(total, parts):
    offsets = partition_evenly(total, parts)
    sizes = np.diff(offsets)
    assert sizes.sum() == total
    assert sizes.max() - sizes.min() <= 1
    assert np.all(sizes >= 0)


# ---------------------------------------------------------------------------
# Row partitions
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=100))
def test_row_partition_owner_consistent_with_ranges(n_rows, n_ranks):
    partition = RowPartition.even(n_rows, n_ranks)
    probe = np.unique(np.clip(np.array([0, n_rows // 3, n_rows // 2, n_rows - 1]),
                              0, n_rows - 1))
    for row in probe:
        owner = partition.owner_of(int(row))
        first, last = partition.row_range(owner)
        assert first <= row < last


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

edge_triples = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11),
              st.lists(st.integers(0, 30), max_size=5)),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(edge_triples)
def test_pattern_columns_are_the_edges_merged_in_call_order(edges):
    """One edge per distinct ``(src, dest)`` with items, in ascending
    order, carrying every item given for the pair in call order."""
    pattern = pattern_from_edges(12, edges)
    merged = {}
    for src, dest, items in sorted(edges, key=lambda edge: edge[:2]):
        merged.setdefault((src, dest), []).extend(items)
    merged = {pair: items for pair, items in merged.items() if items}
    _, dests, item_offsets, items = pattern.csr()
    pairs = list(zip(pattern.edge_sources().tolist(), dests.tolist()))
    assert pairs == list(merged)
    assert [items[a:b].tolist() for a, b in
            zip(item_offsets[:-1], item_offsets[1:])] == list(merged.values())


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 22), st.integers(min_value=0, max_value=1 << 22),
       st.sampled_from([Locality.INTRA_SOCKET, Locality.INTER_SOCKET, Locality.INTER_NODE]))
def test_models_monotone_in_message_size(a, b, locality):
    small, large = sorted((a, b))
    for model in (PostalModel(), LocalityAwareModel()):
        assert model.message_time(small, locality) <= model.message_time(large, locality)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=64), st.integers(min_value=1, max_value=16))
def test_mapping_regions_partition_ranks(n_ranks, ranks_per_node):
    mapping = paper_mapping(n_ranks, ranks_per_node=min(ranks_per_node, n_ranks))
    seen = []
    for region in range(mapping.n_regions):
        seen.extend(mapping.ranks_in_region(region).tolist())
    assert sorted(seen) == list(range(n_ranks))
