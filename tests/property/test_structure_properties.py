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
from oracles import PostalModel, patterns_equivalent


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

edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11),
              st.lists(st.integers(0, 30), min_size=1, max_size=5)),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_pattern_transpose_is_involution(edges):
    pattern = pattern_from_edges(12, edges)
    assert patterns_equivalent(pattern.transpose().transpose(), pattern)


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_pattern_conserves_items_under_transpose(edges):
    pattern = pattern_from_edges(12, edges)
    assert pattern.total_items == pattern.transpose().total_items
    assert pattern.n_messages == pattern.transpose().n_messages


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_send_and_recv_views_agree(edges):
    pattern = pattern_from_edges(12, edges)
    for src, dest, _ in pattern.edges():
        assert pattern.send_items(src, dest).tolist() == \
            pattern.recv_items(dest, src).tolist()


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
