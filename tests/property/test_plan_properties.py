"""Property-based tests (hypothesis) for the collective planners.

The central invariant of the whole reproduction: for *any* communication
pattern and *any* rank placement, every planner variant delivers exactly the
set of (origin, item, destination) triples the pattern requires — no losses,
no duplicates, no spurious deliveries — and deduplication never increases any
message size.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.collectives.plan import Phase, Variant
from repro.collectives.planner import all_plans
from repro.pattern.comm_pattern import CommPattern
from repro.perfmodel.params import lassen_parameters
from repro.topology.presets import paper_mapping
from oracles import PostalModel


@st.composite
def pattern_and_mapping(draw):
    """Random (pattern, mapping) pairs with small rank counts."""
    ranks_per_node = draw(st.sampled_from([2, 4, 8]))
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    n_ranks = ranks_per_node * n_nodes
    mapping = paper_mapping(n_ranks, ranks_per_node=ranks_per_node)

    n_edges = draw(st.integers(min_value=0, max_value=30))
    sends: dict[int, dict[int, list[int]]] = {}
    for _ in range(n_edges):
        src = draw(st.integers(min_value=0, max_value=n_ranks - 1))
        dest = draw(st.integers(min_value=0, max_value=n_ranks - 1))
        n_items = draw(st.integers(min_value=1, max_value=6))
        # Items owned by the source (globally unique per source rank), with a
        # bias towards low ids so different destinations share values.
        items = [src * 1000 + draw(st.integers(min_value=0, max_value=8))
                 for _ in range(n_items)]
        bucket = sends.setdefault(src, {}).setdefault(dest, [])
        bucket.extend(items)
    pattern = CommPattern(n_ranks, sends)
    return pattern, mapping


@settings(max_examples=40, deadline=None)
@given(pattern_and_mapping())
def test_every_variant_delivers_exactly_the_required_items(data):
    pattern, mapping = data
    for plan in all_plans(pattern, mapping).values():
        plan.validate()   # raises on missing / duplicate / spurious deliveries


@settings(max_examples=40, deadline=None)
@given(pattern_and_mapping())
def test_dedup_never_increases_any_message(data):
    pattern, mapping = data
    plans = all_plans(pattern, mapping)
    partial = {(m.phase, m.src, m.dest): m.payload_count()
               for m in plans[Variant.PARTIAL].messages()}
    full = {(m.phase, m.src, m.dest): m.payload_count()
            for m in plans[Variant.FULL].messages()}
    assert set(partial) == set(full)
    for key, partial_count in partial.items():
        assert full[key] <= partial_count


@settings(max_examples=40, deadline=None)
@given(pattern_and_mapping())
def test_aggregation_bounds_inter_region_messages_by_region_pairs(data):
    pattern, mapping = data
    plans = all_plans(pattern, mapping)
    n_pairs_with_traffic = len({
        (mapping.region_of(src), mapping.region_of(dest))
        for src, dest in zip(pattern.edge_sources().tolist(),
                             pattern.csr()[1].tolist())
        if src != dest and not mapping.same_region(src, dest)
    })
    for variant in (Variant.PARTIAL, Variant.FULL):
        global_messages = list(plans[variant].messages(Phase.GLOBAL))
        assert len(global_messages) == n_pairs_with_traffic


@settings(max_examples=40, deadline=None)
@given(pattern_and_mapping())
def test_standard_statistics_match_pattern_totals(data):
    pattern, mapping = data
    plan = all_plans(pattern, mapping)[Variant.STANDARD]
    stats = plan.statistics()
    n_off_rank_edges = int(np.sum(pattern.edge_sources() != pattern.csr()[1]))
    assert stats.total_local_messages + stats.total_global_messages == n_off_rank_edges


@settings(max_examples=30, deadline=None)
@given(pattern_and_mapping())
def test_modeled_times_non_negative_and_finite(data):
    pattern, mapping = data
    model = lassen_parameters(active_per_node=4)
    postal = PostalModel()
    for plan in all_plans(pattern, mapping).values():
        for m in (model, postal):
            time = plan.modeled_time(m)
            assert np.isfinite(time) and time >= 0.0


@settings(max_examples=30, deadline=None)
@given(pattern_and_mapping())
def test_full_never_moves_more_inter_region_payload_than_partial(data):
    pattern, mapping = data
    plans = all_plans(pattern, mapping)
    assert plans[Variant.FULL].global_payload_items() <= \
        plans[Variant.PARTIAL].global_payload_items()
    assert plans[Variant.PARTIAL].global_payload_items() <= \
        sum(1 for _ in plans[Variant.STANDARD].messages()) * 10_000  # sanity bound
