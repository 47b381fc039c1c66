"""Tests of the array-native exchange path.

The claims of the array path: values flow through dense numpy buffers end to
end, the path is dtype-generic with vector-valued items, input that would
corrupt values is rejected, and the wire carries exactly
``count * item_size * dtype.itemsize`` bytes per message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.builders import pattern_from_edges, random_pattern
from repro.simmpi.profiler import TrafficProfiler
from repro.topology.presets import paper_mapping
from repro.utils.errors import PlanError, ValidationError


def _reference_value(origin: int, item: int, component: int, dtype: np.dtype):
    """Deterministic per-(origin, item, component) value, exact in every dtype."""
    dtype = np.dtype(dtype)
    if dtype.kind == "i":
        return origin * 1_000_000 + item * 16 + component
    if dtype.kind == "c":
        return complex(origin * 1000 + item, component + 1)
    return float(origin * 1000 + item) + component / 8.0


def _values(items, origins, dtype, item_size):
    """Dense array of ``_reference_value`` per ``(origin, item)`` entry."""
    values = np.empty((len(items), item_size), dtype=dtype)
    for position, (item, origin) in enumerate(zip(items, origins)):
        for component in range(item_size):
            values[position, component] = _reference_value(origin, item,
                                                            component, dtype)
    return values if item_size > 1 else values.reshape(-1)


def _owned_values(collective, rank, dtype, item_size):
    """Dense input array for ``rank`` in ``owned_item_ids`` order."""
    ids = collective.owned_item_ids(rank).tolist()
    return _values(ids, [rank] * len(ids), dtype, item_size)


def _expected_output(collective, rank, dtype, item_size):
    """Expected dense output of ``rank`` computed straight from the pattern."""
    return _values(collective.recv_item_ids(rank).tolist(),
                   collective.recv_item_sources(rank).tolist(),
                   dtype, item_size)


def _check_array_exchange(pattern, mapping, variant, dtype, item_size,
                          profiler=None):
    with neighbor_alltoallv_init_world(pattern, mapping, variant=variant,
                                       dtype=dtype, item_size=item_size,
                                       profiler=profiler) as collective:
        received = collective.exchange([
            _owned_values(collective, rank, dtype, item_size)
            for rank in range(pattern.n_ranks)])
        for rank, values in enumerate(received):
            expected = _expected_output(collective, rank, dtype, item_size)
            assert values.dtype == np.dtype(dtype)
            assert values.shape == expected.shape
            np.testing.assert_array_equal(values, expected)


class TestArrayPathDeliversCorrectData:
    @pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                         Variant.FULL, Variant.POINT_TO_POINT])
    def test_dense_float64_exchange(self, variant):
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=6, duplicate_fraction=0.5,
                                 seed=41)
        _check_array_exchange(pattern, mapping, variant, np.float64, 1)

    def test_repeated_iterations_reuse_buffers(self):
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=4, seed=42)
        with neighbor_alltoallv_init_world(pattern, mapping,
                                           variant=Variant.FULL) as collective:
            base = [_owned_values(collective, rank, np.float64, 1)
                    for rank in range(n_ranks)]
            expected = [_expected_output(collective, rank, np.float64, 1)
                        for rank in range(n_ranks)]
            for iteration in (1, 2, 3):
                received = collective.exchange([values * iteration
                                                for values in base])
                for got, want in zip(received, expected):
                    np.testing.assert_array_equal(got, want * iteration)

    def test_lossy_input_cast_raises(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1, 2]), (1, 0, [5])])
        collective = neighbor_alltoallv_init_world(
            pattern, small_mapping, variant=Variant.STANDARD)
        f32 = neighbor_alltoallv_init_world(
            pattern, small_mapping, variant=Variant.STANDARD, dtype=np.float32)
        # Cross-kind casts that can corrupt values must be rejected: complex
        # into a real collective (imaginary parts discarded), int64 into
        # float32 (exact above 2**24 only).
        with pytest.raises(ValidationError, match="safely cast"):
            collective.exchange([np.array([1 + 2j, 3 + 4j]), np.array([5.0])])
        with pytest.raises(ValidationError, match="safely cast"):
            f32.exchange([np.array([16777217, 1], dtype=np.int64),
                          np.array([5], dtype=np.int64)])
        # Within-kind narrowing (float64 -> float32) is C-style assignment
        # and stays allowed.
        halos = f32.exchange([np.array([1.0, 2.0]), np.array([5.0])])
        assert halos[1].dtype == np.float32 and halos[1].tolist() == [1.0, 2.0]
        halos = collective.exchange([np.array([1.0, 2.0]), np.array([5.0])])
        assert halos[0].tolist() == [5.0]

    def test_wrong_input_shape_raises(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1, 2]), (1, 0, [5])])
        collective = neighbor_alltoallv_init_world(
            pattern, small_mapping, variant=Variant.STANDARD)
        with pytest.raises(ValidationError, match="rank 0 owns .* shape"):
            collective.exchange([np.zeros(5), np.zeros(1)])
        # The failed round leaves the collective usable.
        halos = collective.exchange([np.array([1.0, 2.0]), np.array([5.0])])
        assert halos[1].tolist() == [1.0, 2.0]


class TestZeroPerItemWork:
    """Regression guard: an exchange round is O(phases), not O(items).

    One round of a two-rank partially optimized exchange is counted (the
    Python + C calls the parent makes, and its ``ndarray.take`` gathers);
    neither count may change when the item count grows 100-fold — every
    receive step moves through one ``take`` regardless of its size.  On
    ``runtime="procs"`` the pool's wait for its workers is left out: how
    often it polls depends on the machine, not on the items.
    """

    @staticmethod
    def _count_ops(count_calls, n_items):
        from repro.simmpi.procs import ProcsPool

        mapping = paper_mapping(2, ranks_per_node=1)
        pattern = pattern_from_edges(2, [
            (0, 1, list(range(n_items))),
            (1, 0, list(range(n_items, 2 * n_items))),
        ])
        with neighbor_alltoallv_init_world(pattern, mapping,
                                           variant=Variant.PARTIAL) as collective:
            values = [collective.owned_item_ids(rank).astype(np.float64)
                      for rank in range(2)]

            def one_round():
                received = collective.exchange(values)
                assert received[0].size == received[1].size == n_items
                assert np.array_equal(received[1], values[0])

            one_round()
            return (count_calls(one_round, skip=[ProcsPool.run]),
                    count_calls(one_round, of=[np.ndarray.take]))

    def test_op_count_independent_of_item_count(self, count_calls):
        small = self._count_ops(count_calls, 10)
        large = self._count_ops(count_calls, 1000)
        assert small == large
        # At most one gather per receive step of the partial schedule
        # (local, setup redistribution, global, final redistribution) plus
        # the output gather; on a pool the workers make the first four.
        assert 1 <= small[1] <= 5


class TestTrafficByteAccounting:
    """Observed wire bytes must equal count * item_size * dtype.itemsize."""

    @pytest.mark.parametrize("dtype,item_size", [(np.float32, 4), (np.int64, 1),
                                                 (np.complex128, 2)])
    def test_profiler_matches_spec(self, dtype, item_size):
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=4, duplicate_fraction=0.5,
                                 seed=44, dtype=dtype, item_size=item_size)
        plan = make_plan(pattern, mapping, Variant.FULL)
        profiler = TrafficProfiler(mapping)
        _check_array_exchange(pattern, mapping, Variant.FULL, dtype, item_size,
                              profiler=profiler)
        observed = profiler.total()
        spec = ExchangeSpec(dtype=dtype, item_size=item_size)
        expected_bytes = sum(m.payload_count() for m in plan.messages()) \
            * spec.item_bytes
        assert observed.byte_count == expected_bytes
        assert observed.message_count == plan.n_messages


class TestCompiledExchange:
    def test_compile_assigns_owned_rows_first(self, small_mapping):
        pattern = random_pattern(16, avg_neighbors=5, seed=45)
        plan = make_plan(pattern, small_mapping, Variant.FULL)
        world = compile_world_exchange(plan)
        n_owned = int(world.owned_offsets[-1])
        assert world.n_world_rows >= n_owned
        for rank in (0, 3, 7):
            owned = world.owned_item_ids(rank)
            assert np.array_equal(np.sort(owned), owned)
            # Result rows of self-sent items point at the rank's owned rows.
            lo, hi = world.result_offsets[rank:rank + 2]
            rows = world.result_rows[lo:hi]
            own = world.recv_item_sources(rank) == rank
            first = int(world.owned_offsets[rank])
            assert np.array_equal(
                rows[own], first + np.searchsorted(
                    owned, world.recv_item_ids(rank)[own]))

    def test_forwarding_a_local_receive_is_rejected(self):
        """Compile-time validation follows the runtime availability order.

        The setup redistribution packs *before* the local phase's receives
        land, so a hand-built plan whose setup message forwards a
        locally-received key must be rejected at compile time — at runtime it
        would put never-written rows on the wire.
        """
        from plan_tables import phase_table

        from repro.collectives.plan import CollectivePlan, Phase
        from repro.pattern.comm_pattern import CommPattern

        mapping = paper_mapping(4, ranks_per_node=2)
        pattern = CommPattern(4, {1: {0: [5]}})
        messages = {Phase.LOCAL: [(1, 0, [(1, 5, 0)])],
                    Phase.SETUP_REDIST: [(0, 1, [(1, 5, 2)])],
                    Phase.GLOBAL: [], Phase.FINAL_REDIST: []}
        plan = CollectivePlan(
            variant=Variant.PARTIAL, pattern=pattern, mapping=mapping,
            phases={phase: phase_table(pattern, phase, rows)
                    for phase, rows in messages.items()})
        with pytest.raises(PlanError, match="neither owns nor received"):
            compile_world_exchange(plan)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ExchangeSpec(item_size=0)
        spec = ExchangeSpec(dtype=np.float32, item_size=9)
        assert spec.item_bytes == 36
