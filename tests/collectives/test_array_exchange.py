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
from repro.pattern.builders import (halo_exchange_pattern, pattern_from_edges,
                                    random_pattern)
from repro.simmpi.engine import ExchangeEngine
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
    assert (pattern.dtype, pattern.item_size) == (np.dtype(dtype), item_size)
    with ExchangeEngine(pattern.n_ranks, profiler=profiler) as engine, \
            neighbor_alltoallv_init_world(pattern, mapping, variant=variant,
                                          engine=engine) as collective:
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
            pattern_from_edges(2, [(0, 1, [1, 2]), (1, 0, [5])],
                               dtype=np.float32),
            small_mapping, variant=Variant.STANDARD)
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


    @pytest.mark.parametrize("values", [
        None, 3.0, (np.zeros(n) for n in (2, 1)),
        {0: np.zeros(2), 1: np.zeros(1)}, {np.zeros(2).tobytes()}],
        ids=["None", "float", "generator", "dict", "set"])
    def test_input_that_is_no_sequence_of_ranks_raises(self, small_mapping,
                                                       values):
        pattern = pattern_from_edges(2, [(0, 1, [1, 2]), (1, 0, [5])])
        collective = neighbor_alltoallv_init_world(
            pattern, small_mapping, variant=Variant.STANDARD)
        with pytest.raises(ValidationError) as info:
            collective.exchange(values)
        assert str(info.value) == (
            "values must be one flat array of every rank's owned values or a "
            "sequence (list or tuple) of one array per rank, got "
            f"{type(values).__name__}")
        halos = collective.exchange((np.array([1.0, 2.0]), np.array([5.0])))
        assert halos[1].tolist() == [1.0, 2.0]


class TestZeroPerItemWork:
    """Regression guard: an exchange round is O(phases), not O(items).

    One round of a two-rank exchange is counted (the Python + C calls the
    parent makes, and its ``ndarray.take`` gathers); neither count may change
    when the item count grows — 100-fold on the partially optimized path,
    4-fold from 10k items on the direct path (``standard``) and the
    aggregated one (``full``: the two ranks sit on two nodes).  Every receive
    step moves through one ``take`` regardless of its size, and every
    round's results must be byte-equal to the item ids the values were made
    from.  On ``runtime="procs"`` the pool's wait for its workers is left
    out: how often it polls depends on the machine, not on the items.
    """

    @staticmethod
    def _count_ops(count_calls, variant, n_items):
        from repro.simmpi.procs import ProcsPool

        mapping = paper_mapping(2, ranks_per_node=1)
        pattern = pattern_from_edges(2, [
            (0, 1, list(range(n_items))),
            (1, 0, list(range(n_items, 2 * n_items))),
        ])
        with neighbor_alltoallv_init_world(pattern, mapping,
                                           variant=variant) as collective:
            values = [collective.owned_item_ids(rank).astype(np.float64)
                      for rank in range(2)]
            expected = [collective.recv_item_ids(rank).astype(np.float64)
                        for rank in range(2)]

            def one_round():
                received = collective.exchange(values)
                assert received[0].size == received[1].size == n_items
                assert np.array_equal(received[1], values[0])
                for halo, want in zip(received, expected):
                    assert halo.tobytes() == want.tobytes()

            one_round()
            return (count_calls(one_round, skip=[ProcsPool.run]),
                    count_calls(one_round, of=[np.ndarray.take]))

    @pytest.mark.parametrize("variant, n_items", [
        (Variant.PARTIAL, (10, 1000)),
        (Variant.STANDARD, (10_000, 40_000)),
        (Variant.FULL, (10_000, 40_000)),
    ], ids=["partial", "standard", "full"])
    def test_op_count_independent_of_item_count(self, count_calls, variant,
                                                n_items):
        small, large = (self._count_ops(count_calls, variant, n)
                        for n in n_items)
        assert small == large
        # At most one gather per receive step (the partial schedule's local,
        # setup redistribution, global and final redistribution) plus the
        # output gather; on a pool the workers make all but the last.
        assert 1 <= small[1] <= 5


class TestZeroPerRankWork:
    """Regression guard: a list-I/O round is O(phases), not O(ranks).

    One round of a standard periodic halo exchange fed one array per rank
    (views of one flat array, as ``np.split`` cuts them) is counted twice:
    its Python + C calls, and its Python line events.  Neither count may
    change from 25 to 256 ranks.  The engine checks the list and
    concatenates it into its work array with C-level calls, and every rank
    of a periodic halo receives equally many items, so ``exchange`` cuts
    the output with one reshape whose row views numpy makes in C (both
    sizes are runs of at least ``persistent.MIN_RUN`` ranks).  A slice per
    rank would make no call, but it would run a line per rank.  On
    ``runtime="procs"`` the pool's wait for its workers is left out, as in
    :class:`TestZeroPerItemWork`; loading the list happens in the parent on
    both runtimes.
    """

    @staticmethod
    def _count_ops(count_calls, count_lines, side):
        from repro.simmpi.procs import ProcsPool

        n_ranks = side * side
        pattern = halo_exchange_pattern((side, side), points_per_cell=4,
                                        periodic=True)
        with neighbor_alltoallv_init_world(
                pattern, paper_mapping(n_ranks, ranks_per_node=4),
                variant=Variant.STANDARD) as collective:
            world = collective.world
            # Item ids are global, so each rank receives the ids it expects.
            values = np.split(world.owned_items_all.astype(np.float64),
                              world.owned_offsets[1:-1])
            assert len(values) == n_ranks
            collective.exchange(values)
            calls = count_calls(collective.exchange, values,
                                skip=[ProcsPool.run])
            lines = count_lines(collective.exchange, values,
                                skip=[ProcsPool.run])
            received = collective.exchange(values)
            for rank in range(n_ranks):
                assert np.array_equal(received[rank],
                                      collective.recv_item_ids(rank))
            return calls, lines

    def test_op_count_independent_of_rank_count(self, count_calls,
                                                count_lines):
        small = self._count_ops(count_calls, count_lines, 5)
        large = self._count_ops(count_calls, count_lines, 16)
        assert small[0] == large[0]
        assert large[0] <= 40
        assert small[1] == large[1]


def _outcome(collective, values):
    """A round's delivered bytes, or the type and text of its error."""
    try:
        received = collective.exchange(values)
    except Exception as exc:    # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return b"".join(np.ascontiguousarray(halo).tobytes() for halo in received)


def _list_forms(owned, item_size):
    """Per-rank list inputs the one-``concatenate`` load must turn away."""
    rows = [ids.astype(np.float64).repeat(item_size).reshape(-1, item_size)
            for ids in owned]
    if item_size == 1:
        rows = [r.reshape(-1) for r in rows]
    forms = {
        "float32": [r.astype(np.float32) for r in rows],
        "big-endian": [r.astype(">f8") for r in rows],
        "int64": [r.astype(np.int64) for r in rows],
        "float64-then-float32": [rows[0]] + [r.astype(np.float32)
                                             for r in rows[1:]],
        "mixed-ndim": [rows[0].reshape(-1, 1, item_size)] + rows[1:],
        "0-d": [np.array(1.0) for _ in rows],
        "one-0-d": rows[:-1] + [np.array(1.0)],
    }
    if item_size == 1:
        forms["n-by-1"] = [r.reshape(-1, 1) for r in rows]
    else:
        forms["flat"] = [r.reshape(-1) for r in rows]
    return forms


class TestListLoadFallsBackLikeTheCheckedPath:
    """A per-rank list the engine cannot concatenate as is — another dtype or
    byte order, another ndim, a 0-d entry — gets exactly the result or the
    error of the checked per-rank path, which casts and names the rank."""

    @pytest.mark.parametrize("item_size", [1, 2])
    def test_every_form_matches_the_checked_path(self, monkeypatch,
                                                 item_size):
        from repro.simmpi import engine as engine_module

        n_ranks = 8
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=21,
                                 item_size=item_size)
        with neighbor_alltoallv_init_world(
                pattern, paper_mapping(n_ranks, ranks_per_node=4),
                variant=Variant.FULL) as collective:
            owned = [collective.owned_item_ids(rank)
                     for rank in range(n_ranks)]
            forms = _list_forms(owned, item_size)
            fast = {name: _outcome(collective, values)
                    for name, values in forms.items()}
            monkeypatch.setattr(engine_module, "_load_ranks",
                                lambda state, values: False)
            checked = {name: _outcome(collective, values)
                       for name, values in forms.items()}
        assert fast == checked
        loaded = {name for name, outcome in fast.items()
                  if isinstance(outcome, bytes)}
        assert {"float32", "big-endian", "float64-then-float32"} <= loaded
        assert "0-d" not in loaded and "one-0-d" not in loaded
        if item_size == 1:
            assert "n-by-1" in loaded


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
        for item_size in (2.5, True, "2"):
            with pytest.raises(ValidationError, match="item_size must be an int"):
                ExchangeSpec(item_size=item_size)
        assert ExchangeSpec(item_size=np.int32(2)).item_size == 2
        spec = ExchangeSpec(dtype=np.float32, item_size=9)
        assert spec.item_bytes == 36
