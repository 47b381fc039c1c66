"""Functional tests of the persistent collective API on the world engine.

These run real data through :func:`neighbor_alltoallv_init_world` and check,
for every variant, that each rank receives exactly what point-to-point would
have delivered — the core correctness claim behind replacing Hypre's
communication.  The oracle reads the pattern's send and receive maps only,
never the collective's own metadata.
"""

import numpy as np
import pytest

from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.collectives.persistent import WorldNeighborCollective
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.builders import (
    halo_exchange_pattern,
    pattern_from_edges,
    random_pattern,
)
from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.profiler import TrafficProfiler
from repro.topology.presets import paper_mapping
from repro.utils.arrays import concatenate_or_empty
from repro.utils.errors import CommunicationError, ValidationError


def _value_of(rank, item):
    """The value ``rank`` holds for ``item`` (scalars or aligned arrays)."""
    return 1000.0 * rank + np.asarray(item, dtype=np.float64)


def _owned_items(pattern, rank):
    """Every item ``rank`` sends, ascending: its dense input order."""
    return np.unique(concatenate_or_empty(list(pattern.send_map(rank).values())))


def _check_received(pattern, collective, results, factor=1.0):
    """Per rank, ``results`` is ``recv_item_ids`` order: every item the
    pattern says the rank expects, valued by the source that declared it."""
    for rank, received in enumerate(results):
        recv_map = pattern.recv_map(rank)
        ids = collective.recv_item_ids(rank)
        assert ids.tolist() == sorted({int(i) for items in recv_map.values()
                                       for i in items})
        for src, items in recv_map.items():
            positions = np.searchsorted(ids, items)
            np.testing.assert_array_equal(received[positions],
                                          factor * _value_of(src, items))


def _exchange(pattern, mapping, variant, iterations=1):
    """Init once, exchange ``iterations`` rounds, verify every rank."""
    with neighbor_alltoallv_init_world(pattern, mapping,
                                       variant=variant) as collective:
        owned = [_owned_items(pattern, rank) for rank in range(pattern.n_ranks)]
        for rank, items in enumerate(owned):
            assert np.array_equal(collective.owned_item_ids(rank), items)
        for iteration in range(iterations):
            factor = iteration + 1.0
            results = collective.exchange(
                [factor * _value_of(rank, items)
                 for rank, items in enumerate(owned)])
            _check_received(pattern, collective, results, factor)


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL, Variant.POINT_TO_POINT])
class TestAllVariantsDeliverCorrectData:
    def test_random_pattern(self, variant):
        n_ranks = 16
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=6, duplicate_fraction=0.5,
                                 seed=21)
        _exchange(pattern, mapping, variant)

    def test_repeated_iterations_with_changing_values(self, variant):
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=4, seed=22)
        _exchange(pattern, mapping, variant, iterations=3)

    def test_example_2_1_style_duplicates(self, variant):
        """The paper's Example 2.1: region 0 values shared by several ranks of region 1."""
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = pattern_from_edges(n_ranks, [
            (0, 5, [1000]), (0, 6, [1000]), (0, 4, [1001]), (0, 5, [1001]), (0, 7, [1001]),
            (1, 4, [1100]), (1, 5, [1100]), (1, 6, [1101]),
            (2, 4, [1200]), (2, 5, [1201]), (2, 6, [1201]), (2, 7, [1201]),
            (3, 7, [1300]),
        ])
        _exchange(pattern, mapping, variant)

    def test_halo_pattern(self, variant):
        """A structured 4x4 process-grid halo spread over four nodes."""
        pattern = halo_exchange_pattern((4, 4), points_per_cell=3)
        _exchange(pattern, paper_mapping(16, ranks_per_node=4), variant)


class TestPersistentHandleSemantics:
    def test_missing_owned_value_raises(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1, 2])])
        collective = neighbor_alltoallv_init_world(pattern, small_mapping,
                                                   variant=Variant.STANDARD)
        with pytest.raises(ValidationError, match="shape"):
            collective.exchange([np.array([1.0]), np.empty(0)])  # item 2 missing

    def test_mapping_input_raises(self, small_mapping):
        """An item-keyed mapping is not a value array: the cast check rejects it."""
        pattern = pattern_from_edges(2, [(0, 1, [1, 2])])
        collective = neighbor_alltoallv_init_world(pattern, small_mapping,
                                                   variant=Variant.STANDARD)
        with pytest.raises(ValidationError, match="safely cast"):
            collective.exchange([{1: 1.0, 2: 2.0}, np.empty(0)])

    def test_messages_per_iteration_matches_plan(self, small_mapping):
        pattern = random_pattern(16, avg_neighbors=5, seed=30)
        plan = make_plan(pattern, small_mapping, Variant.PARTIAL)
        profiler = TrafficProfiler(small_mapping)
        collective = WorldNeighborCollective(
            plan, engine=ExchangeEngine(16, profiler=profiler))
        expected = plan.n_messages
        assert collective.messages_per_iteration() == expected
        collective.exchange([_value_of(rank, _owned_items(pattern, rank))
                             for rank in range(16)])
        assert profiler.total().message_count == expected

    def test_close_releases_a_private_engine(self):
        pattern = random_pattern(4, avg_neighbors=2, seed=31)
        with neighbor_alltoallv_init_world(pattern, paper_mapping(4, ranks_per_node=2),
                                           variant=Variant.FULL) as collective:
            values = [_value_of(rank, _owned_items(pattern, rank))
                      for rank in range(4)]
            collective.exchange(values)
        assert collective.engine.closed
        with pytest.raises(CommunicationError, match="closed"):
            collective.exchange(values)

    def test_close_leaves_a_shared_engine_open(self):
        n_ranks = 4
        mapping = paper_mapping(n_ranks, ranks_per_node=2)
        pattern = random_pattern(n_ranks, avg_neighbors=2, seed=32)
        with ExchangeEngine(n_ranks) as engine:
            first, second = (neighbor_alltoallv_init_world(
                pattern, mapping, variant=variant, engine=engine)
                for variant in (Variant.STANDARD, Variant.FULL))
            first.close()
            assert not engine.closed
            results = second.exchange([_value_of(rank, _owned_items(pattern, rank))
                                       for rank in range(n_ranks)])
            _check_received(pattern, second, results)

    def test_handle_is_the_engine_registration(self):
        """Collectives sharing an engine hold distinct handles, and running a
        handle on the engine is the collective's own flat round."""
        n_ranks = 6
        mapping = paper_mapping(n_ranks, ranks_per_node=3)
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=33)
        engine = ExchangeEngine(n_ranks)
        collectives = [neighbor_alltoallv_init_world(pattern, mapping,
                                                     variant=variant, engine=engine)
                       for variant in (Variant.STANDARD, Variant.PARTIAL)]
        assert [c.handle for c in collectives] == [0, 1]
        flat = np.concatenate([_value_of(rank, _owned_items(pattern, rank))
                               for rank in range(n_ranks)])
        for collective in collectives:
            assert np.array_equal(engine.run(collective.handle, flat),
                                  collective.exchange_flat(flat))

    def test_shared_engine_fixes_the_runtime(self):
        n_ranks = 4
        pattern = random_pattern(n_ranks, avg_neighbors=2, seed=34)
        plan = make_plan(pattern, paper_mapping(n_ranks, ranks_per_node=2),
                         Variant.STANDARD)
        engine = ExchangeEngine(n_ranks)
        for kwargs in ({"runtime": "engine"}, {"n_workers": 2}):
            with pytest.raises(ValidationError, match="already fixed its runtime"):
                WorldNeighborCollective(plan, engine=engine, **kwargs)

    def test_describe_names_variant_and_item_type(self):
        pattern = random_pattern(8, avg_neighbors=3, seed=35,
                                 dtype=np.float32, item_size=3)
        collective = neighbor_alltoallv_init_world(
            pattern, paper_mapping(8, ranks_per_node=4), variant=Variant.FULL)
        text = collective.describe()
        assert text.startswith("world full collective over 8 ranks")
        assert f"{collective.messages_per_iteration()} messages/iteration" in text
        assert text.endswith("3xfloat32 items")


class TestApiValidation:
    def test_variant_accepted_by_name(self):
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=36)
        for variant in Variant:
            collective = neighbor_alltoallv_init_world(pattern, mapping,
                                                       variant=variant.value)
            assert collective.variant is variant
            results = collective.exchange([_value_of(rank, _owned_items(pattern, rank))
                                           for rank in range(n_ranks)])
            _check_received(pattern, collective, results)

    def test_unknown_variant_rejected(self, small_mapping):
        pattern = pattern_from_edges(2, [(0, 1, [1])])
        with pytest.raises(ValidationError, match="variant must be one of"):
            neighbor_alltoallv_init_world(pattern, small_mapping, variant="bogus")

    def test_pattern_wider_than_shared_engine_rejected(self):
        pattern = random_pattern(4, avg_neighbors=2, seed=37)
        with pytest.raises(CommunicationError, match="more ranks"):
            neighbor_alltoallv_init_world(pattern, paper_mapping(4, ranks_per_node=2),
                                          engine=ExchangeEngine(2))

    @pytest.mark.parametrize("item_size", [2.5, True, "2", np.float64(2.0)])
    def test_non_int_item_size_rejected(self, item_size):
        """A float, bool or string item size is refused by name, never
        truncated to run with fewer (or one) components per item."""
        with pytest.raises(ValidationError, match="item_size must be an int"):
            random_pattern(4, avg_neighbors=2, seed=37, item_size=item_size)

    def test_the_pattern_sets_the_element_type(self):
        """The wire carries ``item_size * dtype.itemsize`` bytes per item of
        the pattern's element type, exactly what the plan counts."""
        n_ranks = 8
        mapping = paper_mapping(n_ranks, ranks_per_node=4)
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=38,
                                 dtype=np.float32, item_size=3)
        profiler = TrafficProfiler(mapping)
        collective = neighbor_alltoallv_init_world(
            pattern, mapping, variant=Variant.PARTIAL,
            engine=ExchangeEngine(n_ranks, profiler=profiler))
        assert (collective.dtype, collective.item_size) == (np.float32, 3)
        assert collective.spec == ExchangeSpec(np.float32, 3)
        values = [(_value_of(rank, _owned_items(pattern, rank))[:, None]
                   + np.arange(3)).astype(np.float32) for rank in range(n_ranks)]
        results = collective.exchange(values)
        for rank, received in enumerate(results):
            assert received.dtype == np.float32
            assert received.shape == (collective.recv_item_ids(rank).size, 3)
        payload = sum(m.payload_count() for m in collective.plan.messages())
        assert profiler.total().byte_count == payload * 3 * 4
        planned = collective.plan.statistics()
        assert profiler.total().byte_count == int(planned.local_bytes.sum()
                                                  + planned.global_bytes.sum())

    @pytest.mark.parametrize("spec", [ExchangeSpec(np.float32),
                                      ExchangeSpec(np.float64, 2)],
                             ids=["float32-1", "float64-2"])
    def test_a_spec_other_than_the_patterns_is_refused(self, spec):
        """A float64 plan counts 8 bytes per item; compiling it for another
        element type would move other bytes than it counts."""
        pattern = random_pattern(8, avg_neighbors=3, seed=39)
        plan = make_plan(pattern, paper_mapping(8, ranks_per_node=4),
                         Variant.PARTIAL)
        with pytest.raises(ValidationError, match="pattern sets the element"):
            compile_world_exchange(plan, spec)
        assert compile_world_exchange(plan, ExchangeSpec(np.float64)).spec \
            == compile_world_exchange(plan).spec
