"""Property matrix: every variant x dtype x item_size delivers the reference.

The acceptance matrix of the array-native exchange: each of the four collective
variants, run on the world exchange engine with every supported element type
(float32, float64, int64, complex128) and both scalar and vector-valued items
(item_size 1 and 4), must deliver exactly the values the sequential reference
assigns — bit-identical, because the exchange only moves bytes and a correct
routing never touches them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.api import neighbor_alltoallv_init_world
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.builders import random_pattern
from repro.simmpi.engine import ExchangeEngine
from repro.simmpi.profiler import TrafficProfiler
from repro.topology.presets import paper_mapping

N_RANKS = 8
DTYPES = [np.float32, np.float64, np.int64, np.complex128]
ITEM_SIZES = [1, 4]
VARIANTS = [Variant.POINT_TO_POINT, Variant.STANDARD, Variant.PARTIAL, Variant.FULL]


def _reference(origin: int, items: np.ndarray, item_size: int,
               dtype: np.dtype) -> np.ndarray:
    """Sequential reference: the value every (origin, item, component) must carry.

    Exact in every dtype of the matrix (small integers for int64/float32,
    origin+item encoded in real/imag for complex).
    """
    dtype = np.dtype(dtype)
    components = np.arange(item_size)
    if dtype.kind == "i":
        table = items[:, None] * 64 + origin * 8 + components[None, :]
    elif dtype.kind == "c":
        table = (origin * 1024.0 + items[:, None]) + 1j * (components[None, :] + 1)
    else:
        table = origin * 1024.0 + items[:, None] + components[None, :] / 4.0
    return table.astype(dtype)


def _check_variant(engine, pattern, mapping, variant, dtype, item_size):
    """Run one variant on ``engine`` and verify every rank's output."""
    collective = neighbor_alltoallv_init_world(pattern, mapping, variant=variant,
                                               engine=engine)
    received = collective.exchange([
        _reference(rank, collective.owned_item_ids(rank), item_size, dtype)
        for rank in range(pattern.n_ranks)])
    for rank, values in enumerate(received):
        ids = collective.recv_item_ids(rank)
        expected = np.concatenate([
            _reference(src, np.array([item]), item_size, dtype)
            for item, src in zip(ids.tolist(),
                                 collective.recv_item_sources(rank).tolist())
        ]) if ids.size else np.empty((0, item_size), dtype=dtype)
        if item_size == 1:
            expected = expected.reshape(-1)
        assert values.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(values, expected)


@pytest.mark.parametrize("item_size", ITEM_SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_all_variants_match_sequential_reference(dtype, item_size):
    dtype = np.dtype(dtype)
    mapping = paper_mapping(N_RANKS, ranks_per_node=4)
    pattern = random_pattern(N_RANKS, avg_neighbors=4, duplicate_fraction=0.5,
                             seed=97, dtype=dtype, item_size=item_size)
    profiler = TrafficProfiler(mapping)
    with ExchangeEngine(N_RANKS, profiler=profiler) as engine:
        for variant in VARIANTS:
            _check_variant(engine, pattern, mapping, variant, dtype, item_size)

    # Wire accounting: across all four variants the profiler must observe
    # exactly count * item_size * dtype.itemsize bytes per planned message.
    item_bytes = item_size * dtype.itemsize
    expected_bytes = sum(
        message.payload_count() * item_bytes
        for variant in VARIANTS
        for message in make_plan(pattern, mapping, variant).messages()
    )
    assert profiler.total().byte_count == expected_bytes
