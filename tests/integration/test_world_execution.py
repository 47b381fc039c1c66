"""Integration: world-stepped SpMV and relaxation vs the threaded reference.

``distributed_spmv_results`` defaults to the batched engine; these tests pin
it byte-identical to the envelope-routed thread-per-rank path (the pinned
reference) and to the sequential product, and do the same one layer up for
the Jacobi smoother — for every collective variant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg.relax import DistributedJacobi, jacobi
from repro.collectives.plan import Variant
from repro.simmpi.world import run_spmd
from repro.sparse.spmv import (
    DistributedSpMV,
    WorldSpMV,
    distributed_spmv_results,
    sequential_spmv,
)
from repro.topology.presets import paper_mapping

ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_engine_spmv_byte_identical_to_threaded_reference(
        small_anisotropic_matrix, variant, rng):
    matrix = small_anisotropic_matrix
    mapping = paper_mapping(matrix.n_ranks, ranks_per_node=4)
    x = rng.standard_normal(matrix.n_rows)
    engine_result = distributed_spmv_results(matrix, mapping, x,
                                             variant=variant, runtime="engine")
    threads_result = distributed_spmv_results(matrix, mapping, x,
                                              variant=variant, runtime="threads")
    assert np.array_equal(engine_result, threads_result)
    np.testing.assert_allclose(engine_result, sequential_spmv(matrix, x),
                               rtol=1e-12, atol=1e-12)


def test_world_spmv_reusable_across_iterations(small_poisson_matrix, rng):
    matrix = small_poisson_matrix
    mapping = paper_mapping(matrix.n_ranks, ranks_per_node=4)
    spmv = WorldSpMV(matrix, mapping, variant=Variant.FULL)
    for _ in range(3):
        x = rng.standard_normal(matrix.n_rows)
        np.testing.assert_allclose(spmv.multiply(x), sequential_spmv(matrix, x),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
def test_world_jacobi_byte_identical_to_threaded_smoother(
        small_poisson_matrix, variant, rng):
    matrix = small_poisson_matrix
    n = matrix.n_rows
    mapping = paper_mapping(matrix.n_ranks, ranks_per_node=4)
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    sweeps = 3

    def program(comm):
        spmv = DistributedSpMV(comm, matrix, mapping, variant=variant)
        smoother = DistributedJacobi(spmv)
        first, last = spmv.row_range
        return smoother.smooth(b[first:last], x0[first:last], sweeps=sweeps)

    per_rank = run_spmd(matrix.n_ranks, program, timeout=120)
    threaded = np.concatenate([np.asarray(values) for values in per_rank])

    smoother = DistributedJacobi(WorldSpMV(matrix, mapping, variant=variant))
    world_stepped = smoother.smooth(b, x0, sweeps=sweeps)

    assert np.array_equal(world_stepped, threaded)
    np.testing.assert_allclose(world_stepped,
                               jacobi(matrix.matrix, b, x0, sweeps=sweeps),
                               rtol=1e-12, atol=1e-12)


def test_invalid_runtime_rejected(small_poisson_matrix, rng):
    matrix = small_poisson_matrix
    mapping = paper_mapping(matrix.n_ranks, ranks_per_node=4)
    x = rng.standard_normal(matrix.n_rows)
    with pytest.raises(Exception, match="runtime"):
        distributed_spmv_results(matrix, mapping, x, runtime="mailbox")
