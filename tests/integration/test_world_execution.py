"""Integration: world-stepped SpMV and relaxation vs the sequential oracle.

:class:`WorldSpMV` runs the halo exchange through the batched engine; its
product is pinned byte-equal to the sequential product on the assembled
matrix for every collective variant.  One layer up, where the paper's timed
communication actually happens, :class:`DistributedJacobi` sweeps over it
are pinned byte-equal to the sequential weighted-Jacobi reference.
"""

from __future__ import annotations

import pytest

from repro.amg.relax import DistributedJacobi
from repro.collectives.plan import Variant
from repro.sparse.spmv import WorldSpMV
from repro.topology.presets import paper_mapping
from oracles import jacobi

ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_world_spmv_byte_identical_to_sequential(small_anisotropic_matrix,
                                                 variant, rng):
    matrix = small_anisotropic_matrix
    mapping = paper_mapping(matrix.n_ranks, ranks_per_node=4)
    x = rng.standard_normal(matrix.n_rows)
    with WorldSpMV(matrix, mapping, variant=variant) as spmv:
        product = spmv.multiply(x)
    assert product.tobytes() == matrix.spmv(x).tobytes()


def test_world_spmv_reusable_across_iterations(small_poisson_matrix, rng):
    matrix = small_poisson_matrix
    mapping = paper_mapping(matrix.n_ranks, ranks_per_node=4)
    spmv = WorldSpMV(matrix, mapping, variant=Variant.FULL)
    for _ in range(3):
        x = rng.standard_normal(matrix.n_rows)
        assert spmv.multiply(x).tobytes() == matrix.spmv(x).tobytes()


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
def test_world_jacobi_byte_identical_to_sequential(small_poisson_matrix,
                                                   variant, rng):
    matrix = small_poisson_matrix
    n = matrix.n_rows
    mapping = paper_mapping(matrix.n_ranks, ranks_per_node=4)
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    sweeps = 3

    smoother = DistributedJacobi(WorldSpMV(matrix, mapping, variant=variant))
    smoothed = x0
    for _ in range(sweeps):
        smoothed = smoother.sweep(b, smoothed)
    reference = jacobi(matrix.matrix, b, x0, sweeps=sweeps)
    assert smoothed.tobytes() == reference.tobytes()
