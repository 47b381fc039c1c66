"""The stacked world operator: one ``D``/``O`` pair instead of 2 N blocks.

:meth:`ParCSRMatrix.stacked_blocks` keeps every rank's diag/offd blocks as
rows of two world-sized CSR operators, and :class:`WorldSpMV` is
``exchange → D @ x + O @ halo`` over them.  Pinned here:

* row slices of ``D``/``O`` equal every rank's per-rank ``local_blocks`` in
  data and in stored column *order* (the summation order), for square,
  rectangular (``P``, ``Pᵀ``), empty-rank and no-``offd``-rank operators;
* the halo pattern built from the stacked split delivers every rank exactly
  its per-rank ``col_map_offd``, so ``WorldSpMV`` runs on the cached ``O``;
* ``WorldSpMV.multiply`` stays byte-identical to the envelope-routed
  thread-per-rank product;
* a delivery order other than ascending-per-rank is folded into ``O`` once,
  and a delivered id set that is not the rank's ``col_map_offd`` raises;
* structure, with no clock: the world path never builds a per-rank block,
  splits each operator exactly once, and one product is one engine round.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldAMGSolver
from repro.collectives import persistent
from repro.collectives.plan import Variant
from repro.sparse import parcsr
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import WorldSpMV, _offd_on_halo, distributed_spmv_results
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

VARIANTS = (Variant.STANDARD, Variant.PARTIAL, Variant.FULL)


def _square():
    return ParCSRMatrix(rotated_anisotropic_diffusion((12, 12)),
                        RowPartition.even(144, 7))


def _transfers():
    hierarchy = build_hierarchy(
        ParCSRMatrix(poisson_2d((16, 16)), RowPartition.even(256, 8)), seed=1)
    return hierarchy.prolongation_matrix(0), hierarchy.restriction_matrix(0)


def _empty_ranks():
    return ParCSRMatrix(poisson_2d((6, 6)),
                        RowPartition([0, 10, 10, 25, 25, 36]))


def _no_offd_rank():
    """Rank 1's rows only touch its own columns; rank 3 owns nothing."""
    coupled = poisson_2d((4, 4))                    # ranks 0 and 2, coupled
    alone = sp.identity(5, format="csr") * 3.0      # rank 1, decoupled
    top, bottom = coupled[:8], coupled[8:]
    matrix = sp.bmat([[top[:, :8], None, top[:, 8:]],
                      [None, alone, None],
                      [bottom[:, :8], None, bottom[:, 8:]]], format="csr")
    return ParCSRMatrix(matrix, RowPartition([0, 8, 13, 21, 21]))


CASES = {
    "square": _square,
    "prolongation": lambda: _transfers()[0],
    "restriction": lambda: _transfers()[1],
    "empty_ranks": _empty_ranks,
    "no_offd_rank": _no_offd_rank,
}


@pytest.fixture(params=sorted(CASES))
def operator(request):
    return CASES[request.param]()


def _reference_blocks(matrix):
    """The per-rank scipy slicing path on a cache-free twin."""
    twin = ParCSRMatrix(matrix.matrix, matrix.partition, matrix.col_partition)
    return [twin.local_blocks(rank) for rank in range(matrix.n_ranks)]


def test_row_slices_are_the_rank_blocks_in_data_and_column_order(operator):
    stacked = operator.stacked_blocks()
    assert stacked.diag.shape == (operator.n_rows, operator.n_cols)
    assert stacked.offd.shape == (operator.n_rows, stacked.col_map_offd.size)
    assert stacked.offd_offsets[0] == 0
    assert stacked.offd_offsets[-1] == stacked.col_map_offd.size
    for blocks in _reference_blocks(operator):
        first, last = blocks.row_range
        bounds = stacked.offd_offsets[blocks.rank:blocks.rank + 2]
        np.testing.assert_array_equal(
            stacked.col_map_offd[bounds[0]:bounds[1]], blocks.col_map_offd)
        for world, local, base in ((stacked.diag, blocks.diag, blocks.col_range[0]),
                                   (stacked.offd, blocks.offd, bounds[0])):
            lo, hi = world.indptr[first], world.indptr[last]
            assert world.data[lo:hi].tobytes() == local.data.tobytes()
            np.testing.assert_array_equal(world.indices[lo:hi] - base,
                                          local.indices)
            np.testing.assert_array_equal(world.indptr[first:last + 1] - lo,
                                          local.indptr)


def test_pattern_delivers_each_rank_its_col_map_offd(operator):
    """One halo description: the pattern's receive side is the per-rank
    oracle's column map, so ``_offd_on_halo`` takes its identity path."""
    pattern = pattern_from_parcsr(operator)
    for blocks in _reference_blocks(operator):
        received = pattern.recv_map(blocks.rank)
        got = np.sort(np.concatenate(list(received.values()))) \
            if received else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(got, blocks.col_map_offd)
    mapping = paper_mapping(operator.n_ranks, ranks_per_node=4)
    with WorldSpMV(operator, mapping) as spmv:
        assert spmv.offd is operator.stacked_blocks().offd


def test_case_shapes_are_what_they_claim():
    blocks = _no_offd_rank().all_local_blocks()
    assert blocks[1].n_offd_cols == 0 and blocks[1].n_local_rows == 5
    assert blocks[0].n_offd_cols > 0 and blocks[3].n_local_rows == 0
    sizes = np.diff(_empty_ranks().partition.offsets)
    assert (sizes == 0).any()
    prolongation, restriction = _transfers()
    assert prolongation.n_rows != prolongation.n_cols
    assert restriction.matrix.shape == prolongation.matrix.shape[::-1]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("runtime", ["engine", "procs"])
def test_multiply_is_byte_identical_to_the_threads_runtime(operator, variant,
                                                           runtime, rng):
    mapping = paper_mapping(operator.n_ranks, ranks_per_node=4)
    x = rng.standard_normal(operator.n_cols)
    threads = distributed_spmv_results(operator, mapping, x, variant=variant,
                                       runtime="threads")
    with WorldSpMV(operator, mapping, variant=variant, runtime=runtime,
                   n_workers=2 if runtime == "procs" else None) as spmv:
        assert spmv.multiply(x).tobytes() == threads.tobytes()
        assert spmv.multiply(-x).tobytes() == (-threads).tobytes()
    np.testing.assert_allclose(threads, operator.matrix @ x,
                               rtol=1e-12, atol=1e-12)


# -- the halo buffer's order is checked, not assumed ------------------------------


def _reversed_delivery(world):
    """``world`` delivering every rank's halo in descending id order."""
    offsets = world.result_offsets
    flip = np.concatenate([np.arange(offsets[r + 1] - 1, offsets[r] - 1, -1)
                           for r in range(world.n_ranks)]).astype(np.int64)
    return dataclasses.replace(
        world, result_rows=world.result_rows[flip],
        result_items_all=world.result_items_all[flip],
        result_sources_all=world.result_sources_all[flip])


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_permuted_delivery_is_folded_into_offd(monkeypatch, variant, rng):
    operator = _square()
    mapping = paper_mapping(operator.n_ranks, ranks_per_node=4)
    x = rng.standard_normal(operator.n_cols)
    expected = distributed_spmv_results(operator, mapping, x, variant=variant,
                                        runtime="threads")
    # The reversed world bypasses the plan cache in both directions, so it
    # is neither served from nor left behind in any tier.
    compile_world = persistent.compile_world_exchange
    monkeypatch.setattr(
        persistent, "compile_world_exchange",
        lambda plan, spec: _reversed_delivery(compile_world(plan, spec)))
    monkeypatch.setattr(persistent.plan_cache, "fetch_world",
                        lambda plan, spec: None)
    monkeypatch.setattr(persistent.plan_cache, "store_world",
                        lambda plan, spec, world: None)
    with WorldSpMV(operator, mapping, variant=variant) as spmv:
        first = spmv.collective.recv_item_ids(0)
        assert first.size > 1 and np.all(np.diff(first) < 0)
        stacked = operator.stacked_blocks()
        assert spmv.offd is not stacked.offd
        # Entries keep their stored (summation) order; only columns move.
        assert spmv.offd.data.tobytes() == stacked.offd.data.tobytes()
        assert spmv.multiply(x).tobytes() == expected.tobytes()


def test_identity_delivery_shares_the_cached_operator():
    operator = _square()
    mapping = paper_mapping(operator.n_ranks, ranks_per_node=4)
    with WorldSpMV(operator, mapping) as spmv:
        assert spmv.offd is operator.stacked_blocks().offd
        assert spmv.diag is operator.stacked_blocks().diag


@pytest.mark.parametrize("damage", ["wrong_id", "missing_id", "moved_id"])
def test_a_foreign_halo_raises_naming_the_first_rank(damage):
    operator = _square()
    stacked = operator.stacked_blocks()
    offsets = stacked.offd_offsets.copy()
    ids = stacked.col_map_offd.copy()
    if damage == "wrong_id":        # ranks 3 and 5 get a column they own
        for rank in (5, 3):
            ids[offsets[rank]] = operator.col_partition.offsets[rank]
    elif damage == "missing_id":    # rank 3 gets one id too few
        ids = np.delete(ids, offsets[3])
        offsets[4:] -= 1
    else:                           # rank 3's last id is delivered to rank 4
        offsets[4] -= 1
    world = SimpleNamespace(result_offsets=offsets, result_items_all=ids)
    with pytest.raises(ValidationError, match="rank 3 receives halo ids"):
        _offd_on_halo(stacked, world)


# -- structure, with no clock -----------------------------------------------------


def test_world_solver_never_builds_a_rank_block_and_one_product_is_one_round(
        monkeypatch, rng):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("the world path built a per-rank block")

    monkeypatch.setattr(ParCSRMatrix, "local_blocks", forbidden)
    monkeypatch.setattr(ParCSRMatrix, "all_local_blocks", forbidden)
    split, stack = [], parcsr._stack_rank_blocks
    monkeypatch.setattr(parcsr, "_stack_rank_blocks", lambda matrix, *partitions: (
        split.append(matrix), stack(matrix, *partitions))[1])
    n_ranks = 64
    matrix = ParCSRMatrix(rotated_anisotropic_diffusion((32, 32)),
                          RowPartition.even(1024, n_ranks))     # 16 rows per rank
    mapping = paper_mapping(n_ranks, ranks_per_node=16)
    b = rng.standard_normal(matrix.n_rows)
    with WorldAMGSolver(matrix, mapping, variant=Variant.PARTIAL) as solver:
        cycle = solver.vcycle_executor
        assert len(cycle.levels) >= 2
        # Pattern and product share one split: A, Pᵀ and P of every smoothed
        # level, each exactly once.
        assert len(split) == 3 * len(cycle.levels)
        assert len({id(matrix) for matrix in split}) == len(split)
        x = solver.vcycle(b, np.zeros(matrix.n_rows))
        assert np.linalg.norm(cycle.residual(b, x)) < np.linalg.norm(b)

        engine = cycle.engines[0]
        rounds = []
        run = engine.run
        monkeypatch.setattr(engine, "run", lambda handle, values: (
            rounds.append(handle), run(handle, values))[1], raising=False)
        for level in cycle.levels:
            for operator in (level.spmv, level.restrict, level.prolong):
                del rounds[:]
                operator.multiply(np.ones(operator.n_cols))
                assert rounds == [operator.collective.handle]
