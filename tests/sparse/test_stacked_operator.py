"""The stacked world operator: the assembled CSR over ``[x | halo]`` columns.

:meth:`ParCSRMatrix.stacked_blocks` keeps every rank's rows as *one* CSR that
shares ``data`` and ``indptr`` with the assembled matrix — only the column
indices are new — and :class:`WorldSpMV` is one engine round on the input
vector, then that operator times the engine's round buffer.  Pinned here:

* the stacked operator shares the assembled arrays; columns ``< n_cols`` are
  unchanged and columns ``>= n_cols`` map through ``col_map_offd`` back to
  the original column, for square, rectangular (``P``, ``Pᵀ``), empty-rank
  and no-halo-rank operators and for random CSRs;
* the halo pattern built from it delivers every rank exactly its per-rank
  ``col_map_offd``;
* ``multiply`` is byte-equal across engine / procs / threads × standard /
  partial / full **and** byte-equal to ``matrix.matrix @ x``, also on an
  unsorted-with-duplicates input;
* a delivery order other than ascending-per-rank is folded into the column
  indices once, and a delivered id set that is not the rank's
  ``col_map_offd`` raises;
* structure, with no clock: the world path never builds a per-rank block,
  stacks each operator exactly once, and one product is one engine round.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amg.hierarchy import build_hierarchy
from repro.amg.vcycle import WorldAMGSolver
from repro.collectives import persistent
from repro.collectives.plan import Variant
from repro.sparse import parcsr
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import (WorldSpMV, _operator_on_buffer,
                               distributed_spmv_results)
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

from reference_blocks import reference_blocks as _reference_blocks

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


def _assert_stacked_is_the_assembled_matrix(matrix: ParCSRMatrix) -> None:
    """Shared arrays; own columns untouched; halo columns through the map."""
    stacked = matrix.stacked_blocks()
    operator, csr, n_cols = stacked.operator, matrix.matrix, matrix.n_cols
    assert np.shares_memory(operator.data, csr.data) or not csr.nnz
    assert np.shares_memory(operator.indptr, csr.indptr)
    assert not np.shares_memory(operator.indices, csr.indices)
    assert operator.shape == (matrix.n_rows, n_cols + stacked.col_map_offd.size)
    assert stacked.offd_offsets[0] == 0
    assert stacked.offd_offsets[-1] == stacked.col_map_offd.size
    halo = operator.indices >= n_cols
    np.testing.assert_array_equal(operator.indices[~halo], csr.indices[~halo])
    np.testing.assert_array_equal(
        stacked.col_map_offd[operator.indices[halo] - n_cols], csr.indices[halo])
    # A halo column belongs to the segment of the rank that owns its row, and
    # exactly the columns that rank does not own are halo columns.
    row_rank = np.repeat(np.arange(matrix.n_ranks),
                         np.diff(csr.indptr[matrix.partition.offsets]))
    assert np.all(operator.indices[halo] - n_cols
                  >= stacked.offd_offsets[row_rank[halo]])
    assert np.all(operator.indices[halo] - n_cols
                  < stacked.offd_offsets[row_rank[halo] + 1])
    np.testing.assert_array_equal(
        matrix.col_partition.owners_of(csr.indices) != row_rank, halo)


def test_stacked_operator_shares_the_assembled_arrays(operator):
    _assert_stacked_is_the_assembled_matrix(operator)


def test_row_slices_are_the_rank_blocks_in_data_and_column_order(operator):
    """A rank's rows of the stacked operator, read apart at ``n_cols``, are
    its scipy-sliced diag and offd blocks entry for entry."""
    stacked = operator.stacked_blocks()
    world, n_cols = stacked.operator, operator.n_cols
    for blocks in _reference_blocks(operator):
        first, last = blocks.row_range
        g0, g1 = stacked.offd_offsets[blocks.rank:blocks.rank + 2]
        np.testing.assert_array_equal(stacked.col_map_offd[g0:g1],
                                      blocks.col_map_offd)
        lo, hi = world.indptr[first], world.indptr[last]
        data, indices = world.data[lo:hi], world.indices[lo:hi]
        halo = indices >= n_cols
        assert data[~halo].tobytes() == blocks.diag.data.tobytes()
        assert data[halo].tobytes() == blocks.offd.data.tobytes()
        np.testing.assert_array_equal(indices[~halo] - blocks.col_range[0],
                                      blocks.diag.indices)
        np.testing.assert_array_equal(indices[halo] - n_cols - g0,
                                      blocks.offd.indices)


@st.composite
def _partitioned_csr(draw):
    n_rows, n_cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    n_ranks = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < draw(st.floats(0.0, 0.7))) \
        * rng.standard_normal((n_rows, n_cols))

    def partition(n):
        cuts = np.sort(rng.integers(0, n + 1, size=n_ranks - 1))
        return RowPartition(np.concatenate(([0], cuts, [n])).tolist())

    return ParCSRMatrix(sp.csr_matrix(dense), partition(n_rows),
                        partition(n_cols)), rng.standard_normal(n_cols)


@settings(max_examples=60, deadline=None)
@given(_partitioned_csr())
def test_stacked_operator_on_random_csrs(case):
    matrix, x = case
    _assert_stacked_is_the_assembled_matrix(matrix)
    stacked = matrix.stacked_blocks()
    buffer = np.concatenate([x, x[stacked.col_map_offd]])
    assert (stacked.operator @ buffer).tobytes() == (matrix.matrix @ x).tobytes()


def test_pattern_delivers_each_rank_its_col_map_offd(operator):
    """One halo description: the pattern's receive side is the per-rank
    oracle's column map."""
    pattern = pattern_from_parcsr(operator)
    for blocks in _reference_blocks(operator):
        received = pattern.recv_map(blocks.rank)
        got = np.sort(np.concatenate(list(received.values()))) \
            if received else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(got, blocks.col_map_offd)


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
    """... and both to the assembled product: one stored order everywhere."""
    mapping = paper_mapping(operator.n_ranks, ranks_per_node=4)
    x = rng.standard_normal(operator.n_cols)
    assembled = operator.matrix @ x
    threads = distributed_spmv_results(operator, mapping, x, variant=variant,
                                       runtime="threads")
    assert threads.tobytes() == assembled.tobytes()
    with WorldSpMV(operator, mapping, variant=variant, runtime=runtime,
                   n_workers=2 if runtime == "procs" else None) as spmv:
        assert spmv.multiply(x).tobytes() == assembled.tobytes()
        assert spmv.multiply(-x).tobytes() == (-assembled).tobytes()


@pytest.mark.parametrize("runtime", ["engine", "procs", "threads"])
def test_non_canonical_input_has_one_answer(runtime, rng):
    """Unsorted indices and duplicates are summed once, at construction, so
    ``spmv()``, the world product and the per-rank product read one array."""
    canonical = rotated_anisotropic_diffusion((6, 6)).tocsr()
    # Every entry stored as two duplicates, each row's columns scrambled.
    rows = np.tile(np.repeat(np.arange(36), np.diff(canonical.indptr)), 2)
    split = rng.random(canonical.nnz)
    data = np.concatenate([canonical.data * split, canonical.data * (1 - split)])
    order = np.lexsort((rng.random(rows.size), rows))
    raw = sp.csr_matrix(
        (data[order], np.tile(canonical.indices, 2)[order],
         np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=36))))),
        shape=(36, 36))
    assert not raw.has_canonical_format and raw.nnz == 2 * canonical.nnz
    matrix = ParCSRMatrix(raw, RowPartition.even(36, 5))
    assert matrix.matrix.has_canonical_format and matrix.nnz == canonical.nnz
    assert raw.nnz == 2 * canonical.nnz, "the caller's matrix is left alone"
    x = rng.standard_normal(36)
    mapping = paper_mapping(5, ranks_per_node=4)
    product = distributed_spmv_results(matrix, mapping, x, runtime=runtime)
    assert product.tobytes() == matrix.spmv(x).tobytes()
    np.testing.assert_allclose(product, canonical @ x, rtol=1e-12, atol=1e-12)


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
    for runtime in ("engine", "procs"):
        with WorldSpMV(operator, mapping, variant=variant, runtime=runtime,
                       n_workers=2 if runtime == "procs" else None) as spmv:
            first = spmv.collective.recv_item_ids(0)
            assert first.size > 1 and np.all(np.diff(first) < 0)
            # Entries keep their stored (summation) order; only columns move.
            assert np.shares_memory(spmv._operator.data, operator.matrix.data)
            assert np.shares_memory(spmv._operator.indptr,
                                    operator.matrix.indptr)
            assert spmv.multiply(x).tobytes() == (operator.matrix @ x).tobytes()


def test_identity_delivery_shares_the_cached_operator():
    """One operator on one layout: both runtimes rewrite the same columns
    onto the same round buffer and share the assembled matrix's entries; a
    halo right behind ``x`` in map order is the cached operator itself."""
    operator = _square()
    stacked = operator.stacked_blocks()
    mapping = paper_mapping(operator.n_ranks, ranks_per_node=4)
    built = []
    for runtime in ("engine", "procs"):
        with WorldSpMV(operator, mapping, runtime=runtime,
                       n_workers=2 if runtime == "procs" else None) as spmv:
            engine, handle = spmv.collective.engine, spmv.collective.handle
            assert spmv._operator.shape[1] == engine.buffer_length(handle)
            assert np.shares_memory(spmv._operator.data, operator.matrix.data)
            built.append((spmv._operator.indices.copy(),
                          engine.halo_rows(handle).copy()))
            world = spmv.collective.world
    assert np.array_equal(built[0][0], built[1][0])
    assert np.array_equal(built[0][1], built[1][1])
    width = stacked.operator.shape[1]
    assert _operator_on_buffer(
        stacked, world, np.arange(operator.n_cols, width), width) \
        is stacked.operator


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
    halo_rows = operator.n_cols + np.arange(ids.size)
    with pytest.raises(ValidationError, match="rank 3 receives halo ids"):
        _operator_on_buffer(stacked, world, halo_rows,
                            operator.n_cols + ids.size)


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
        # Pattern and product share one stacking: A, Pᵀ and P of every
        # smoothed level, each exactly once.
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
