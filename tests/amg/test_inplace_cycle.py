"""The in-place solve phase: what it may write, what it returns, what it costs.

:class:`WorldVCycle` runs every update on vectors it allocated once, the
smoother writes each step into an ``out`` array and :meth:`WorldSpMV.multiply`
calls the ``csr_matvec`` kernel behind ``operator @ vector`` into a caller's
array.  This suite pins the contract that makes that safe — no argument is
ever written, no result shares memory with another or with the cycle's own
vectors, a bad ``out`` raises — and the kernel call itself against the
public ``@`` on every operator of a hierarchy, so a SciPy release that
changed ``csr_matvec`` fails here.  The call budget guard counts, with no
clock, the Python + C calls a whole cycle makes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amg.hierarchy import AMGHierarchy, AMGLevel, build_hierarchy
from repro.amg.solver import BoomerAMGSolver
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle
from repro.collectives.plan import Variant
from repro.simmpi import engine as engine_module
from repro.simmpi.engine import ExchangeEngine
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import WorldSpMV
from repro.sparse.stencils import rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError

N_RANKS = 8
#: Rank 3 owns no rows on any level.
UNEVEN = RowPartition([0, 90, 170, 170, 260, 350, 440, 510, 576])


def _hierarchy(**kwargs):
    matrix = ParCSRMatrix(rotated_anisotropic_diffusion((24, 24)), UNEVEN)
    return matrix, build_hierarchy(matrix, seed=1, **kwargs)


def _with_empty_coarsest(hierarchy: AMGHierarchy) -> AMGHierarchy:
    """``hierarchy`` with one more level below its coarsest: zero rows."""
    last = hierarchy.levels[-1]
    empty = ParCSRMatrix(sp.csr_matrix((0, 0)),
                         RowPartition(np.zeros(N_RANKS + 1, dtype=np.int64)))
    return AMGHierarchy(levels=hierarchy.levels[:-1] + [
        dataclasses.replace(last, prolongation=sp.csr_matrix((last.n_rows, 0))),
        AMGLevel(index=last.index + 1, matrix=empty)])


def _operators(cycle: WorldVCycle):
    """Every ``(name, WorldSpMV)`` of every smoothed level of ``cycle``."""
    for index, level in enumerate(cycle.levels):
        for name in ("spmv", "restrict", "prolong"):
            yield f"level {index} {name}", getattr(level, name)


@pytest.fixture(params=["built", "empty_coarsest"])
def hierarchy_case(request):
    matrix, hierarchy = _hierarchy()
    if request.param == "empty_coarsest":
        hierarchy = _with_empty_coarsest(hierarchy)
        assert hierarchy.levels[-1].matrix.n_rows == 0
    return matrix, hierarchy


# -- the product into ``out`` ---------------------------------------------------------


def test_multiply_into_out_is_the_public_product_on_every_operator(
        hierarchy_case, rng):
    """``multiply(x, out=)`` is byte-equal to ``operator @ buffer`` — the
    public product over the same round buffer — for ``A``, ``Pᵀ`` and ``P``
    of every level, a zero-row coarse side and an empty rank included.
    (``multiply(x)`` handing out a fresh array each call is pinned in
    ``tests/simmpi/test_staged_engine.py``.)"""
    _, hierarchy = hierarchy_case
    with WorldVCycle(hierarchy, paper_mapping(N_RANKS, ranks_per_node=4),
                     variant=Variant.FULL) as cycle:
        for name, spmv in _operators(cycle):
            x = rng.standard_normal(spmv.n_cols)
            expected = spmv._operator @ spmv.collective.engine.run(
                spmv.collective.handle, x)
            kept = x.copy()
            out = np.full(spmv.n_rows, np.nan)      # stale contents
            assert spmv.multiply(x, out=out) is out, name
            assert out.tobytes() == expected.tobytes(), name
            assert out.tobytes() == (spmv.matrix.matrix @ x).tobytes(), name
            assert x.tobytes() == kept.tobytes(), name


def test_a_bad_out_raises_before_the_round(rng):
    _, hierarchy = _hierarchy()
    rounds = []
    with WorldSpMV(hierarchy.levels[0].matrix,
                   paper_mapping(N_RANKS, ranks_per_node=4)) as spmv:
        run = spmv.collective.engine.run
        spmv.collective.engine.run = lambda handle, values: (
            rounds.append(handle), run(handle, values))[1]
        x = rng.standard_normal(spmv.n_cols)
        read_only = np.zeros(spmv.n_rows)
        read_only.flags.writeable = False
        for bad in (np.zeros(spmv.n_rows - 1), np.zeros((spmv.n_rows, 1)),
                    np.zeros(spmv.n_rows, dtype=np.float32),
                    np.zeros(2 * spmv.n_rows)[::2], read_only,
                    [0.0] * spmv.n_rows, x):
            with pytest.raises(ValidationError, match="out must be"):
                spmv.multiply(x, out=bad)
        assert rounds == []        # no round ran, no traffic counted


# -- the smoother into ``out`` ---------------------------------------------------------


def test_sweep_into_out_is_the_out_of_place_sweep(rng):
    _, hierarchy = _hierarchy()
    with WorldVCycle(hierarchy, paper_mapping(N_RANKS, ranks_per_node=4)) \
            as cycle:
        smoother = cycle.levels[0].smoother
        n = smoother.spmv.n_rows
        b, x = rng.standard_normal(n), rng.standard_normal(n)
        kept_b, kept_x = b.copy(), x.copy()
        fresh = smoother.sweep(b, x)
        out = np.full(n, np.nan)
        assert smoother.sweep(b, x, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        assert b.tobytes() == kept_b.tobytes() and x.tobytes() == kept_x.tobytes()
        for bad in (x, b, x[:], np.zeros(n - 1), np.zeros(n, dtype=np.float32),
                    [0.0] * n):
            with pytest.raises(ValidationError, match="out must be"):
                smoother.sweep(b, x, out=bad)


# -- the cycle's arguments and results -------------------------------------------------


@pytest.mark.parametrize("variant", [Variant.PARTIAL, "auto"])
def test_cycle_never_writes_its_arguments_and_results_share_nothing(
        hierarchy_case, variant, rng):
    matrix, hierarchy = hierarchy_case
    b = rng.standard_normal(matrix.n_rows)
    x0 = rng.standard_normal(matrix.n_rows)
    kept_b, kept_x = b.copy(), x0.copy()
    sequential = BoomerAMGSolver(matrix, hierarchy=hierarchy)
    with WorldAMGSolver(matrix, paper_mapping(N_RANKS, ranks_per_node=4),
                        hierarchy=hierarchy, variant=variant) as solver:
        cycle = solver.vcycle_executor
        first = solver.vcycle(b, x0)
        second = cycle.cycle(b, first)
        third = cycle.cycle(b, first)
        assert b.tobytes() == kept_b.tobytes()
        assert x0.tobytes() == kept_x.tobytes()
        owned = [vector for pair in cycle._vectors for vector in pair] \
            + cycle._rhs[1:]
        results = (first, second, third)
        for i, result in enumerate(results):
            assert not any(np.shares_memory(result, vector) for vector in owned)
            assert not any(np.shares_memory(result, other)
                           for other in results[i + 1:])
        # The iterates are still the sequential cycle's, to the bit.
        expected = sequential.vcycle(b, x0)
        assert first.tobytes() == expected.tobytes()
        expected = sequential.vcycle(b, expected)
        assert second.tobytes() == third.tobytes() == expected.tobytes()


# -- a bound handle's input rules --------------------------------------------------------


def test_a_bound_handle_admits_its_own_vector_and_casts_the_rest(
        count_calls, rng):
    """A vector of exactly the registered shape and dtype skips the full
    input check; every other input still goes through it, so value-
    preserving casts load and everything else raises as before."""
    _, hierarchy = _hierarchy()
    operator = hierarchy.levels[0].matrix
    n = operator.n_cols
    with ExchangeEngine(N_RANKS, runtime="engine") as engine, \
            WorldSpMV(operator, paper_mapping(N_RANKS, ranks_per_node=4),
                      engine=engine) as spmv:
        handle = spmv.collective.handle
        x = rng.standard_normal(n)
        cast = np.arange(n) % 7
        # A strided float64 view is the registered shape and dtype too.
        for values, loads in ((x, 0), (np.repeat(x, 2)[::2], 0),
                              (cast.astype(np.float32), 1),
                              (cast.astype(np.int32), 1)):
            assert count_calls(engine.run, handle, values,
                               of=[ExchangeEngine._load_values]) == loads
            expected = spmv.matrix.matrix @ values.astype(np.float64)
            assert spmv.multiply(values).tobytes() == expected.tobytes()
        for bad, match in ((x.astype(np.complex128), "safely cast"),
                           (x[:-1], rf"\({n},\)"), (np.zeros((n, 1)), rf"\({n},\)"),
                           (list(x), rf"\({n},\)")):
            with pytest.raises(ValidationError, match=match):
                engine.run(handle, bad)
        assert spmv.multiply(x).tobytes() == (operator.matrix @ x).tobytes()


# -- the call budget ------------------------------------------------------------------


#: Python + C calls one cycle may make: per smoothed level (three engine
#: rounds for the smoother and residual, one each for restrict and prolong,
#: two sweeps' arithmetic) and once for the entry, coarse gather and solve.
#: Half of what the out-of-place cycle made (335 per level, 68 once).
CALLS_PER_LEVEL, CALLS_ONCE = 167, 34


@pytest.mark.parametrize("levels", [2, 4])
def test_cycle_call_budget_per_level(count_calls, levels, rng):
    """A cycle's call count depends on its level count alone: the same on
    4x the rows, and within the per-level budget."""
    counts = []
    for grid in (16, 32):
        n = grid * grid
        matrix = ParCSRMatrix(rotated_anisotropic_diffusion((grid, grid)),
                              RowPartition.even(n, N_RANKS))
        hierarchy = build_hierarchy(matrix, seed=1, max_levels=levels)
        assert hierarchy.n_levels == levels
        b, x = rng.standard_normal(n), rng.standard_normal(n)
        with ExchangeEngine(N_RANKS, runtime="engine") as engine:
            cycle = WorldVCycle(hierarchy, paper_mapping(N_RANKS,
                                                         ranks_per_node=4),
                                engine=engine)
            cycle.cycle(b, x)           # lazy state settles before counting
            counts.append(count_calls(cycle.cycle, b, x))
            assert count_calls(cycle.cycle, b, x,
                               of=[engine_module._checked_steps]) == 0
    assert counts[0] == counts[1], counts
    assert counts[0] <= CALLS_PER_LEVEL * (levels - 1) + CALLS_ONCE, counts
