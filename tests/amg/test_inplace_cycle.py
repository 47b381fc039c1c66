"""The in-place solve phase: what it may write, what it returns, what it costs.

:class:`WorldVCycle` runs every update on vectors it allocated once, the
smoother writes each step into an ``out`` array and :meth:`WorldSpMV.multiply`
calls a SciPy kernel into a caller's array: ``csr_matvec``, the kernel behind
``operator @ vector``, or on irregular rows ``coo_matvec`` over the same
entries in the same order.  This suite pins the contract that makes that
safe — no argument is ever written, no result shares memory with another or
with the cycle's own vectors, a bad ``out`` raises — and the kernel call
itself against the public ``@`` on every operator of a hierarchy, so a SciPy
release that changed ``csr_matvec`` fails here (``coo_matvec`` has its own
canary in ``tests/sparse/test_product_layouts.py``).  It also pins, with no
clock, which operators take which kernel and the Python + C calls a whole
cycle makes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_matvec, csr_matvec

from repro.amg.hierarchy import AMGHierarchy, AMGLevel, build_hierarchy
from repro.amg.solver import BoomerAMGSolver
from repro.amg.vcycle import WorldAMGSolver, WorldVCycle
from repro.collectives.plan import Variant
from repro.simmpi import engine as engine_module
from repro.simmpi.engine import ExchangeEngine
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import IRREGULAR_ROWS, WorldSpMV
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


def test_the_fine_operator_keeps_the_row_loop_and_prolongations_stream_entries(
        hierarchy_case):
    """Each operator's kernel follows from its rows alone, with no clock.
    The fine ``A`` and ``Pᵀ`` (nearly every row the same length) keep
    ``csr_matvec``; the prolongations of the two finest levels (one-entry
    C rows among two-entry F rows) and the coarse ``A`` s, whose stencils
    have spread unevenly, run ``coo_matvec``.  Small coarse operators fall
    either side of the share, by the same rule."""
    _, hierarchy = hierarchy_case
    with WorldVCycle(hierarchy, paper_mapping(N_RANKS, ranks_per_node=4)) \
            as cycle:
        for name, spmv in _operators(cycle):
            lengths = np.diff(spmv._operator.indptr)
            share = np.count_nonzero(np.diff(lengths)) / (lengths.size - 1)
            expected = coo_matvec if share > IRREGULAR_ROWS else csr_matvec
            assert spmv._kernel is expected, (name, share)
        levels = cycle.levels
        assert levels[0].spmv._kernel is csr_matvec
        assert levels[0].restrict._kernel is csr_matvec
        assert [level.prolong._kernel for level in levels[:2]] \
            == [coo_matvec] * 2
        assert [level.spmv._kernel for level in levels[1:4]] \
            == [coo_matvec] * 3


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


def test_an_out_sharing_memory_with_x_raises_and_leaves_x_alone(rng):
    """A view of ``x`` (``x[:]``, ``x.reshape(n)``, ``x.view()``) is not
    ``x`` itself, but zeroing it before the round would zero ``x``: it is
    refused like ``x``, before anything is written."""
    _, hierarchy = _hierarchy()
    matrix = hierarchy.levels[0].matrix
    with WorldSpMV(matrix, paper_mapping(N_RANKS, ranks_per_node=4)) as spmv:
        assert spmv.n_rows == spmv.n_cols
        x = rng.standard_normal(spmv.n_cols)
        kept = x.copy()
        for alias in (x[:], x.reshape(spmv.n_cols), x.view()):
            assert alias is not x
            with pytest.raises(ValidationError, match="out must be"):
                spmv.multiply(x, out=alias)
            assert x.tobytes() == kept.tobytes()
        assert spmv.multiply(x).tobytes() == (matrix.matrix @ x).tobytes()


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


def test_residual_refuses_the_shapes_cycle_refuses(rng):
    """``residual(b, x)`` takes :meth:`WorldVCycle.cycle`'s shapes and raises
    its error: an ``(n, 1)`` ``b`` used to broadcast against the ``(n,)``
    product into an ``(n, n)`` "residual"."""
    matrix, hierarchy = _hierarchy()
    n = matrix.n_rows
    b, x = rng.standard_normal(n), rng.standard_normal(n)
    with WorldVCycle(hierarchy, paper_mapping(N_RANKS, ranks_per_node=4)) \
            as cycle:
        for bad_b, bad_x in ((b[:, None], x), (np.ones(n + 1), x),
                             (b, x[:, None]), (b, np.zeros(n + 1)),
                             (b, x[:-1])):
            for method in (cycle.residual, cycle.cycle):
                with pytest.raises(ValidationError,
                                   match=rf"b and x must have shape \({n},\)"):
                    method(bad_b, bad_x)
        assert cycle.residual(b, x).tobytes() \
            == (b - matrix.matrix @ x).tobytes()


@pytest.mark.parametrize("form", ["float64", "float32", "list"])
def test_residual_writes_into_its_product(monkeypatch, rng, form):
    """``residual(b, x)`` makes one n-vector: ``b - A x`` is written into
    the fresh array ``multiply`` returned, bit for bit the assembled
    ``b - A @ x`` for a float64, a float32 and a list ``b``."""
    matrix, hierarchy = _hierarchy()
    n = matrix.n_rows
    b, x = rng.standard_normal(n), rng.standard_normal(n)
    b = {"float64": b, "float32": b.astype(np.float32),
         "list": b.tolist()}[form]
    with WorldVCycle(hierarchy, paper_mapping(N_RANKS, ranks_per_node=4)) \
            as cycle:
        spmv = cycle.fine_spmv
        products = []

        def multiply(vector):
            products.append(WorldSpMV.multiply(spmv, vector))
            return products[-1]

        monkeypatch.setattr(spmv, "multiply", multiply)
        residual = cycle.residual(b, x)
    assert len(products) == 1 and residual is products[0]
    assert residual.dtype == np.float64
    assert residual.tobytes() == (b - matrix.matrix @ x).tobytes()


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


#: Python + C calls one cycle makes: per smoothed level (three engine
#: rounds for the smoother and residual, one each for restrict and prolong,
#: two sweeps' arithmetic) and once for the entry, coarse gather and solve —
#: the measured counts, 121 calls at two levels and 269 at four.
CALLS_PER_LEVEL, CALLS_ONCE = 74, 47


@pytest.mark.parametrize("levels", [2, 4])
def test_cycle_call_budget_per_level(count_calls, levels, rng, monkeypatch):
    """A cycle's call count depends on its level count alone: the same on
    4x the rows, and within the per-level budget.  Its overlap checks are
    the public ``sweep`` / ``multiply`` ones, once per call: two per sweep
    (``out`` against ``b`` and ``x``) and one per product."""
    overlap_checks = []
    may_share_memory = np.may_share_memory
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
            with monkeypatch.context() as patch:
                patch.setattr(np, "may_share_memory", lambda *args: (
                    overlap_checks.append(args), may_share_memory(*args))[1])
                cycle.cycle(b, x)
            sweeps = cycle.pre_sweeps + cycle.post_sweeps
            assert len(overlap_checks) == (3 * sweeps + 3) * (levels - 1)
            overlap_checks.clear()
            assert count_calls(cycle.cycle, b, x,
                               of=[engine_module._checked_steps]) == 0
    assert counts[0] == counts[1], counts
    assert counts[0] <= CALLS_PER_LEVEL * (levels - 1) + CALLS_ONCE, counts


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL],
                         ids=str)
def test_cycle_makes_one_round_per_exchange_and_one_take_per_receive_step(
        count_calls, variant):
    """The engine-stepped V-cycle is the sequential cycle, in O(levels) calls.

    One whole AMG V-cycle (pre-smooth, residual, restrict, coarse gather +
    solve, prolong-correct, post-smooth) on a 1600-row anisotropic hierarchy,
    executed with ``WorldVCycle`` through the batched ``ExchangeEngine`` and
    with the sequential ``BoomerAMGSolver``.  Clock-free: the iterates must be
    equal to the bit, and what made the engine cycle fast is counted — one
    engine round per round of the cycle's schedule, each one
    receive step made by one ``take`` whatever hops the variant composes,
    nothing validated after set-up, and not one call more at 64 ranks than
    at 32 (no per-rank or per-message Python work on the solve path).
    """
    stencil = rotated_anisotropic_diffusion((40, 40))
    rng = np.random.default_rng(5)
    b = rng.standard_normal(1600)
    x0 = rng.standard_normal(1600)

    def counted_world_cycle(n_ranks):
        """The iterate and ``(run, take, _checked_steps, all)`` calls
        of one cycle."""
        matrix = ParCSRMatrix(stencil, RowPartition.even(1600, n_ranks))
        hierarchy = build_hierarchy(matrix, seed=1)
        mapping = paper_mapping(n_ranks, ranks_per_node=16)
        iterates = []
        # Every gather is one ``ndarray.take`` call, so gathers are countable.
        with ExchangeEngine(n_ranks, runtime="engine") as engine:
            world = WorldVCycle(hierarchy, mapping, variant=variant,
                                engine=engine)
            world.cycle(b, x0)          # lazy caches settle before counting

            def cycle():
                iterates.append(world.cycle(b, x0))

            counts = tuple(
                count_calls(cycle, of=of) for of in (
                    [ExchangeEngine.run], [np.ndarray.take],
                    [engine_module._checked_steps], None))
            rounds = sum(row.cycle_rounds for row in world.schedule)
        assert counts[:3] == (rounds, rounds, 0)
        assert all(np.array_equal(iterate, iterates[0]) for iterate in iterates)
        sequential = BoomerAMGSolver(matrix, hierarchy=hierarchy).vcycle(b, x0)
        assert np.array_equal(iterates[0], sequential)
        return iterates[0], counts

    world_x, counts = counted_world_cycle(32)
    wider_x, wider_counts = counted_world_cycle(64)
    assert np.array_equal(wider_x, world_x)     # the partition never shows
    assert wider_counts == counts


# -- the solve loop's residual -----------------------------------------------------------


@pytest.mark.parametrize("pre_sweeps", [0, 1, 2])
@pytest.mark.parametrize("variant", [Variant.PARTIAL, "auto"])
def test_solve_hands_its_checked_residual_to_the_next_cycle(
        count_calls, variant, pre_sweeps, rng):
    """The convergence check's ``b - A x`` is the first pre-smoothing
    sweep's: a steady iteration makes the schedule's ``solve_rounds`` engine
    rounds — one cycle and one check, less the product the handed residual
    saves — where checking and cycling apart make one more.  With no
    pre-sweep there is nothing to hand over.  ``"auto"`` commits each
    level's variant at set-up, so its cycle is a fixed-variant cycle and
    hands over the same.  Either way the solve is the sequential solver's
    to the bit."""
    matrix, hierarchy = _hierarchy()
    b = rng.standard_normal(matrix.n_rows)
    with WorldAMGSolver(matrix, paper_mapping(N_RANKS, ranks_per_node=4),
                        hierarchy=hierarchy, variant=variant,
                        pre_sweeps=pre_sweeps) as solver:
        rounds = [count_calls(solver.solve, b, tol=0.0, max_iterations=k,
                              of=[ExchangeEngine.run]) for k in (3, 4)]
        result = solver.solve(b, tol=1e-8, max_iterations=60)
    schedule = solver.vcycle_executor.schedule
    cycle_rounds = sum(row.cycle_rounds for row in schedule)
    assert rounds[1] - rounds[0] == sum(row.solve_rounds for row in schedule)
    assert rounds[1] - rounds[0] == cycle_rounds + 1 - (pre_sweeps > 0)
    expected = BoomerAMGSolver(matrix, hierarchy=hierarchy,
                               pre_sweeps=pre_sweeps).solve(
        b, tol=1e-8, max_iterations=60)
    assert result.iterations == expected.iterations
    assert result.converged == expected.converged
    assert result.residual_norms == expected.residual_norms
    assert result.solution.tobytes() == expected.solution.tobytes()
