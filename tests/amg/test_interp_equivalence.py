"""The array-pass set-up against its row-loop oracle.

``direct_interpolation`` and Galerkin truncation are passes over the expanded
CSR entries; ``reference_setup.py`` keeps the loops they replaced.  The
contract: the sparsity pattern of every ``P`` and of every truncated operator
is exactly the loop's, the values agree to ``rtol=1e-13`` (row sums of eight or
more terms are reduced in a different order), and therefore a hierarchy built
with either has the same levels, partitions and iteration count.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import reference_setup
import repro.amg.hierarchy as hierarchy_module
from repro.amg.coarsen import CPOINT, FPOINT, SplittingResult, pmis_coarsening
from repro.amg.galerkin import _truncate, galerkin_product
from repro.amg.hierarchy import build_hierarchy
from repro.amg.interp import direct_interpolation
from repro.amg.solver import BoomerAMGSolver
from repro.amg.strength import classical_strength
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion

GRID = 64
STENCILS = {"poisson": poisson_2d,
            "rotated_anisotropic": rotated_anisotropic_diffusion}
RTOL = 1e-13


def assert_same_matrix(actual: sp.csr_matrix, oracle: sp.csr_matrix, *,
                       atol: float = 0.0) -> None:
    assert actual.shape == oracle.shape
    assert actual.has_canonical_format
    np.testing.assert_array_equal(actual.indptr, oracle.indptr)
    np.testing.assert_array_equal(actual.indices, oracle.indices)
    np.testing.assert_allclose(actual.data, oracle.data, rtol=RTOL, atol=atol)


def assert_short_rows_bit_equal(A: sp.csr_matrix, actual: sp.csr_matrix,
                                oracle: sp.csr_matrix) -> None:
    """Rows of ``A`` with fewer than eight off-diagonals: not one bit moves."""
    short = np.repeat(np.diff(A.indptr) <= 8, np.diff(actual.indptr))
    assert short.any()
    np.testing.assert_array_equal(actual.data[short], oracle.data[short])


def distributed(stencil: str) -> ParCSRMatrix:
    return ParCSRMatrix(STENCILS[stencil]((GRID, GRID)),
                        RowPartition.even(GRID * GRID, 16))


# -- (a) every level of the two stencils' hierarchies -------------------------------


@pytest.mark.parametrize("stencil", sorted(STENCILS))
def test_every_level_matches_the_row_loop(stencil):
    hierarchy = build_hierarchy(distributed(stencil))
    assert hierarchy.n_levels >= 5
    for level in hierarchy.levels[:-1]:
        A = level.matrix.matrix
        S = classical_strength(A)
        P = direct_interpolation(A, S, level.splitting)
        oracle = reference_setup.direct_interpolation(A, S, level.splitting)
        assert_same_matrix(P, oracle)
        assert_short_rows_bit_equal(A, P, oracle)
        assert_same_matrix(_truncate(A, 0.1), reference_setup._truncate(A, 0.1))


# -- (b) what the two stencils never produce ----------------------------------------


def raw_csr(n: int, rows: list, index_dtype) -> sp.csr_matrix:
    """CSR straight from per-row ``(col, value)`` lists: entry order, duplicate
    ``(row, col)`` pairs and explicit zeros are stored as given."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    matrix = sp.csr_matrix((np.array([v for row in rows for _, v in row], dtype=np.float64),
                            np.array([c for row in rows for c, _ in row], dtype=np.int64),
                            indptr), shape=(n, n))
    # The constructor narrows small index arrays to int32; put the dtype under
    # test back.
    matrix.indices = matrix.indices.astype(index_dtype)
    matrix.indptr = matrix.indptr.astype(index_dtype)
    return matrix


@st.composite
def setup_inputs(draw):
    """``(A, S, splitting)`` with mixed signs, duplicates, zeros, unsorted rows.

    Values are multiples of 1/4, so every row sum is exact in any order and a
    pair of duplicate weights of opposite sign cancels identically in both
    implementations; what is under test here is the branch structure.
    """
    n = draw(st.integers(2, 9))
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    value = st.integers(-8, 8).map(lambda k: k / 4.0)   # 0.0 is an explicit zero
    a_rows, s_rows = [], []
    for i in range(n):
        off_cols = st.integers(0, n - 2).map(lambda c, i=i: c + (c >= i))
        entries = draw(st.lists(st.tuples(off_cols, value), max_size=12))
        # A diagonal of either sign that is an odd multiple of 1/8: never zero,
        # and never cancelled by the positive couplings lumped into it.
        entries.append((i, draw(st.integers(-16, 15)) / 4.0 + 0.125))
        a_rows.append(draw(st.permutations(entries)))
        # S: any (row, col) at all — a subset of A's structure, entries absent
        # from A, duplicates — with 0/1 values (membership is structural).
        s_rows.append(draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from([0.0, 1.0])), max_size=8)))
    is_coarse = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    is_coarse[draw(st.integers(0, n - 1))] = True                 # n_coarse >= 1
    coarse_index = np.where(is_coarse, np.cumsum(is_coarse) - 1, -1)
    splitting = SplittingResult(splitting=np.where(is_coarse, CPOINT, FPOINT),
                                coarse_index=coarse_index)
    return raw_csr(n, a_rows, index_dtype), raw_csr(n, s_rows, index_dtype), splitting


@settings(max_examples=300, deadline=None)
@given(setup_inputs())
def test_random_structure_matches_the_row_loop(inputs):
    A, S, splitting = inputs
    oracle = reference_setup.direct_interpolation(A, S, splitting)
    # Duplicate (row, col) weights of opposite sign are summed by scipy in an
    # order neither implementation fixes, so an entry that nearly cancels is
    # only held to the matrix's scale.
    assert_same_matrix(direct_interpolation(A, S, splitting), oracle,
                       atol=RTOL * np.abs(oracle.data).max())


@settings(max_examples=100, deadline=None)
@given(setup_inputs(), st.sampled_from([0.05, 0.25, 0.5, 1.0]))
def test_random_truncation_matches_the_row_loop(inputs, truncation):
    A = inputs[0].copy()
    A.sum_duplicates()          # what galerkin_product hands _truncate
    A.eliminate_zeros()
    assert_same_matrix(_truncate(A, truncation), reference_setup._truncate(A, truncation))


def splitting_of(coarse: list, n: int) -> SplittingResult:
    is_coarse = np.isin(np.arange(n), coarse)
    return SplittingResult(splitting=np.where(is_coarse, CPOINT, FPOINT),
                           coarse_index=np.where(is_coarse, np.cumsum(is_coarse) - 1, -1))


class TestNamedBranches:
    """One hand-written case per branch, so none depends on what hypothesis drew."""

    def check(self, A, S, splitting) -> sp.csr_matrix:
        P = direct_interpolation(A, S, splitting)
        assert_same_matrix(P, reference_setup.direct_interpolation(A, S, splitting))
        return P

    def test_positive_couplings_without_positive_c_neighbour_are_lumped(self):
        A = sp.csr_matrix(np.array([[4.0, -1.0, 1.0],
                                    [-1.0, 4.0, 0.0],
                                    [1.0, 0.0, 4.0]]))
        S = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0, 0], [0, 0, 0]]))
        P = self.check(A, S, splitting_of([1], 3))
        # alpha = 1 and the +1 coupling joins the diagonal: -(-1) / (4 + 1).
        assert P[0, 0] == pytest.approx(0.2)

    def test_mixed_signs_with_both_kinds_of_c_neighbour(self):
        A = sp.csr_matrix(np.array([[4.0, -1.0, 0.5, -2.0, 1.5],
                                    [-1.0, 4.0, 0, 0, 0], [0.5, 0, 4.0, 0, 0],
                                    [-2.0, 0, 0, 4.0, 0], [1.5, 0, 0, 0, 4.0]]))
        S = sp.csr_matrix((A != 0).astype(float) - sp.identity(5))
        P = self.check(A, S, splitting_of([1, 2], 5))
        assert P[0, 0] > 0 > P[0, 1]

    def test_f_row_without_strong_c_neighbour_is_empty(self):
        A = poisson_2d((3, 3))
        S = classical_strength(A)
        P = self.check(A, S, splitting_of([0], 9))      # only rows 1 and 3 touch C
        assert P[8].nnz == 0 and P[1].nnz == 1

    def test_strength_entries_absent_from_the_matrix_contribute_nothing(self):
        A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        S = sp.csr_matrix(np.ones((3, 3)))              # (0, 2) is not in A
        P = self.check(A, S, splitting_of([1, 2], 3))
        assert P[0].indices.tolist() == [0]

    def test_explicit_zero_in_the_strength_matrix_still_counts(self):
        A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        S = sp.csr_matrix((np.array([0.0]), np.array([1]), np.array([0, 1, 1])), shape=(2, 2))
        P = self.check(A, S, splitting_of([1], 2))
        assert P[0, 0] == pytest.approx(0.5)

    def test_duplicates_and_unsorted_indices(self):
        A = raw_csr(3, [[(2, -1.0), (0, 4.0), (1, -0.5), (2, -1.0), (1, 0.0)],
                        [(1, 4.0), (0, -1.0)], [(0, -1.0), (2, 4.0)]], np.int64)
        S = raw_csr(3, [[(2, 1.0), (1, 1.0), (2, 1.0)], [(0, 1.0)], [(0, 1.0)]], np.int32)
        P = self.check(A, S, splitting_of([1, 2], 3))
        assert P[0].nnz == 2


# -- (c) a whole hierarchy built with the oracle ------------------------------------


@pytest.mark.parametrize("stencil", sorted(STENCILS))
def test_hierarchy_is_the_one_the_row_loop_builds(stencil, monkeypatch):
    matrix = distributed(stencil)
    built = build_hierarchy(matrix)
    monkeypatch.setattr(hierarchy_module, "direct_interpolation",
                        reference_setup.direct_interpolation)
    oracle = build_hierarchy(matrix)

    assert built.n_levels == oracle.n_levels
    for level, expected in zip(built.levels, oracle.levels):
        np.testing.assert_array_equal(level.matrix.matrix.indptr,
                                      expected.matrix.matrix.indptr)
        np.testing.assert_array_equal(level.matrix.matrix.indices,
                                      expected.matrix.matrix.indices)
        np.testing.assert_array_equal(level.matrix.partition.offsets,
                                      expected.matrix.partition.offsets)

    b = np.random.default_rng(0).standard_normal(matrix.n_rows)
    results = [BoomerAMGSolver(matrix, hierarchy=h).solve(b, tol=1e-8, max_iterations=200)
               for h in (built, oracle)]
    assert results[0].converged and results[1].converged
    assert results[0].iterations == results[1].iterations


# -- the loop does not come back (no wall clock) ------------------------------------


def interpolation_inputs(grid: int):
    A = poisson_2d((grid, grid))
    S = classical_strength(A)
    return A, S, pmis_coarsening(S)


def test_interpolation_call_count_does_not_grow_with_rows(count_calls):
    small = count_calls(direct_interpolation, *interpolation_inputs(16))
    large = count_calls(direct_interpolation, *interpolation_inputs(64))
    assert large <= 2 * small


def test_truncated_galerkin_call_count_does_not_grow_with_rows(count_calls):
    counts = []
    for grid in (16, 64):
        A, S, splitting = interpolation_inputs(grid)
        P = direct_interpolation(A, S, splitting)
        counts.append(count_calls(galerkin_product, A, P, truncation=0.1))
    assert counts[1] <= 2 * counts[0]
