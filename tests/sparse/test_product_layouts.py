"""The two row layouts of :class:`~repro.sparse.spmv.WorldSpMV`'s product.

An operator's product runs SciPy's row loop ``csr_matvec`` or, when its row
lengths keep changing, ``coo_matvec`` over the same entries with a row-index
column.  Both must return ``A @ x`` byte for byte — the public product the
sequential solver computes — on any CSR operator, canonical or not, and on
any ``x`` without NaN, infinities included.  A NaN in ``x`` keeps the values
and every non-NaN byte equal; only the sign of a NaN may differ, where NaNs
of both signs meet in one row: x86 keeps one operand's NaN, and the two
compiled kernels put that row's running sum on different sides of the
addition.  (A product of ``0 · inf`` is the one default NaN, so infinities
alone never bring two signs.)  The entry stream is SciPy's public COO
product ``A.tocoo() @ x`` byte for byte, NaNs included.

The canary pins the SciPy kernel itself: a release that changed
``coo_matvec``'s signature or the order it adds in fails here
(``tests/amg/test_inplace_cycle.py`` pins ``csr_matvec`` the same way).
The rule test pins which share of row-length changes picks which layout,
with no clock; ``test_inplace_cycle.py`` pins it on an AMG hierarchy.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse._sparsetools import coo_matvec, csr_matvec

from repro.sparse import spmv as spmv_module
from repro.sparse.spmv import _entry_stream, _kernel_of, _row_loop

#: Values where summation order and signs show: signed zeros, magnitudes
#: that absorb each other, infinities and NaN.
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16, 1e-300, 5e-324,
            np.inf, -np.inf, np.nan]
_value = st.sampled_from(_SPECIAL) | st.floats(allow_nan=True,
                                               allow_infinity=True, width=64)
_finite = st.sampled_from([v for v in _SPECIAL if np.isfinite(v)]) \
    | st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _operators(draw):
    """A CSR operator as stored: 0-12 rows of 0-6 entries each (empty rows
    included), columns drawn with repeats and in any order, the index
    dtype either width; never canonicalised."""
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(0, 6), min_size=n_rows,
                            max_size=n_rows))
    nnz = sum(lengths)
    indices = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz,
                            max_size=nnz))
    data = draw(st.lists(_finite, min_size=nnz, max_size=nnz))
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    operator = sp.csr_matrix((np.array(data, dtype=np.float64),
                              np.array(indices), indptr),
                             shape=(n_rows, n_cols))
    # SciPy narrows indices that fit to int32; widen them back by hand.
    operator.indices = operator.indices.astype(index_dtype)
    operator.indptr = operator.indptr.astype(index_dtype)
    return operator


def _apply(layout, operator, x):
    kernel, arguments = layout(operator)
    y = np.zeros(operator.shape[0])
    kernel(*arguments, x, y)
    return y


@settings(max_examples=300, deadline=None)
@given(data=st.data(), operator=_operators())
def test_both_layouts_are_the_public_product_byte_for_byte(data, operator):
    x = np.array(data.draw(st.lists(_value, min_size=operator.shape[1],
                                    max_size=operator.shape[1])),
                 dtype=np.float64)
    expected = operator @ x
    assert _apply(_row_loop, operator, x).tobytes() == expected.tobytes()
    streamed = _apply(_entry_stream, operator, x)
    assert streamed.tobytes() == (operator.tocoo() @ x).tobytes()
    if not np.isnan(x).any():
        assert streamed.tobytes() == expected.tobytes()
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(streamed), nan)
    assert streamed[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (1, 0), (1, 3), (3, 0)])
@pytest.mark.parametrize("layout", [_row_loop, _entry_stream],
                         ids=lambda layout: layout.__name__)
def test_empty_and_one_row_operators(layout, shape):
    operator = sp.csr_matrix(shape)
    x = np.full(shape[1], np.nan)
    assert _apply(layout, operator, x).tobytes() \
        == (operator @ x).tobytes() == np.zeros(shape[0]).tobytes()


def test_the_entry_stream_keeps_the_operator_arrays_and_adds_one_row_column():
    operator = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0],
                                       [0.0, 3.0, 0.0]]))
    kernel, (nnz, rows, indices, data) = _entry_stream(operator)
    assert kernel is coo_matvec and nnz == 3
    assert rows.tolist() == [0, 0, 2] and rows.dtype == operator.indices.dtype
    assert indices is operator.indices and data is operator.data


# -- the SciPy canary --------------------------------------------------------------------


def test_scipy_coo_matvec_adds_in_stored_order_into_y():
    """``coo_matvec(nnz, rows, cols, data, x, y)`` adds ``data[k] *
    x[cols[k]]`` into ``y[rows[k]]`` for ``k`` in stored order — the
    additions ``csr_matvec``'s running sum makes.  The entries are chosen so
    that any other order, or a kernel that overwrote ``y``, gives other
    bytes."""
    rows = np.array([0, 0, 0, 1, 1], dtype=np.int32)
    cols = np.array([0, 1, 2, 2, 1], dtype=np.int32)
    data = np.array([1e16, -1e16, 1.0, -0.0, -0.0])
    x = np.ones(3)
    start = np.array([0.5, -0.0])

    def added(order):
        y = start.copy()
        for k in order:
            y[rows[k]] += data[k] * x[cols[k]]
        return y

    stored = added(range(5))
    assert stored.tobytes() == np.array([1.0, -0.0]).tobytes()
    assert added(range(4, -1, -1)).tobytes() != stored.tobytes()
    y = start.copy()
    coo_matvec(5, rows, cols, data, x, y)
    assert y.tobytes() == stored.tobytes()
    y = start.copy()
    csr_matvec(2, 3, np.array([0, 3, 5], dtype=np.int32), cols, data, x, y)
    assert y.tobytes() == stored.tobytes()


# -- which operators take which layout ----------------------------------------------------


@pytest.mark.parametrize("lengths, kernel", [
    ([1, 2] * 8, coo_matvec),                     # every row changes length
    ([9] * 16, csr_matvec),                       # a regular stencil
    ([9] * 13 + [4, 6, 4], csr_matvec),           # 3 of 15 changes: 0.2
    ([9] * 13 + [4, 6, 4, 6], csr_matvec),        # 4 of 16: 0.25, not more
    ([9] * 11 + [4, 6, 4, 6, 4], coo_matvec),     # 5 of 15: 0.33
    ([3], csr_matvec), ([], csr_matvec)])
def test_the_layout_follows_the_share_of_length_changes(lengths, kernel):
    assert spmv_module.IRREGULAR_ROWS == 0.25
    indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    n_cols = max(lengths, default=1)
    indices = np.concatenate([np.arange(length) for length in lengths]) \
        if lengths else np.zeros(0, dtype=np.int64)
    operator = sp.csr_matrix((np.ones(indptr[-1]), indices, indptr),
                             shape=(len(lengths), n_cols))
    assert _kernel_of(operator)[0] is kernel
