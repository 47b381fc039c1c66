"""Set-up's one stable order is ``np.lexsort``'s, on every key it can meet.

``lexsort_packed`` packs the key columns and the row index into one int64 and
runs a plain sort, and hands the rows to ``np.lexsort`` when that tagged key
overflows, whether the keys alone do or only the row index beside them.
Over bool, int32 and int64 columns, negative keys, keys far from zero, 0 and
1 rows and spans that force each path, the order must be ``np.lexsort``'s.
``unique_keys_segmented`` (one tagged sort and a first-of-run keep mask)
must keep what a per-segment ``np.unique(..., return_index=True)`` keeps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.collectives.dedup import unique_keys_segmented
from repro.utils.arrays import lexsort_packed, tagged_sort

#: Value widths of a column: ties, wide, and wide enough that two such
#: columns (or one beside the row index) overflow the packed key.
WIDTHS = (1, 4, 2 ** 20, 2 ** 40, 2 ** 62)


@st.composite
def key_columns(draw):
    n_rows = draw(st.sampled_from([0, 1, 2, 3, 9, 40]))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(["bool", "int32", "int64"]))
        if dtype == "bool":
            values = draw(st.lists(st.booleans(), min_size=n_rows,
                                   max_size=n_rows))
        else:
            info = np.iinfo(dtype)
            width = min(draw(st.sampled_from(WIDTHS)), int(info.max))
            low = draw(st.integers(int(info.min), int(info.max) - width + 1))
            values = draw(st.lists(st.integers(low, low + width - 1),
                                   min_size=n_rows, max_size=n_rows))
        columns.append(np.array(values, dtype=dtype))
    return columns


def _int64(values):
    return np.array(values, dtype=np.int64)


#: The tagged sort, and ``np.lexsort`` for keys that fit in int64 while the
#: row index beside them does not, and for keys that do not fit either.
PATHS = {
    "tagged": [_int64([3, -1, 3, 2 ** 40]), _int64([0, 5, -7, 0])],
    "rows-overflow": [_int64([2 ** 61, -2 ** 61, 0, 2 ** 61, 7])],
    "keys-overflow": [_int64([2 ** 40, 0, 2 ** 40, 5]),
                      _int64([-2 ** 40, 2 ** 40, -2 ** 40, 1])],
}


@settings(max_examples=200, deadline=None)
@given(columns=key_columns())
@example(columns=PATHS["tagged"])
@example(columns=PATHS["rows-overflow"])
@example(columns=PATHS["keys-overflow"])
@example(columns=[np.array([3, 1, 2, 0], dtype=np.int32),
                  np.array([5, 7, 1, 2], dtype=np.int32)])
@example(columns=[np.array([True, False, True]), np.array([2 ** 31 - 1, 0, 1],
                                                          dtype=np.int32)])
def test_the_order_is_lexsorts(columns):
    order = lexsort_packed(*columns)
    assert order.dtype == np.int64
    assert order.tolist() == np.lexsort(columns[::-1]).tolist()


@pytest.mark.parametrize("path", sorted(PATHS))
def test_each_path_case_takes_its_path(path):
    assert (tagged_sort(PATHS[path]) is not None) == (path == "tagged")


@st.composite
def segmented_keys(draw):
    sizes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    width = draw(st.sampled_from([3, 50, 2 ** 62]))
    keys = draw(st.lists(st.integers(-width, width), min_size=sum(sizes),
                         max_size=sum(sizes)))
    return sizes, keys


def _unique_oracle(sizes, keys):
    firsts, counts, offset = [], [], 0
    for size in sizes:
        _, index = np.unique(keys[offset:offset + size], return_index=True)
        firsts.extend(sorted((offset + index).tolist()))
        counts.append(index.size)
        offset += size
    return firsts, counts


@settings(max_examples=100, deadline=None)
@given(case=segmented_keys())
@example(case=([3, 0, 4], [2 ** 62, -2 ** 62, 2 ** 62,
                           -2 ** 62, 0, -2 ** 62, 2 ** 62]))
def test_unique_keys_segmented_is_a_per_segment_unique(case):
    sizes, keys = case
    keys = _int64(keys)
    firsts, kept_offsets = unique_keys_segmented(
        np.cumsum([0] + sizes), keys)
    expected_firsts, expected_counts = _unique_oracle(sizes, keys)
    assert firsts.tolist() == expected_firsts
    assert np.diff(kept_offsets).tolist() == expected_counts
    assert kept_offsets.dtype == np.int64 and kept_offsets[0] == 0


def test_the_overflow_case_overflows_the_tagged_key():
    """The pinned example of the segmented test takes its fallback."""
    keys = _int64([2 ** 62, -2 ** 62, 2 ** 62, -2 ** 62, 0, -2 ** 62, 2 ** 62])
    segments = _int64([0, 0, 0, 2, 2, 2, 2])
    assert tagged_sort([segments, keys]) is None
