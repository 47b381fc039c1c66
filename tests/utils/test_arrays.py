"""Unit tests for repro.utils.arrays."""

import numpy as np
import pytest

from repro.utils.arrays import (
    as_index_array,
    buffer_writable,
    concatenate_or_empty,
    counts_to_displs,
    expand_ranges,
    freeze_columns,
    frozen_copy_on_write,
    gather_ranges,
    group_rows_to_csr,
    lexsort_packed,
    partition_evenly,
    range_index,
    run_starts_mask,
    sort_unless_sorted,
    tagged_sort,
    unique_inverse,
)
from repro.utils.errors import ValidationError


class TestCountsDispls:
    def test_counts_to_displs_basic(self):
        displs = counts_to_displs([3, 0, 2, 5])
        assert displs.tolist() == [0, 3, 3, 5, 10]

    def test_counts_to_displs_diff_roundtrip(self):
        counts = np.array([4, 1, 0, 7])
        assert np.diff(counts_to_displs(counts)).tolist() == counts.tolist()

    def test_counts_to_displs_empty(self):
        assert counts_to_displs([]).tolist() == [0]

    def test_counts_to_displs_rejects_negative(self):
        with pytest.raises(ValidationError):
            counts_to_displs([2, -1])

class TestPartitionEvenly:
    def test_even_split(self):
        offsets = partition_evenly(12, 4)
        assert offsets.tolist() == [0, 3, 6, 9, 12]

    def test_remainder_goes_to_first_parts(self):
        offsets = partition_evenly(10, 4)
        sizes = np.diff(offsets).tolist()
        assert sizes == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        offsets = partition_evenly(2, 5)
        assert np.diff(offsets).tolist() == [1, 1, 0, 0, 0]

    def test_zero_items(self):
        assert partition_evenly(0, 3).tolist() == [0, 0, 0, 0]

    def test_invalid_parts(self):
        with pytest.raises(ValidationError):
            partition_evenly(10, 0)

    def test_negative_total(self):
        with pytest.raises(ValidationError):
            partition_evenly(-1, 2)


class TestGatherRanges:
    def test_matches_slice_loop(self):
        values = np.arange(100, 120)
        starts = np.array([3, 0, 17, 9])
        lengths = np.array([4, 2, 3, 0])
        expected = np.concatenate([values[s:s + n]
                                   for s, n in zip(starts, lengths)])
        assert gather_ranges(values, starts, lengths).tolist() == expected.tolist()

    def test_overlapping_and_repeated_ranges(self):
        values = np.array([10, 11, 12, 13])
        result = gather_ranges(values, np.array([1, 1, 0]), np.array([2, 2, 4]))
        assert result.tolist() == [11, 12, 11, 12, 10, 11, 12, 13]

    def test_empty_ranges(self):
        assert gather_ranges(np.arange(5), np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64)).size == 0
        assert gather_ranges(np.arange(5), np.array([2, 4]),
                             np.array([0, 0])).size == 0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValidationError, match="parallel"):
            gather_ranges(np.arange(5), np.array([0, 1]), np.array([1]))

    def test_negative_lengths_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            gather_ranges(np.arange(5), np.array([0]), np.array([-1]))

    @pytest.mark.parametrize("lengths", [[4, 2, 3, 0], [1, 1, 1], []])
    def test_the_unchecked_expansion_is_range_index_and_its_offsets(
            self, lengths):
        lengths = np.array(lengths, dtype=np.int64)
        starts = np.arange(lengths.size, dtype=np.int64) * 7
        index, offsets = expand_ranges(starts, lengths)
        assert index.tolist() == range_index(starts, lengths).tolist()
        assert offsets.tolist() == counts_to_displs(lengths).tolist()


class TestMisc:
    def test_as_index_array_scalar(self):
        assert as_index_array(3).tolist() == [3]

    def test_as_index_array_dtype(self):
        assert as_index_array([1, 2]).dtype == np.int64

    def test_concatenate_or_empty_skips_empty(self):
        result = concatenate_or_empty([np.array([1, 2]), np.array([]), np.array([3])])
        assert result.tolist() == [1, 2, 3]

    def test_concatenate_or_empty_all_empty(self):
        result = concatenate_or_empty([np.array([]), np.array([])])
        assert result.size == 0 and result.dtype == np.int64


class TestRunStartsMask:
    def test_empty(self):
        assert run_starts_mask(np.array([], dtype=np.int64)).size == 0

    def test_single_column(self):
        mask = run_starts_mask(np.array([1, 1, 2, 2, 2, 5]))
        assert mask.tolist() == [True, False, True, False, False, True]

    def test_any_column_change_starts_a_run(self):
        first = np.array([0, 0, 0, 1, 1])
        second = np.array([3, 3, 4, 4, 4])
        mask = run_starts_mask(first, second)
        assert mask.tolist() == [True, False, True, True, False]

    def test_single_row_starts_a_run(self):
        assert run_starts_mask(np.array([7]), np.array([9])).tolist() == [True]


class TestLexsortPacked:
    """One plain sort of row-tagged packed keys is ``np.lexsort``'s order."""

    def test_matches_lexsort_with_ties_and_negative_keys(self):
        rng = np.random.default_rng(3)
        for n_rows in (0, 1, 2, 17, 1000):
            for n_columns in (1, 2, 3):
                columns = [rng.integers(-4, 5, n_rows) for _ in range(n_columns)]
                assert lexsort_packed(*columns).tolist() == \
                    np.lexsort(columns[::-1]).tolist()

    def test_overflowing_keys_fall_back_to_lexsort(self):
        big = 2 ** 40
        a = np.array([big - 1, 0, big - 1, 3])
        b = np.array([5, big - 2, 5, 0])
        assert lexsort_packed(a, b).tolist() == np.lexsort((b, a)).tolist()

    def test_int32_and_bool_columns_pack_in_int64(self):
        """Keys pack in int64 whatever the columns' dtype: packed in int32,
        the first row's key ``3 · (6 · 2**28 + 1) + ...`` would wrap."""
        a = np.array([3, 1, 2, 0], dtype=np.int32)
        b = np.array([5, 7, 1, 2], dtype=np.int32)
        assert lexsort_packed(a, b * (2 ** 28)).tolist() == [3, 1, 2, 0]
        flags = np.array([True, False, True, False])
        assert lexsort_packed(flags, a).tolist() == [3, 1, 2, 0]
        assert lexsort_packed(a, flags).tolist() == [3, 1, 2, 0]

    def test_keys_that_fit_but_sit_far_from_zero(self):
        """The packed key fits in int64 while ``first · span + second``
        taken from zero does not: the minima come off column by column."""
        for a, b in (([3, 3], [0, 2 ** 62 - 40]),
                     ([2 ** 40, 2 ** 40 + 1, 2 ** 40], [0, 2 ** 23, 5]),
                     ([-2 ** 40, -2 ** 40 + 1], [2 ** 23, 0])):
            a, b = np.array(a), np.array(b)
            assert lexsort_packed(a, b).tolist() == np.lexsort((b, a)).tolist()


class TestTaggedSort:
    def test_each_key_is_a_run_of_its_rows_first_row_first(self):
        a = np.array([2, 0, 2, 1, 0, 2])
        b = np.array([5, 5, 5, 5, 5, 4])
        tagged, row_bits = tagged_sort((a, b))
        assert row_bits == 3
        assert (tagged & 7).tolist() == [1, 4, 3, 5, 0, 2]
        assert (tagged >> 3).tolist() == [1, 1, 3, 4, 5, 5]

    def test_overflowing_keys_give_none(self):
        big = 2 ** 62
        assert tagged_sort((np.array([big, -big]), np.array([1, 2]))) is None


class TestSortUnlessSorted:
    """Keys already in order are checked, not sorted again."""

    def test_sorts_in_place_and_skips_sorted_input(self, count_calls):
        rng = np.random.default_rng(5)
        for values in (np.arange(50), np.repeat(np.arange(5), 3),
                       rng.integers(-9, 9, 40), np.array([3]),
                       np.array([], dtype=np.int64)):
            expected = np.sort(values)
            was_sorted = values.tolist() == expected.tolist()
            sorts = count_calls(sort_unless_sorted, values,
                                of=[np.ndarray.sort])
            assert values.tolist() == expected.tolist()
            assert sorts == (0 if was_sorted else 1)

    def test_lexsort_packed_of_rows_in_order_sorts_nothing(self, count_calls):
        a = np.repeat(np.arange(6), 4)
        b = np.tile([1, 1, 2, 7], 6)
        assert count_calls(lexsort_packed, a, b, of=[np.ndarray.sort]) == 0
        assert lexsort_packed(a, b).tolist() == list(range(a.size))
        assert count_calls(lexsort_packed, b, a, of=[np.ndarray.sort]) == 1


class TestUniqueInverse:
    """One tagged sort gives ``np.unique``'s values and inverse, bytes and
    dtypes alike."""

    @pytest.mark.parametrize("high", [1, 4, 10 ** 6, 2 ** 40, 2 ** 62])
    def test_matches_np_unique(self, high):
        rng = np.random.default_rng(high % 97)
        for size in (0, 1, 2, 3, 50, 1000):
            keys = rng.integers(-high, high, size)
            values, inverse = unique_inverse(keys)
            expected_values, expected_inverse = np.unique(
                keys, return_inverse=True)
            for got, expected in ((values, expected_values),
                                  (inverse, expected_inverse)):
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()


class TestGroupRowsToCsr:
    def test_empty_rows(self):
        offsets, secondaries, item_offsets, items = group_rows_to_csr(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64))
        assert offsets.tolist() == [0, 0, 0, 0]
        assert secondaries.size == 0 and items.size == 0
        assert item_offsets.tolist() == [0]

    def test_groups_by_key_pair(self):
        primary = np.array([2, 0, 2, 0])
        secondary = np.array([1, 3, 1, 1])
        items = np.array([10, 11, 12, 13])
        offsets, secondaries, item_offsets, grouped = group_rows_to_csr(
            3, primary, secondary, items)
        # Key 0 has edges to 1 and 3, key 1 none, key 2 one edge to 1.
        assert offsets.tolist() == [0, 2, 2, 3]
        assert secondaries.tolist() == [1, 3, 1]
        assert item_offsets.tolist() == [0, 1, 2, 4]
        assert grouped.tolist() == [13, 11, 10, 12]

    def test_items_keep_input_order_within_an_edge(self):
        primary = np.zeros(4, dtype=np.int64)
        secondary = np.ones(4, dtype=np.int64)
        items = np.array([9, 4, 7, 4])
        _, _, item_offsets, grouped = group_rows_to_csr(
            1, primary, secondary, items)
        assert item_offsets.tolist() == [0, 4]
        assert grouped.tolist() == [9, 4, 7, 4]


class TestFreezing:
    def test_buffer_writable_sees_through_read_only_view(self):
        base = np.arange(4)
        view = base[1:]
        view.flags.writeable = False
        assert buffer_writable(view)

    def test_buffer_writable_false_for_read_only_root(self):
        root = np.arange(4)
        root.flags.writeable = False
        assert not buffer_writable(root[1:])

    def test_frozen_copy_on_write_copies_shared_writable_source(self):
        source = np.arange(5, dtype=np.int64)
        frozen = frozen_copy_on_write(np.asarray(source), source)
        assert not frozen.flags.writeable
        assert not np.may_share_memory(frozen, source)
        source[0] = 99
        assert frozen[0] == 0
        assert source.flags.writeable

    def test_frozen_copy_on_write_keeps_unshared_array(self):
        arr = np.arange(5, dtype=np.int64)
        frozen = frozen_copy_on_write(arr, [0, 1, 2, 3, 4])
        assert frozen is arr and not frozen.flags.writeable

    def test_freeze_columns_marks_every_column_read_only(self):
        a, b = np.arange(3), np.arange(2)
        freeze_columns(a, b)
        assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1
