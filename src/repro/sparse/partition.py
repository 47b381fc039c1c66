"""Row partitions: which rank owns which (contiguous block of) global rows.

Hypre's IJ interface assigns every rank a contiguous range of global rows; the
same convention is used here because it keeps ownership queries O(log P) and
matches how the paper's problems are distributed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.arrays import partition_evenly
from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive_int


class RowPartition:
    """Contiguous 1-D partition of ``n_rows`` global rows over ``n_ranks`` ranks."""

    def __init__(self, offsets: Sequence[int]):
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 2:
            raise ValidationError("offsets must be a 1-D array with at least 2 entries")
        if offsets[0] != 0:
            raise ValidationError("offsets must start at 0")
        if np.any(np.diff(offsets) < 0):
            raise ValidationError("offsets must be non-decreasing")
        self.offsets = offsets
        self.n_ranks = int(offsets.size - 1)
        self.n_rows = int(offsets[-1])

    # -- constructors -------------------------------------------------------------

    @classmethod
    def even(cls, n_rows: int, n_ranks: int) -> "RowPartition":
        """Split rows as evenly as possible (first ranks get the remainder)."""
        check_positive_int("n_ranks", n_ranks)
        if n_rows < 0:
            raise ValidationError("n_rows must be >= 0")
        return cls(partition_evenly(n_rows, n_ranks))

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "RowPartition":
        """Build a partition from per-rank row counts."""
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size == 0:
            raise ValidationError("sizes must not be empty")
        if np.any(sizes < 0):
            raise ValidationError("sizes must be non-negative")
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(offsets)

    # -- queries --------------------------------------------------------------------

    def owner_of(self, row: int) -> int:
        """Rank owning global row ``row``."""
        if row < 0 or row >= self.n_rows:
            raise ValidationError(f"row {row} out of range [0, {self.n_rows})")
        return int(np.searchsorted(self.offsets, row, side="right") - 1)

    def owners_of(self, rows: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`owner_of`."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ValidationError("row index out of range")
        return (np.searchsorted(self.offsets, rows, side="right") - 1).astype(np.int64)

    def row_range(self, rank: int) -> tuple[int, int]:
        """Half-open global row range ``[first, last)`` owned by ``rank``."""
        self._check_rank(rank)
        return int(self.offsets[rank]), int(self.offsets[rank + 1])

    def rows_of(self, rank: int) -> np.ndarray:
        """Global row indices owned by ``rank``."""
        first, last = self.row_range(rank)
        return np.arange(first, last, dtype=np.int64)

    def active_ranks(self) -> np.ndarray:
        """Ranks owning at least one row (coarse AMG levels leave ranks empty)."""
        sizes = np.diff(self.offsets)
        return np.flatnonzero(sizes > 0).astype(np.int64)

    def _check_rank(self, rank: int) -> None:
        if rank < 0 or rank >= self.n_ranks:
            raise ValidationError(f"rank {rank} out of range [0, {self.n_ranks})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowPartition):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowPartition(n_rows={self.n_rows}, n_ranks={self.n_ranks})"
