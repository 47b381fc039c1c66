"""Lightweight argument validation helpers.

These raise :class:`repro.utils.errors.ValidationError` with messages that name
the offending argument, which keeps error reporting uniform across the library
without pulling in a validation framework.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.utils.errors import ValidationError


def check_type(name: str, value: Any, types) -> Any:
    """Check that ``value`` is an instance of ``types`` and return it."""
    if not isinstance(value, types):
        if isinstance(types, tuple):
            expected = ", ".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise ValidationError(
            f"{name} must be of type {expected}, got {type(value).__name__}"
        )
    return value


def check_positive_int(name: str, value: Any) -> int:
    """Check that ``value`` is an integer strictly greater than zero."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return int(value)


def check_value_preserving_cast(source: np.dtype, target: np.dtype) -> None:
    """Reject casts from ``source`` into ``target`` that would corrupt values.

    Within-kind narrowing (float64 -> float32) is C-style assignment and
    allowed; cross-kind casts must be value-preserving — int64 into a float
    buffer or complex into a real one would corrupt data silently.  Every
    input the world exchange engine loads passes through it.
    """
    if source != target and source.kind != target.kind \
            and not np.can_cast(source, target, casting="safe"):
        raise ValidationError(
            f"values of dtype {source} cannot be safely cast to the "
            f"collective's {target}; cast explicitly if truncation "
            "is intended"
        )


def check_non_negative_int(name: str, value: Any) -> int:
    """Check that ``value`` is an integer greater than or equal to zero."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_in_range(name: str, value: float, low: float, high: float,
                   *, inclusive: bool = True) -> float:
    """Check that a scalar lies in ``[low, high]`` (or ``(low, high)``)."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValidationError(f"{name} must lie in {bounds}, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Check that ``value`` is a probability in ``[0, 1]``."""
    return check_in_range(name, value, 0.0, 1.0)


def check_index_array(name: str, values: Iterable[int], *,
                      upper: int | None = None) -> np.ndarray:
    """Validate an array of non-negative indices, optionally bounded above.

    Returns the values as a contiguous ``int64`` numpy array.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{name} must contain integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.min(initial=0) < 0:
        raise ValidationError(f"{name} must be non-negative")
    if upper is not None and arr.size and arr.max() >= upper:
        raise ValidationError(
            f"{name} contains index {int(arr.max())} >= upper bound {upper}"
        )
    return np.ascontiguousarray(arr)


def check_monotone(name: str, values: Sequence[float], *, strict: bool = False) -> np.ndarray:
    """Check that a sequence is non-decreasing (or strictly increasing)."""
    arr = np.asarray(values)
    if arr.size <= 1:
        return arr
    diffs = np.diff(arr)
    if strict:
        if not np.all(diffs > 0):
            raise ValidationError(f"{name} must be strictly increasing")
    else:
        if not np.all(diffs >= 0):
            raise ValidationError(f"{name} must be non-decreasing")
    return arr
