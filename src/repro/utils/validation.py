"""Lightweight argument validation helpers.

These raise :class:`repro.utils.errors.ValidationError` with messages that name
the offending argument, which keeps error reporting uniform across the library
without pulling in a validation framework.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.utils.errors import ValidationError


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
