"""Shared utilities used by every ``repro`` subpackage.

The helpers here are intentionally small and dependency-free so that the
substrate packages (:mod:`repro.topology`, :mod:`repro.simmpi`, ...) never have
to import each other just to validate arguments or format a report table: the
error hierarchy, integer argument checks, index-array helpers, and the
fixed-width tables the experiment reports print.
"""

from repro.utils.errors import (
    ReproError,
    ValidationError,
    CommunicationError,
    PlanError,
)
from repro.utils.validation import (
    check_positive_int,
    check_non_negative_int,
)
from repro.utils.arrays import (
    as_index_array,
    concatenate_or_empty,
    counts_to_displs,
    partition_evenly,
)
from repro.utils.formatting import (
    format_table,
    format_series,
)

__all__ = [
    "ReproError",
    "ValidationError",
    "CommunicationError",
    "PlanError",
    "check_positive_int",
    "check_non_negative_int",
    "as_index_array",
    "concatenate_or_empty",
    "counts_to_displs",
    "partition_evenly",
    "format_table",
    "format_series",
]
