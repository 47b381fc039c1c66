"""Gather kernels for the exchange data path.

Every work row holds the one per-iteration value of its ``(origin, item)``
key, so a compiled phase's three passes — ``wire = work[gather]``, then
``work[scatter] = wire[perm]`` — compose into the indexed copy
``work[scatter] = work[gather[perm]]`` (the ``fused`` kernel, kept only for
the frozen ``bench/`` kernel replay).  What runs is the compiler's layout:
each phase's first deliveries are one contiguous slice ``[a, b)``, filled
from the rows ``src`` earlier steps wrote.  On ``runtime="engine"`` the
parent does that itself with ``work[:a].take(src, 0, work[a:b], "clip")``,
one C call per step with no Python frame around it; ``gather`` is what the
``runtime="procs"`` workers run on their share of ``[a, b)``, and the one
more ``gather(work, result, out)`` the parent makes for a fresh output,
which also makes the deliveries of the phases no later step reads.  Every
``take`` runs with ``mode="clip"`` (numpy's ``mode="raise"`` buffers ``out``
and costs 3x): ``ExchangeEngine.register`` validates every index once, up
front.

There is one backend, plain numpy: a round is ``take`` into a slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class KernelBackend:
    """The implementations of the two exchange kernels.

    ``gather(work, indices, out)`` packs ``out[i] = work[indices[i]]``
    (indices trusted, not bounds-checked; ``out`` may be a row slice of
    ``work``'s base, disjoint from ``work``); ``fused(work, scatter_indices,
    source_rows)`` performs a compiled phase in one pass:
    ``work[scatter_indices[i]] = work[source_rows[i]]``.  All arrays are 2-D
    ``(rows, item_size)``; index arrays are int64.
    """

    name: str
    gather: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    fused: Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def _numpy_gather(work: np.ndarray, indices: np.ndarray, out: np.ndarray) -> None:
    np.take(work, indices, axis=0, out=out, mode="clip")


def _numpy_fused(work: np.ndarray, scatter_indices: np.ndarray,
                 source_rows: np.ndarray) -> None:
    work[scatter_indices] = work[source_rows]


NUMPY_BACKEND = KernelBackend(name="numpy", gather=_numpy_gather,
                              fused=_numpy_fused)


def active_backend() -> KernelBackend:
    """The kernels every engine runs (numpy)."""
    return NUMPY_BACKEND
