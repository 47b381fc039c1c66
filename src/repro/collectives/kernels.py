"""Gather kernels for the exchange data path.

Every work row holds the one per-iteration value of its ``(origin, item)``
key, so a compiled phase's three passes — ``wire = work[gather]``, then
``work[scatter] = wire[perm]`` — compose into the indexed copy
``work[scatter] = work[gather[perm]]`` (the ``fused`` kernel, kept only for
the frozen ``bench/`` kernel replay).  What runs is the compiler's
composition of every hop: one gather from the owned rows per round.  On
``runtime="engine"`` the parent makes it itself with ``ndarray.take``, one C
call with no Python frame around it; ``gather`` is what the
``runtime="procs"`` workers run on their share of a vector-bound handle's
halo rows.  Every ``take`` runs with ``mode="wrap"``:
``ExchangeEngine.register`` validates every index once, up front, so no
mode ever moves one, and ``mode="raise"`` buffers ``out`` and costs 3x.  On
numpy 2.4, ``wrap`` is up to a third faster than ``clip`` on rows of 4 to 32
bytes past ~10^4 entries, equal on small arrays, and 1-3 % slower on
64-byte rows, which take numpy's generic per-row copy.  Taken as 32-byte
halves with a doubled index, the irregular benchmark's result gather ran
11-25 % faster on a 2-vCPU VM, but its round time fell 12 % in only 10 of
12 paired runs, inside their spread, so rows are not split.

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
    np.take(work, indices, axis=0, out=out, mode="wrap")


def _numpy_fused(work: np.ndarray, scatter_indices: np.ndarray,
                 source_rows: np.ndarray) -> None:
    work[scatter_indices] = work[source_rows]


NUMPY_BACKEND = KernelBackend(name="numpy", gather=_numpy_gather,
                              fused=_numpy_fused)


def active_backend() -> KernelBackend:
    """The kernels every engine runs (numpy)."""
    return NUMPY_BACKEND
