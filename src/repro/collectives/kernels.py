"""Gather kernels for the exchange data path.

A compiled phase describes three fancy-index passes: a *gather* packs the
wire (``wire = work[gather]``), a *permutation* reorders it from send order
into receive order (``wire[perm]``), and a *scatter* delivers it
(``work[scatter] = wire[perm]``).  Because every work row holds the value of
exactly one ``(origin, item)`` key for the whole iteration — sends read keys
that earlier steps already delivered, and every delivery of a key writes the
same value into the same row — the three passes compose into the indexed copy
``work[scatter] = work[gather[perm]]`` (the ``fused`` kernel, kept only for
the frozen ``bench/`` kernel replay).

No runtime executes either form.  ``ExchangeEngine.register`` renumbers the
rows so each phase's first deliveries are one contiguous slice, and the phase
is a lone ``gather(work[:a], src, work[a:b])`` — a ``take`` of earlier rows
into the slice — in the parent on ``runtime="engine"``, cut into one share of
``[a, b)`` per worker on ``runtime="procs"``.  A fresh output is one more
``gather(work, result, out)``, always in the parent; a phase whose rows no
later step reads gets no slice at all, its deliveries made by that output
gather straight from their sources.  ``gather`` therefore runs with
``mode="clip"`` (numpy's ``mode="raise"`` buffers ``out`` and costs 3x):
callers validate indices once, up front, as ``register`` does.

Two backends implement the kernels:

* ``numpy`` — always available.
* ``numba`` — ``@njit(parallel=True)`` loops over the index arrays, used
  automatically when numba is importable.

The active backend is selected once at import time — numba when importable,
numpy otherwise — and can be forced with ``REPRO_KERNELS=numba|numpy`` in the
environment (``numba`` without an importable numba is a hard error, not a
silent fallback).  :func:`select_backend` resolves a name to a
:class:`KernelBackend` for callers that want an explicit choice per engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.utils.errors import ValidationError

#: Environment variable that forces the kernel backend at import time.
KERNELS_ENV = "REPRO_KERNELS"

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the numpy-only environment
    HAVE_NUMBA = False


@dataclass(frozen=True)
class KernelBackend:
    """One backend's implementations of the two exchange kernels.

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


# -- numpy backend (always available) -----------------------------------------------


def _numpy_gather(work: np.ndarray, indices: np.ndarray, out: np.ndarray) -> None:
    np.take(work, indices, axis=0, out=out, mode="clip")


def _numpy_fused(work: np.ndarray, scatter_indices: np.ndarray,
                 source_rows: np.ndarray) -> None:
    work[scatter_indices] = work[source_rows]


NUMPY_BACKEND = KernelBackend(name="numpy", gather=_numpy_gather,
                              fused=_numpy_fused)


# -- numba backend (built only when numba imports) ----------------------------------


def _build_numba_backend() -> KernelBackend:  # pragma: no cover - needs numba
    from numba import njit, prange

    @njit(parallel=True, cache=True)
    def nb_gather(work, indices, out):
        n_components = work.shape[1]
        for i in prange(indices.size):
            row = indices[i]
            for c in range(n_components):
                out[i, c] = work[row, c]

    @njit(parallel=True, cache=True)
    def nb_fused(work, scatter_indices, source_rows):
        n_components = work.shape[1]
        for i in prange(scatter_indices.size):
            dest = scatter_indices[i]
            src = source_rows[i]
            for c in range(n_components):
                work[dest, c] = work[src, c]

    return KernelBackend(name="numba", gather=nb_gather, fused=nb_fused)


_NUMBA_BACKEND: Optional[KernelBackend] = None


def _numba_backend() -> KernelBackend:
    """Build (once) and return the numba backend; error without numba."""
    global _NUMBA_BACKEND
    if not HAVE_NUMBA:
        raise ValidationError(
            f"{KERNELS_ENV}=numba requested but numba is not importable; "
            "install numba or select the numpy backend"
        )
    if _NUMBA_BACKEND is None:  # pragma: no cover - needs numba
        _NUMBA_BACKEND = _build_numba_backend()
    return _NUMBA_BACKEND  # pragma: no cover - needs numba


# -- selection ----------------------------------------------------------------------


def available_backends() -> Tuple[str, ...]:
    """Names of the backends importable in this environment."""
    return ("numpy", "numba") if HAVE_NUMBA else ("numpy",)


def select_backend(name: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend name (or None for the import-time default).

    ``None`` consults ``REPRO_KERNELS`` and falls back to numba-if-importable,
    numpy otherwise — the same rule the import-time default uses, re-evaluated
    so tests can steer the choice per call.
    """
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        name = os.environ.get(KERNELS_ENV) or ("numba" if HAVE_NUMBA else "numpy")
    name = str(name).strip().lower()
    if name == "numpy":
        return NUMPY_BACKEND
    if name == "numba":
        return _numba_backend()
    raise ValidationError(
        f"unknown kernel backend {name!r}; expected one of "
        f"{KERNELS_ENV}=numba|numpy"
    )


#: The backend every engine uses unless told otherwise, fixed at import time.
ACTIVE_BACKEND: KernelBackend = select_backend()


def active_backend() -> KernelBackend:
    """The import-time default backend (numba when importable, else numpy)."""
    return ACTIVE_BACKEND
