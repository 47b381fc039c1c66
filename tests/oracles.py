"""Test oracles: small reference implementations the library no longer ships.

Each one is the plain, obviously-correct form of something the library does
another way, kept only so tests can check against it:

* :func:`jacobi` — repeated out-of-place weighted-Jacobi sweeps on the
  assembled matrix, the reference the world-stepped smoother is pinned to;
* :func:`patterns_equivalent` — pattern equality up to the order of items
  within a message;
* :class:`PostalModel` — the uniform alpha-beta cost model, which prices
  plans in the modeled-time tests.

pytest puts ``tests/`` on ``sys.path`` when it loads ``tests/conftest.py``,
so any test imports them as ``from oracles import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amg.relax import weighted_jacobi_iteration
from repro.perfmodel.base import CostModel
from repro.topology.machine import Locality
from repro.utils.errors import ValidationError


def jacobi(A, b: np.ndarray, x: np.ndarray, *, sweeps: int = 1,
           omega: float = 2.0 / 3.0) -> np.ndarray:
    """Run ``sweeps`` weighted-Jacobi iterations."""
    if sweeps < 0:
        raise ValidationError("sweeps must be >= 0")
    result = np.array(x, dtype=np.float64, copy=True)
    for _ in range(sweeps):
        result = weighted_jacobi_iteration(A, b, result, omega=omega)
    return result


def patterns_equivalent(a, b) -> bool:
    """True when two patterns deliver the same multiset of items per (src, dest).

    Unlike ``CommPattern.__eq__`` this ignores the order of items within a
    message, which is the right notion of equivalence after a round-trip
    through transpose or serialization.
    """
    if a.n_ranks != b.n_ranks or a.item_bytes != b.item_bytes:
        return False
    edges_a = {(s, d): tuple(sorted(items.tolist())) for s, d, items in a.edges()}
    edges_b = {(s, d): tuple(sorted(items.tolist())) for s, d, items in b.edges()}
    return edges_a == edges_b


@dataclass(frozen=True)
class PostalModel(CostModel):
    """Uniform alpha-beta (Hockney) model: ``T(s) = alpha + s * beta``.

    A per-message latency plus a per-byte transfer cost, identical for every
    path; it ignores locality, so it predicts no benefit from aggregation.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-byte transfer time in seconds (inverse bandwidth).
    """

    alpha: float = 1.0e-6
    beta: float = 1.0e-9

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be non-negative")

    def message_time(self, nbytes: int, locality: Locality) -> float:
        """Latency plus bandwidth term; locality is ignored by design."""
        if nbytes < 0:
            raise ValidationError("nbytes must be >= 0")
        if locality is Locality.SELF:
            return 0.0
        return self.alpha + nbytes * self.beta

    def describe(self) -> str:
        return f"PostalModel(alpha={self.alpha:.3g}s, beta={self.beta:.3g}s/B)"
