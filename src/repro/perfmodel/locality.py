"""Locality-aware max-rate model.

This is the model the paper's own prior work (Bienz, Gropp, Olson) uses to
motivate three-step aggregation: every locality class (intra-socket,
inter-socket, inter-node) gets its own latency and bandwidth, and inter-node
traffic is additionally subject to the shared injection-bandwidth cap of the
max-rate model.  The defaults in :mod:`repro.perfmodel.params` reflect the
Lassen observation quoted in the paper — short messages are far cheaper inside
a CPU, and inter-CPU (cross-socket) transfers of large messages can cost more
than inter-node ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.perfmodel.base import CostModel
from repro.topology.machine import Locality
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class LocalityParameters:
    """Alpha/beta pairs for one locality class."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be non-negative")


_DEFAULTS: Mapping[Locality, LocalityParameters] = {
    # Short-message latencies and inverse bandwidths in seconds; the ordering
    # intra-socket < inter-node (latency) and the expensive inter-socket
    # large-message path follow the measurements cited by the paper.
    Locality.INTRA_SOCKET: LocalityParameters(alpha=5.0e-7, beta=2.0e-11),
    Locality.INTER_SOCKET: LocalityParameters(alpha=9.0e-7, beta=2.0e-10),
    Locality.INTER_NODE: LocalityParameters(alpha=3.5e-6, beta=9.0e-11),
}


@dataclass(frozen=True)
class LocalityAwareModel(CostModel):
    """Per-locality alpha-beta model with an inter-node injection cap.

    Parameters
    ----------
    parameters:
        Mapping from :class:`Locality` to :class:`LocalityParameters`.  The
        ``SELF`` class is always free.
    beta_injection:
        Inverse injection bandwidth of a node (seconds/byte), shared by all
        ``active_per_node`` processes.
    active_per_node:
        Processes per node assumed active; with three-step aggregation only a
        subset of processes inject, which callers express with a smaller
        value (``lassen_parameters(active_per_node=)`` or
        ``dataclasses.replace``).
    """

    parameters: Mapping[Locality, LocalityParameters] = field(
        default_factory=lambda: dict(_DEFAULTS))
    beta_injection: float = 4.0e-12
    active_per_node: int = 16

    def __post_init__(self):
        for loc in (Locality.INTRA_SOCKET, Locality.INTER_SOCKET, Locality.INTER_NODE):
            if loc not in self.parameters:
                raise ValidationError(f"missing parameters for locality class {loc.name}")
        if self.beta_injection < 0:
            raise ValidationError("beta_injection must be non-negative")
        if self.active_per_node < 1:
            raise ValidationError("active_per_node must be >= 1")

    def message_time(self, nbytes: int, locality: Locality) -> float:
        """Per-message time using the class-specific alpha/beta."""
        if nbytes < 0:
            raise ValidationError("nbytes must be >= 0")
        if locality is Locality.SELF:
            return 0.0
        params = self.parameters[locality]
        beta = params.beta
        if locality is Locality.INTER_NODE:
            beta = max(beta, self.active_per_node * self.beta_injection)
        return params.alpha + nbytes * beta

    def message_times(self, nbytes: np.ndarray,
                      localities: np.ndarray) -> np.ndarray:
        """:meth:`message_time` of whole columns: ``alpha + nbytes * beta``
        by locality code, the inter-node ``beta`` capped as there."""
        if nbytes.size and nbytes.min() < 0:
            raise ValidationError("nbytes must be >= 0")
        classes = (Locality.INTRA_SOCKET, Locality.INTER_SOCKET,
                   Locality.INTER_NODE)
        alpha = np.zeros(len(Locality))
        beta = np.zeros(len(Locality))
        for locality in classes:
            alpha[locality] = self.parameters[locality].alpha
            beta[locality] = self.parameters[locality].beta
        beta[Locality.INTER_NODE] = max(beta[Locality.INTER_NODE],
                                        self.active_per_node
                                        * self.beta_injection)
        return alpha[localities] + nbytes * beta[localities]

    def alpha(self, locality: Locality) -> float:
        """Latency of the given class (0 for SELF)."""
        if locality is Locality.SELF:
            return 0.0
        return self.parameters[locality].alpha

    def beta(self, locality: Locality) -> float:
        """Per-byte cost of the given class (0 for SELF), before injection caps."""
        if locality is Locality.SELF:
            return 0.0
        return self.parameters[locality].beta

    def describe(self) -> str:
        parts = []
        for loc in (Locality.INTRA_SOCKET, Locality.INTER_SOCKET, Locality.INTER_NODE):
            p = self.parameters[loc]
            parts.append(f"{loc.name.lower()}: a={p.alpha:.2g} b={p.beta:.2g}")
        return f"LocalityAwareModel({'; '.join(parts)}; ppn={self.active_per_node})"
