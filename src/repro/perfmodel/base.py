"""Cost-model interface.

A cost model answers one question: how long does it take a process to send (or
receive) a given set of messages, where each message is described by its byte
count and its :class:`~repro.topology.machine.Locality` class.  Models are pure
functions of their parameters, so every estimate in the library is
deterministic and reproducible.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.topology.machine import Locality
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class MessageCost:
    """One message as seen by a cost model.

    Attributes
    ----------
    nbytes:
        Payload size in bytes (>= 0).
    locality:
        Path class of the message.
    """

    nbytes: int
    locality: Locality

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValidationError(f"nbytes must be >= 0, got {self.nbytes}")


class CostModel(abc.ABC):
    """Abstract communication cost model."""

    @abc.abstractmethod
    def message_time(self, nbytes: int, locality: Locality) -> float:
        """Time in seconds to transfer a single message of ``nbytes`` bytes."""

    def process_time(self, messages: Iterable[MessageCost]) -> float:
        """Time for one process to send/receive ``messages`` sequentially.

        Per-message times are summed, matching the postal assumption that a
        process injects its messages one after another.
        """
        return float(sum(self.message_time(m.nbytes, m.locality) for m in messages))

    def phase_time(self, per_process: Mapping[int, Sequence[MessageCost]]) -> float:
        """Time of a communication phase: the slowest participating process.

        ``per_process`` maps a rank to the messages it *sends* in the phase.
        Receive-side cost is assumed symmetric, which is the convention the
        postal-model literature uses for alltoallv-style exchanges.
        """
        if not per_process:
            return 0.0
        return max(self.process_time(msgs) for msgs in per_process.values())

    def describe(self) -> str:
        """Human-readable one-line description of the model."""
        return type(self).__name__
