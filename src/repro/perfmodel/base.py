"""Cost-model interface.

A cost model answers one question: how long does it take a process to send (or
receive) a given set of messages, where each message is described by its byte
count and its :class:`~repro.topology.machine.Locality` class, given as
parallel columns.  Models are pure functions of their parameters, so every
estimate in the library is deterministic and reproducible.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.topology.machine import Locality


class CostModel(abc.ABC):
    """Abstract communication cost model."""

    @abc.abstractmethod
    def message_time(self, nbytes: int, locality: Locality) -> float:
        """Time in seconds to transfer a single message of ``nbytes`` bytes."""

    def message_times(self, nbytes: np.ndarray,
                      localities: np.ndarray) -> np.ndarray:
        """Time of every message of parallel columns: byte counts and
        :class:`Locality` codes.

        The default asks :meth:`message_time` message by message; a model
        with a closed form overrides it with whole-column arithmetic.
        """
        return np.array([self.message_time(size, Locality(code))
                         for size, code in zip(nbytes.tolist(),
                                               localities.tolist())],
                        dtype=np.float64)

    def phase_time(self, sources: np.ndarray, nbytes: np.ndarray,
                   localities: np.ndarray) -> float:
        """Time of a communication phase: the slowest participating process.

        Row ``k`` is a message process ``sources[k]`` *sends*, of
        ``nbytes[k]`` bytes along locality class ``localities[k]``.  A
        process's message times are summed in row order, matching the postal
        assumption that it injects its messages one after another.
        Receive-side cost is assumed symmetric, which is the convention the
        postal-model literature uses for alltoallv-style exchanges.
        """
        if not sources.size:
            return 0.0
        times = self.message_times(nbytes, localities)
        return float(np.bincount(sources, weights=times).max())

    def describe(self) -> str:
        """Human-readable one-line description of the model."""
        return type(self).__name__
