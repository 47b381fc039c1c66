"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of the package with a single ``except`` clause
while still letting programming errors (``TypeError`` from numpy, etc.)
propagate unchanged.

:class:`WorkerCrash` is the structured diagnosis of one dead or wedged
``runtime="procs"`` worker; :class:`WorkerError` carries a tuple of them and
marks the failure as *infrastructure* (a process died, hung, or its pipe
broke) rather than a program bug — the distinction the supervision layer's
retry policy keys on: only :class:`WorkerError` is retryable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, shape, or structure)."""


class CommunicationError(ReproError, RuntimeError):
    """The simulated MPI runtime detected an illegal communication.

    Examples: posting a receive that is never matched, waiting on an inactive
    persistent request, message size mismatch between sender and receiver.
    """


@dataclass(frozen=True)
class WorkerCrash:
    """Structured diagnosis of one failed ``runtime="procs"`` worker.

    ``exitcode`` is the process exit status (negative means killed by that
    signal number, ``None`` means the process was still alive — a wedged
    worker that stopped answering); ``command`` is the last command the
    parent dispatched to it (``"run"`` or ``"register"``).
    """

    worker_id: int
    exitcode: Optional[int]
    command: str
    detail: str

    @property
    def signal(self) -> Optional[int]:
        """Signal number that killed the worker, if one did."""
        if self.exitcode is not None and self.exitcode < 0:
            return -self.exitcode
        return None

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.signal is not None:
            fate = f"killed by signal {self.signal}"
        elif self.exitcode is not None:
            fate = f"exited with code {self.exitcode}"
        else:
            fate = "stopped answering"
        return (f"worker {self.worker_id} {fate} during "
                f"{self.command}: {self.detail}")


class WorkerError(CommunicationError):
    """One or more ``runtime="procs"`` workers crashed, hung, or lost their
    pipe mid-command.

    Unlike a plain :class:`CommunicationError` (a deterministic program
    error that retrying would only repeat), a ``WorkerError`` is an
    infrastructure fault: the supervision layer may respawn the pool and
    retry, or fall back to the single-process path, per its
    ``on_failure`` policy.  ``crashes`` holds one structured
    :class:`WorkerCrash` per failed worker.
    """

    def __init__(self, message: str,
                 crashes: Tuple[WorkerCrash, ...] = ()):
        super().__init__(message)
        self.crashes = tuple(crashes)


class PlanError(ReproError, RuntimeError):
    """A collective plan is internally inconsistent.

    Raised when a planner produces (or is given) a phase plan whose messages do
    not conserve payload, reference ranks outside the communicator, or violate
    the aggregation invariants described in docs/ARCHITECTURE.md (Layer 2).
    """


class TopologyError(ReproError, ValueError):
    """A machine description or rank mapping is inconsistent."""


class SolverError(ReproError, RuntimeError):
    """An AMG setup or solve failed (singular level, empty coarse grid, ...)."""
