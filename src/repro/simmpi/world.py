"""World management: running SPMD programs over simulated ranks.

:func:`run_spmd` is the main entry point used by tests and examples: it creates
one thread per rank, hands each a :class:`~repro.simmpi.comm.SimComm`, runs the
supplied function, and returns the per-rank results.  Any exception on any rank
aborts the whole world (waking ranks blocked in receives) and is re-raised to
the caller with the failing rank identified.
"""

from __future__ import annotations

import threading
import traceback
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from repro.simmpi.comm import SimComm
from repro.simmpi.mailbox import MessageFabric
from repro.simmpi.profiler import TrafficProfiler
from repro.utils.errors import CommunicationError
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.engine import ExchangeEngine


class SimWorld:
    """A fixed-size collection of simulated ranks sharing one message fabric."""

    def __init__(self, n_ranks: int, *, timeout: float = 60.0,
                 profiler: TrafficProfiler | None = None):
        check_positive_int("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        self.timeout = float(timeout)
        self.fabric = MessageFabric(self.n_ranks, timeout=timeout)
        self.profiler = profiler

    def comm(self, rank: int) -> SimComm:
        """Create the world communicator handle for ``rank``."""
        callback = self.profiler.record_envelope if self.profiler is not None else None
        return SimComm(self.fabric, rank, self.n_ranks, context=0,
                       traffic_callback=callback)

    def exchange_engine(self, *, runtime: str | None = None,
                        n_workers: int | None = None) -> "ExchangeEngine":
        """Create a world-stepped :class:`ExchangeEngine` over this world's ranks.

        The engine shares the world's profiler, so batched data-path traffic
        lands in the same counters as envelope-routed traffic — the two
        execution paths report identical totals for the same plan.
        ``runtime``/``n_workers`` select the engine's execution backend
        (serial kernels or the shared-memory worker pool); see
        :class:`~repro.simmpi.engine.ExchangeEngine`.
        """
        from repro.simmpi.engine import ExchangeEngine

        return ExchangeEngine(self.n_ranks, profiler=self.profiler,
                              runtime=runtime, n_workers=n_workers)

    def run(self, program: Callable[..., Any], *args: Any,
            rank_args: Optional[Sequence[tuple]] = None) -> List[Any]:
        """Run ``program(comm, *args)`` on every rank and collect results.

        Parameters
        ----------
        program:
            Callable invoked as ``program(comm, *args)`` (or with per-rank
            arguments when ``rank_args`` is given).
        rank_args:
            Optional sequence of per-rank positional argument tuples appended
            after the shared ``args``.
        """
        if rank_args is not None and len(rank_args) != self.n_ranks:
            raise CommunicationError(
                f"rank_args must have {self.n_ranks} entries, got {len(rank_args)}"
            )
        results: List[Any] = [None] * self.n_ranks
        errors: List[tuple[int, BaseException, str]] = []
        errors_lock = threading.Lock()

        def runner(rank: int) -> None:
            comm = self.comm(rank)
            extra = tuple(rank_args[rank]) if rank_args is not None else ()
            try:
                results[rank] = program(comm, *args, *extra)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with errors_lock:
                    errors.append((rank, exc, traceback.format_exc()))
                self.fabric.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=runner, args=(rank,), daemon=True,
                                    name=f"simmpi-rank-{rank}")
                   for rank in range(self.n_ranks)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.timeout + 5.0)
        stuck = [t.name for t in threads if t.is_alive()]
        if errors:
            rank, exc, text = sorted(errors)[0]
            raise CommunicationError(
                f"rank {rank} failed: {type(exc).__name__}: {exc}\n{text}"
            ) from exc
        if stuck:
            self.fabric.abort("deadlock suspected")
            raise CommunicationError(
                f"ranks did not terminate (suspected deadlock): {', '.join(stuck)}"
            )
        return results


def run_spmd(n_ranks: int, program: Callable[..., Any], *args: Any,
             timeout: float = 60.0,
             profiler: TrafficProfiler | None = None,
             rank_args: Optional[Sequence[tuple]] = None) -> List[Any]:
    """Convenience wrapper: build a :class:`SimWorld` and run one program.

    Returns the list of per-rank return values, indexed by rank.
    """
    world = SimWorld(n_ranks, timeout=timeout, profiler=profiler)
    return world.run(program, *args, rank_args=rank_args)
