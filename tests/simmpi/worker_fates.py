"""Worker failures a test makes itself, for the procs runtime's supervision.

The library injects no faults.  :func:`set_fates` monkeypatches the
worker-side function of one command — ``repro.simmpi.procs._run_round`` for
``"run"``, ``repro.simmpi.procs._attach_program`` for ``"register"`` — before
the pool forks, so every worker, respawned ones included, inherits the patch.
A file under the test's ``tmp_path`` lists what worker ``worker`` does in
each of its coming calls, one word per call, and the worker pops one word per
call:

* ``ok`` — does the work;
* ``kill`` — SIGKILLs itself, mid-round its peers already on the barrier
  (the OOM-killer shape);
* ``exit`` — leaves with ``os._exit(0)`` (the lost-pipe shape);
* ``hang`` — sleeps far past any ack timeout (a wedged kernel);
* ``raise`` — raises, a program error inside the worker.

A retried command is a new call for the respawned worker, so
``["kill"] * 3`` fails a command on every attempt of its retry budget.  A
respawn re-registers every retained program, one ``"register"`` call each.
An empty list does the work on every call.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

from repro.simmpi import procs

#: Longer than any ack timeout a test sets: the parent, not the sleep,
#: decides when a hanging worker is dead.
HANG_SECONDS = 3600.0


#: The worker-side function each command calls, the one a fate stands in for.
TARGETS = {"run": "_run_round", "register": "_attach_program"}


def set_fates(monkeypatch, tmp_path, fates, worker: int = 0,
              command: str = "run") -> None:
    """Make worker ``worker`` act out ``fates`` in its coming ``command``
    calls, one fate per call."""
    path = tmp_path / f"worker-{worker}-{command}-fates"
    path.write_text(" ".join(fates))
    name = TARGETS[command]
    original = getattr(procs, name)

    def fated(*args):  # pragma: no cover - forked child
        if mp.current_process().name == f"repro-exchange-worker-{worker}":
            fate, *rest = path.read_text().split() or ["ok"]
            path.write_text(" ".join(rest))
            if fate == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fate == "exit":
                os._exit(0)
            elif fate == "hang":
                time.sleep(HANG_SECONDS)
            elif fate == "raise":
                raise RuntimeError("a program error inside the worker")
        return original(*args)

    monkeypatch.setattr(procs, name, fated)


def kill_worker(engine, worker: int) -> None:
    """SIGKILL one live worker of ``engine``'s pool between rounds, and wait
    until it is gone."""
    process = engine._pool._processes[worker]
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10.0)
    assert process.exitcode == -signal.SIGKILL
