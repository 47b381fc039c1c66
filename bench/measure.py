"""Timing, reduction and process-accounting helpers of the benchmark.

Nothing here imports ``repro``: these are the rules of the run protocol
(low quantiles, batched timing of short operations, rusage deltas, the
machine fingerprint) kept apart from the workloads that use them.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

#: One-shot operations shorter than this are repeated until a batch lasts
#: :data:`MIN_BATCH_S`; a single sub-50 ms reading on a shared VM is mostly
#: the scheduler (the previous benchmark's ``setup_warm_s`` = 36 ms).
SHORT_OP_S = 0.050
MIN_BATCH_S = 0.200

clock = time.perf_counter


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Low and high quantiles of a sample list (same unit as the input).

    ``min`` and ``p10`` are what the benchmark gates on; the median and
    ``p90`` are printed beside them because on a shared VM they measure the
    neighbours as much as the program.
    """
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        return {"min": 0.0, "p10": 0.0, "p50": 0.0, "p90": 0.0, "n": 0}
    p10, p50, p90 = np.quantile(values, [0.10, 0.50, 0.90])
    return {"min": float(values.min()), "p10": float(p10), "p50": float(p50),
            "p90": float(p90), "n": int(values.size)}


def timed(operation: Callable[[], object]):
    """Run ``operation`` once; return ``(seconds, result)``."""
    start = clock()
    result = operation()
    return clock() - start, result


def timed_batched(operation: Callable[[], object], *,
                  min_batch_s: float = MIN_BATCH_S, max_reps: int = 1000):
    """Seconds per call of ``operation``, batching short operations.

    The first call is timed alone; if it is shorter than
    :data:`SHORT_OP_S` the operation is repeated until the batch lasts
    ``min_batch_s`` and the mean over the batch is returned.  Returns
    ``(seconds_per_call, last_result)``.
    """
    first, result = timed(operation)
    if first >= SHORT_OP_S:
        return first, result
    calls = 0
    start = clock()
    while True:
        result = operation()
        calls += 1
        elapsed = clock() - start
        if elapsed >= min_batch_s or calls >= max_reps:
            return elapsed / calls, result


def keep_the_heap() -> bool:
    """Tell glibc never to hand freed memory back to the kernel.

    By default large arrays are mmap'ed and unmapped again on free, so every
    pass first-touches its pages anew — and on a VM whose free pages go back
    to the host a first touch costs 10-70 us (measured: 1.0-3.6 s of ``sys``
    time inside the timed passes of ``irregular_exchange_1024_wide``, on
    set-ups of 2 s).  With mmap off and trimming off, the warm-up pass grows
    the heap once and the timed passes reuse it.  Returns False where the
    allocator is not glibc's.
    """
    m_trim_threshold, m_mmap_max = -1, -4
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(m_mmap_max, 0)) and \
        bool(mallopt(m_trim_threshold, 2**31 - 1))


def collect_garbage() -> None:
    """Free the previous pass before the next one allocates.

    Without this the old objects are still alive while the new ones are
    built, the resident set grows past the warm-up pass's peak, and timed
    passes pay first-touch page faults again.
    """
    gc.collect()


class ProcUsage:
    """A reading of this process's ``getrusage`` counters."""

    def __init__(self):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.sys_s = usage.ru_stime
        self.minflt = usage.ru_minflt
        # Linux reports ru_maxrss in KiB.
        self.maxrss_mb = usage.ru_maxrss / 1024.0

    def since(self, earlier: "ProcUsage") -> Dict[str, float]:
        """``sys`` seconds and minor faults since an earlier reading."""
        return {"sys_s": self.sys_s - earlier.sys_s,
                "minflt": self.minflt - earlier.minflt}


def loadavg() -> float:
    """The 1-minute load average (0.0 where the platform has none)."""
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


class CpuPin:
    """Pins this process to the last CPU it may run on, where the platform allows.

    ``cpu`` is ``None`` when it could not.  ``lifted()`` widens the affinity
    again for a while — the procs runtime's workers inherit it.
    """

    def __init__(self):
        try:
            self.allowed = os.sched_getaffinity(0)
            self.cpu = max(self.allowed)
            os.sched_setaffinity(0, {self.cpu})
        except (AttributeError, OSError):
            self.allowed = None
            self.cpu = None

    @contextlib.contextmanager
    def lifted(self):
        if self.cpu is None:
            yield
            return
        os.sched_setaffinity(0, self.allowed)
        try:
            yield
        finally:
            os.sched_setaffinity(0, {self.cpu})


def _calibration_chunk(table: np.ndarray, indices: np.ndarray) -> float:
    total = 0
    for value in range(20000):
        total += value * value
    for _ in range(20):
        total += float(table[indices].sum())
    return total


def calibrate_py_ms(reps: int = 25) -> float:
    """Fastest of ``reps`` runs of a fixed interpreter + gather chunk, in ms.

    A noise sentinel, not a metric of the program: when this number is off
    its usual value the machine was busy (or is a different machine) and an
    outlier run explains itself.
    """
    rng = np.random.default_rng(0)
    table = rng.standard_normal(200_000)
    indices = rng.integers(0, table.size, table.size)
    best = float("inf")
    for _ in range(reps):
        seconds, _ = timed(lambda: _calibration_chunk(table, indices))
        best = min(best, seconds)
    return best * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev(root: str) -> str:
    """Short revision of the checkout, ``"unknown"`` outside a repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"            # never let git search above the checkout
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() \
        else "unknown"


def machine_fingerprint(root: str, *, kernel_backend: str, pinned_cpu) -> Dict:
    """Where and with what the run happened (goes into every document)."""
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count() or 1,
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernel_backend,
        "git_rev": _git_rev(root),
        "platform": sys.platform,
        "loadavg_start": loadavg(),
    }


def format_rows(rows: List[Sequence[str]]) -> str:
    """Left-aligned first column, right-aligned rest."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
