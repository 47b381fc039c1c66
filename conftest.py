"""Repository-level pytest configuration.

Adds ``src/`` to ``sys.path`` so the test-suite and benchmarks run even when
the package has not been pip-installed (handy on air-gapped machines).  When
``repro`` is already installed the installed copy wins because editable
installs place it earlier on the path.  Also home of the one fixture both
``tests/`` and ``benchmarks/`` use.
"""

import gc
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture
def count_calls():
    """``count_calls(func, *args)``: Python + C calls made while ``func`` runs.

    Counted under ``sys.setprofile``, so it reads no clock: a set-up pass
    written as whole-array operations makes the same number of calls on a
    large input as on a small one, a per-row or per-edge Python loop does not.
    ``of=(function, ...)`` counts only entries into those Python functions
    (matched by code object, whatever name the caller imported them under)
    and calls of those C methods (a descriptor such as ``np.ndarray.take``,
    matched by name and receiver type, however the caller reached it).
    ``skip=(function, ...)`` counts a call of those Python functions but
    nothing made inside it — e.g. a worker pool's wait for acknowledgements,
    whose polling varies from run to run.  Earlier garbage is collected
    first, so a collection of it — and the weakref callbacks that runs —
    never lands inside the count.
    """
    def counter(func, *args, of=None, skip=(), **kwargs) -> int:
        calls = 0
        codes = methods = None
        if of is not None:
            codes = {f.__code__ for f in of if hasattr(f, "__code__")}
            methods = [(f.__name__, f.__objclass__) for f in of
                       if not hasattr(f, "__code__")]
        skipped = {f.__code__ for f in skip}
        inside = None       # the frame of the skipped call being run
        gc.collect()

        def on_event(frame, event, arg):
            nonlocal calls, inside
            if inside is not None:
                if event == "return" and frame is inside:
                    inside = None
                return
            if event == "call" and frame.f_code in skipped:
                inside = frame
            if codes is None:
                calls += event in ("call", "c_call")
            elif event == "call":
                calls += frame.f_code in codes
            elif event == "c_call":
                calls += any(getattr(arg, "__name__", None) == name
                             and isinstance(getattr(arg, "__self__", None), cls)
                             for name, cls in methods)

        previous = sys.getprofile()
        sys.setprofile(on_event)
        try:
            func(*args, **kwargs)
        finally:
            sys.setprofile(previous)
        return calls
    return counter
