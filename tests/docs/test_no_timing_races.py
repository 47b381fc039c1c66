"""No test races two stopwatches.

A ratio of two wall-clock readings measures the machine as much as the code:
on a loaded host it fails a change that is fine.  The suites pin what made a
path fast by counting calls instead (``count_calls``, root ``conftest.py``).
This test parses every Python file under ``tests/`` and ``benchmarks/`` and
fails on any ``assert`` that relates two timings — a ratio of them, a
difference of two intervals, or one compared with another.  A clock may be
asserted on only as an absolute budget (one timing against a constant), and
only in the node ids of :data:`ABSOLUTE_BUDGETS`.

A value is a *timing* when it comes from ``time.perf_counter()`` (or another
``time`` clock), directly or through assignments, containers it is appended
to, and the return values of nested helpers.
"""

from __future__ import annotations

import ast
import functools
import os
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

#: Directories whose Python files are checked.
SCANNED = ("tests", "benchmarks")

#: The only absolute budgets a test may assert a clock against, by node id.
#: Each is generous against what it measures, so machine load cannot fail it.
ABSOLUTE_BUDGETS = {
    "16k-rank cold set-up under 60 s": (
        "tests/collectives/test_setup_scale.py::"
        "test_cold_setup_at_16384_ranks_under_60_s",),
    "1024-rank plan pipeline under 60 s": (
        "tests/collectives/test_planner.py::"
        "test_all_plans_with_statistics_and_validate_at_1024_ranks_under_60_s",),
    "dead or wedged worker handled under 5 s": (
        "tests/simmpi/test_procs_faults.py::TestDetection::"
        "test_a_dead_worker_is_detected_within_the_budget",
        "tests/simmpi/test_procs_faults.py::TestDetection::"
        "test_a_hung_worker_is_detected_at_the_timeout",
        "tests/simmpi/test_procs_faults.py::TestCloseHygiene::"
        "test_close_does_not_deadlock_on_barrier_blocked_worker"),
}
ALLOWED = {node_id for node_ids in ABSOLUTE_BUDGETS.values()
           for node_id in node_ids}

_TIME_CLOCKS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
                "time", "time_ns", "process_time", "process_time_ns"}
_BARE_CLOCKS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
_CONTAINER_METHODS = {"append", "extend", "add", "insert", "update",
                      "setdefault"}


def _is_clock_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return isinstance(func.value, ast.Name) and func.value.id == "time" \
            and func.attr in _TIME_CLOCKS
    return isinstance(func, ast.Name) and func.id in _BARE_CLOCKS


def _target_names(target: ast.AST) -> set[str]:
    """Names a binding target writes (a subscript writes its container)."""
    while isinstance(target, (ast.Subscript, ast.Attribute, ast.Starred)):
        target = target.value
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_target_names, target.elts))
    return set()


class _Timings:
    """Taint analysis of one function: which names hold clock readings
    (``start = perf_counter()``), timings, and relations of two timings."""

    def __init__(self, function: ast.AST):
        self.function = function
        self.readings: set[str] = set()
        self.timed: set[str] = set()
        self.relative: set[str] = set()
        changed = True
        while changed:
            before = (len(self.readings), len(self.timed), len(self.relative))
            for value, names in self._bindings():
                self._bind(value, names)
            changed = before != (len(self.readings), len(self.timed),
                                 len(self.relative))

    # -- classification of expressions -----------------------------------------

    def is_clock(self, node: ast.AST) -> bool:
        """A raw clock reading, not yet an interval."""
        return _is_clock_call(node) or (
            isinstance(node, ast.Name) and node.id in self.readings)

    def is_timed(self, node: ast.AST) -> bool:
        return any(_is_clock_call(sub) or (isinstance(sub, ast.Name)
                                           and sub.id in self.timed)
                   for sub in ast.walk(node))

    def is_relative(self, node: ast.AST) -> bool:
        """Whether ``node`` relates two timings anywhere inside it."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self.relative:
                return True
            if isinstance(sub, ast.BinOp) and self.is_timed(sub.left) \
                    and self.is_timed(sub.right):
                if isinstance(sub.op, (ast.Div, ast.FloorDiv, ast.Mod)):
                    return True
                # reading - reading is one interval; interval - interval
                # is a race.
                if isinstance(sub.op, ast.Sub) and not (
                        self.is_clock(sub.left) or self.is_clock(sub.right)):
                    return True
            if isinstance(sub, ast.Compare) and sum(
                    map(self.is_timed, [sub.left, *sub.comparators])) > 1:
                return True
        return False

    # -- propagation ----------------------------------------------------------

    def _bindings(self):
        """``(value, names)`` for every way a value reaches a name."""
        for node in ast.walk(self.function):
            if isinstance(node, ast.Assign):
                yield node.value, set().union(*map(_target_names, node.targets))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) \
                    and node.value is not None:
                yield node.value, _target_names(node.target)
            elif isinstance(node, ast.NamedExpr):
                yield node.value, _target_names(node.target)
            elif isinstance(node, (ast.For, ast.comprehension)):
                yield node.iter, _target_names(node.target)
            elif isinstance(node, ast.withitem) and node.optional_vars:
                yield node.context_expr, _target_names(node.optional_vars)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _CONTAINER_METHODS:
                for argument in node.args:
                    yield argument, _target_names(node.func.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not self.function:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Return) and sub.value is not None:
                        yield sub.value, {node.name}

    def _bind(self, value: ast.AST, names: set[str]) -> None:
        if not names or not self.is_timed(value):
            return
        self.timed |= names
        if self.is_relative(value):
            self.relative |= names
        elif self.is_clock(value) or (
                isinstance(value, ast.BinOp)
                and isinstance(value.op, (ast.Add, ast.Sub))
                and self.is_clock(value.left) and not self.is_timed(value.right)):
            self.readings |= names


def _functions(tree: ast.Module):
    """``(node id, function)`` for module-level functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}::{member.name}", member


def timing_asserts(source: str, path: str = "<snippet>"):
    """``(node id, line, kind)`` of every assert that reads a clock.

    ``kind`` is ``"relative"`` when the assert relates two timings and
    ``"absolute"`` when it holds one timing against a constant.
    """
    found = []
    for name, function in _functions(ast.parse(source)):
        timings = _Timings(function)
        for node in ast.walk(function):
            if not isinstance(node, ast.Assert):
                continue
            if timings.is_relative(node.test):
                found.append((f"{path}::{name}", node.lineno, "relative"))
            elif timings.is_timed(node.test):
                found.append((f"{path}::{name}", node.lineno, "absolute"))
    return found


@functools.cache
def _scanned_asserts():
    found = []
    for directory in SCANNED:
        for root, _, files in os.walk(os.path.join(REPO_ROOT, directory)):
            for filename in sorted(files):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(root, filename)
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                relative_path = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
                found += timing_asserts(source, relative_path)
    return tuple(found)


def test_no_assert_relates_two_timings():
    offenders = [f"{node_id} (line {line}): " + (
        "relates two timings" if kind == "relative"
        else "asserts a clock outside ABSOLUTE_BUDGETS")
        for node_id, line, kind in _scanned_asserts()
        if kind == "relative" or node_id not in ALLOWED]
    assert not offenders, "count calls instead of racing clocks:\n" \
        + "\n".join(offenders)


def test_every_allow_listed_budget_is_live():
    """The allow-list names real tests that still assert an absolute budget."""
    budgets = {node_id for node_id, _, kind in _scanned_asserts()
               if kind == "absolute"}
    assert sorted(ALLOWED - budgets) == []


#: Shapes of the wall-clock races this suite retired, and what stays allowed.
SNIPPETS = {
    "ratio": ("""
        def test_gate():
            start = time.perf_counter()
            fast()
            fast_s = time.perf_counter() - start
            start = time.perf_counter()
            slow()
            slow_s = time.perf_counter() - start
            speedup = slow_s / fast_s
            assert speedup >= 5.0
        """, "relative"),
    "comparison": ("""
        def test_gate():
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                build()
                best = min(best, time.perf_counter() - start)
            start = time.perf_counter()
            baseline()
            baseline_s = time.perf_counter() - start
            assert best < baseline_s
        """, "relative"),
    "returned-by-helper": ("""
        def test_gate():
            def program(comm):
                start = perf_counter()
                comm.exchange()
                return perf_counter() - start, 1.0
            results = run_spmd(2, program)
            times = [r[0] for r in results]
            assert times[0] < 5 * times[1]
        """, "relative"),
    "collected-in-a-list": ("""
        class TestGate:
            def test_gate(self):
                seconds = []
                for build in (fast, slow):
                    start = time.monotonic()
                    build()
                    seconds.append(time.monotonic() - start)
                fast_s, slow_s = seconds
                assert slow_s - fast_s > 1.0
        """, "relative"),
    "absolute-budget": ("""
        def test_gate():
            start = time.perf_counter()
            build()
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0
        """, "absolute"),
}


@pytest.mark.parametrize("name", sorted(SNIPPETS))
def test_detector_classifies_known_shapes(name):
    source, kind = SNIPPETS[name]
    found = timing_asserts(textwrap.dedent(source))
    assert [entry[2] for entry in found] == [kind]


def test_detector_ignores_untimed_asserts():
    source = textwrap.dedent("""
        def test_counted(count_calls):
            start = time.perf_counter()
            calls = count_calls(build)
            seconds = time.perf_counter() - start
            emit_bench("x", speedup=60.0 / seconds)
            assert calls == 1240
            assert model.process_time(messages) > 0.0
        """)
    assert timing_asserts(source) == []
