"""Set-up has one stable order: :func:`repro.utils.arrays.lexsort_packed`.

Every stable order the planner, the leader assignment, the world compile
and the CSR grouping need is one row-tagged plain sort, which numpy runs
faster than its stable (timsort / radix) argsort of unsorted keys.  This guard
fails if a module under ``src/`` calls ``lexsort`` or asks a sort for
``kind="stable"`` (or ``"mergesort"``, its alias) anywhere but inside that
helper, whose fallback for keys that overflow int64 is the only such
call left.
"""

from __future__ import annotations

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: ``(file under src/, function)`` allowed to make a stable sort call.
HELPER = (os.path.join("repro", "utils", "arrays.py"), "lexsort_packed")


def _is_stable_sort(call: ast.Call) -> bool:
    function = call.func
    name = function.attr if isinstance(function, ast.Attribute) else \
        getattr(function, "id", None)
    if name == "lexsort":
        return True
    return any(keyword.arg == "kind"
               and isinstance(keyword.value, ast.Constant)
               and keyword.value.value in ("stable", "mergesort")
               for keyword in call.keywords)


def stable_sort_calls(source: str) -> list:
    """``(function, line)`` of every stable sort call in ``source``; the
    function is the innermost enclosing ``def`` (``None`` at module level)."""
    calls = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _is_stable_sort(node):
            calls.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return calls


def _src_files():
    for root, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                yield os.path.relpath(path, SRC), path


def test_no_stable_sort_outside_the_helper():
    offenders = []
    for relative, path in _src_files():
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        offenders += [f"{relative}:{line} ({function})"
                      for function, line in stable_sort_calls(source)
                      if (relative, function) != HELPER]
    assert offenders == [], (
        "stable sorts outside repro.utils.arrays.lexsort_packed: "
        + ", ".join(offenders))


def test_the_helper_keeps_its_fallback():
    with open(os.path.join(SRC, HELPER[0]), encoding="utf-8") as handle:
        calls = stable_sort_calls(handle.read())
    assert [function for function, _ in calls] == [HELPER[1]]


@pytest.mark.parametrize("source", [
    "np.lexsort((b, a))",
    "numpy.lexsort(keys)",
    "from numpy import lexsort\nlexsort(keys)",
    "np.argsort(a, kind='stable')",
    "a.argsort(kind='mergesort')",
    "def f(a):\n    a.sort(kind='stable')",
])
def test_the_guard_sees_each_kind_of_call(source):
    assert stable_sort_calls(source)


@pytest.mark.parametrize("source", [
    "np.argsort(a)",
    "a.sort()",
    "np.sort(a, kind='quicksort')",
    "lexsort_packed(a, b)",
])
def test_plain_sorts_stay_allowed(source):
    assert stable_sort_calls(source) == []
