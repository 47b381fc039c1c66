"""The library reads the process environment in five known places.

Each ``os.environ`` read is a hidden input: a run's behaviour then depends
on more than its arguments.  This guard pins every read under ``src/`` by
module and enclosing function — the runtime and failure-policy defaults of
the engine, the worker-pool timeout, the fault plan and the paper-scale
experiment switch.  A new read fails it; a change that deletes one of these
drops it from :data:`READS` in the same change, so the set only shrinks.
"""

from __future__ import annotations

import ast
import os
import textwrap
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: ``(file under src/, enclosing function) -> reads`` of the environment.
READS = Counter({
    (os.path.join("repro", "simmpi", "engine.py"), "default_runtime"): 1,
    (os.path.join("repro", "simmpi", "engine.py"), "default_on_failure"): 1,
    (os.path.join("repro", "simmpi", "procs.py"),
     "default_worker_timeout"): 1,
    (os.path.join("repro", "simmpi", "faults.py"), "from_environment"): 1,
    (os.path.join("repro", "experiments", "config.py"),
     "from_environment"): 1,
})

#: ``os`` attributes and importable names that read the environment.
_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """The innermost enclosing function (``None`` at module level) of every
    ``os.environ`` / ``os.getenv`` use and every ``from os import`` of one
    in ``source``."""
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in _READERS \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            reads.append(function)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend(function for alias in node.names
                         if alias.name in _READERS)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return reads


def test_the_library_reads_the_environment_only_where_pinned():
    found = Counter()
    for root, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    found.update((os.path.relpath(path, SRC), function)
                                 for function in
                                 environment_reads(handle.read()))
    assert found == READS


@pytest.mark.parametrize("source", [
    "value = os.environ.get('X', '')",
    "value = os.environ['X']",
    "value = os.getenv('X')",
    "from os import environ",
    "def f():\n    return 'X' in os.environ",
])
def test_the_guard_sees_each_kind_of_read(source):
    assert environment_reads(textwrap.dedent(source))


def test_the_guard_names_the_enclosing_function():
    source = """
    class Config:
        @classmethod
        def from_environment(cls):
            return os.environ.get("X")
    """
    assert environment_reads(textwrap.dedent(source)) == ["from_environment"]
