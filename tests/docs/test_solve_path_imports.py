"""The solve phase has one data path: the world engine.

``repro.amg`` and ``repro.sparse`` run every product, smoother sweep and
coarse gather through the batched :class:`~repro.simmpi.engine.ExchangeEngine`.
The envelope-routed per-rank runtime — communicators, the thread-per-rank
world, graph communicators, the mailbox fabric, requests — and the per-rank
collective built on it serve the per-rank collective API only.  This test
parses every module of the two packages and fails on any import, at any
depth, of those sources, so a second solve path cannot creep back in.
"""

from __future__ import annotations

import ast
import os
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")

#: Packages that must not reach the envelope runtime.
GUARDED = ("repro/amg", "repro/sparse")

#: Modules of the envelope-routed per-rank runtime.
ENVELOPE_MODULES = tuple(f"repro.simmpi.{name}" for name in
                         ("comm", "world", "topo_comm", "mailbox", "request"))

#: The per-rank collective and its init, wherever they are imported from.
PER_RANK_NAMES = {"neighbor_alltoallv_init", "PersistentNeighborCollective"}


def _top_level_names(module: str) -> set:
    """Names ``module`` defines at top level (what a re-export could carry)."""
    path = os.path.join(SRC, *module.split(".")) + ".py"
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    return names


#: Everything importable from the envelope modules, submodule names included.
FORBIDDEN_NAMES = PER_RANK_NAMES | {module.rsplit(".", 1)[1]
                                    for module in ENVELOPE_MODULES} | {
    name for module in ENVELOPE_MODULES for name in _top_level_names(module)
    if not name.startswith("_")}


def _violations(source: str) -> list:
    """``(line, what)`` for every import of the envelope runtime in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith(ENVELOPE_MODULES)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(ENVELOPE_MODULES):
                found.append((node.lineno, node.module))
                continue
            names = PER_RANK_NAMES if not node.module.startswith(
                "repro.simmpi") else FORBIDDEN_NAMES
            found += [(node.lineno, f"{node.module}.{alias.name}")
                      for alias in node.names if alias.name in names]
    return found


def _guarded_modules():
    for package in GUARDED:
        for directory, _, files in os.walk(os.path.join(SRC, package)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def test_amg_and_sparse_import_nothing_from_the_envelope_runtime():
    modules = list(_guarded_modules())
    assert len(modules) > 10
    offences = []
    for path in modules:
        with open(path, encoding="utf-8") as handle:
            offences += [f"{os.path.relpath(path, REPO_ROOT)}:{line}: {what}"
                         for line, what in _violations(handle.read())]
    assert not offences, "\n".join(offences)


@pytest.mark.parametrize("source", [
    "from repro.simmpi.comm import SimComm",
    "import repro.simmpi.mailbox",
    "from repro.simmpi import run_spmd",
    "from repro.simmpi import topo_comm",
    "from repro.collectives.api import neighbor_alltoallv_init",
    "from repro.collectives import PersistentNeighborCollective",
    """
    def later():
        from repro.simmpi.world import run_spmd
    """,
])
def test_the_guard_sees_each_kind_of_import(source):
    assert _violations(textwrap.dedent(source))


@pytest.mark.parametrize("source", [
    "from repro.simmpi.engine import ExchangeEngine",
    "from repro.simmpi import ExchangeEngine, TrafficProfiler",
    "from repro.collectives.api import neighbor_alltoallv_init_world",
    "from repro.collectives.persistent import WorldNeighborCollective",
])
def test_the_world_path_stays_importable(source):
    assert not _violations(source)
