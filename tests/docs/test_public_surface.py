"""Every public name of a subpackage has a caller.

A name in a subpackage's ``__all__`` is a promise that code outside the
module uses it.  This guard parses ``src/``, ``bench/``, ``examples/`` and
``benchmarks/`` with :mod:`ast` and fails for any ``__all__`` name that no
``Name``, ``Attribute`` or ``import`` refers to outside its defining module
and its package's ``__init__.py``.  A name that only its own unit tests call
either leaves the library with those tests, moves into ``tests/`` as an
oracle, or stays in its module but leaves ``__all__``.  The allow-list is
for the few names a caller needs without naming them in the library; each
entry carries a one-line reason, and an entry that goes stale (the name left
``__all__``, or it has a caller now) fails the guard too.
"""

from __future__ import annotations

import ast
import os
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

#: Trees whose references count as callers.
SCANNED = ("src", "bench", "examples", "benchmarks")

#: The package whose subpackages' ``__all__`` the guard checks.
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "repro")

#: ``(package, name) -> reason`` for public names the library never names.
ALLOWED = {
    ("repro.utils", "ReproError"):
        "the base class callers catch for any library error",
}


def _module_path(module: str):
    """The ``.py`` file (or package ``__init__.py``) of a ``repro`` module."""
    base = os.path.join(REPO_ROOT, "src", *module.split("."))
    if os.path.isfile(base + ".py"):
        return base + ".py"
    init = os.path.join(base, "__init__.py")
    return init if os.path.isfile(init) else None


def public_names(init_source: str, package: str) -> dict:
    """``name -> defining module`` for every ``__all__`` entry of a package.

    A name the ``__init__`` imports from a submodule is defined there; any
    other entry (a submodule, a constant) is defined in the ``__init__``.
    """
    tree = ast.parse(init_source)
    origin = {}
    exported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origin[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported = [element.value for element in node.value.elts]
    return {name: origin.get(name, package) for name in exported}


def referenced_names(source: str) -> set:
    """Every name ``source`` uses as a ``Name``, an ``Attribute`` or an
    imported alias."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
            if node.module:
                found.update(node.module.split("."))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def _scanned_files():
    for tree in SCANNED:
        for directory, _, files in os.walk(os.path.join(REPO_ROOT, tree)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def surface() -> dict:
    """``(package, name) -> (defining file, package __init__)`` for every
    subpackage ``__all__`` name."""
    entries = {}
    for sub in sorted(os.listdir(PACKAGE_DIR)):
        init = os.path.join(PACKAGE_DIR, sub, "__init__.py")
        if not os.path.isfile(init):
            continue
        package = f"repro.{sub}"
        for name, module in public_names(_read(init), package).items():
            entries[(package, name)] = (_module_path(module) or init, init)
    return entries


def uncalled(entries: dict, references: dict) -> list:
    """The ``(package, name)`` entries no file outside the name's defining
    module and package ``__init__`` refers to."""
    return sorted(key for key, own in entries.items()
                  if not any(key[1] in names
                             for path, names in references.items()
                             if path not in own))


@pytest.fixture(scope="module")
def scan():
    references = {path: referenced_names(_read(path))
                  for path in _scanned_files()}
    return surface(), references


def test_every_public_name_has_a_caller(scan):
    entries, references = scan
    assert len(entries) > 50
    offenders = [f"{package}.{name}"
                 for package, name in uncalled(entries, references)
                 if (package, name) not in ALLOWED]
    assert not offenders, (
        "public names nothing outside their module uses (delete them, move "
        "them into tests/, or take them out of __all__):\n"
        + "\n".join(offenders))


def allow_list_problems(allowed: dict, entries: dict, flagged) -> list:
    """Why each allow-list entry is not (or no longer) a valid exception."""
    problems = []
    if len(allowed) > 4:
        problems.append(f"{len(allowed)} entries; the allow-list holds at most 4")
    for key, reason in allowed.items():
        if not isinstance(reason, str) or not reason.strip():
            problems.append(f"{key} has no reason")
        if key not in entries:
            problems.append(f"{key} left __all__; drop it from ALLOWED")
        elif key not in flagged:
            problems.append(f"{key} has a caller now; drop it from ALLOWED")
    return problems


def test_the_allow_list_is_short_reasoned_and_current(scan):
    entries, references = scan
    problems = allow_list_problems(ALLOWED, entries,
                                   set(uncalled(entries, references)))
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("allowed, problem", [
    ({("repro.pkg", "unused"): ""}, "has no reason"),
    ({("repro.pkg", "unused"): None}, "has no reason"),
    ({("repro.pkg", "gone"): "a reason"}, "left __all__"),
    ({("repro.pkg", "used"): "a reason"}, "has a caller now"),
    ({("repro.pkg", f"name{i}"): "a reason" for i in range(5)}, "at most 4"),
])
def test_a_stale_or_unreasoned_allow_list_entry_fails(allowed, problem):
    entries = {("repro.pkg", "used"): ("mod", "init"),
               ("repro.pkg", "unused"): ("mod", "init")}
    flagged = {("repro.pkg", "unused")}
    assert any(problem in text
               for text in allow_list_problems(allowed, entries, flagged))


def _guard(sources: dict, init: str, package: str = "repro.pkg") -> list:
    """Run the guard on in-memory files: ``sources`` maps a path to its
    source; ``init`` is the package ``__init__`` (path ``"init"``)."""
    entries = {(package, name): (path, "init")
               for name, path in public_names(init, package).items()}
    references = {path: referenced_names(textwrap.dedent(source))
                  for path, source in sources.items()}
    return [name for _, name in uncalled(entries, references)]


_INIT = textwrap.dedent("""
    from repro.pkg.mod import used, unused
    __all__ = ["used", "unused"]
""")


@pytest.mark.parametrize("caller", [
    "from repro.pkg import used",
    "import repro.pkg as pkg\npkg.used(1)",
    "def f():\n    return used",
    "from repro.pkg.mod import used as alias",
])
def test_the_guard_sees_each_kind_of_use(caller):
    sources = {"repro.pkg.mod": "def used(): pass\ndef unused(): used()",
               "caller": caller}
    assert _guard(sources, _INIT) == ["unused"]


def test_a_use_inside_the_defining_module_does_not_count():
    sources = {"repro.pkg.mod": "def used(): unused()\ndef unused(): pass",
               "init": _INIT}
    assert _guard(sources, _INIT) == ["unused", "used"]


def test_an_unused_name_added_to_all_fails_the_guard(scan):
    entries, references = scan
    utils = os.path.join(PACKAGE_DIR, "utils", "__init__.py")
    entries = dict(entries)
    entries[("repro.utils", "unused_helper")] = (
        os.path.join(PACKAGE_DIR, "utils", "arrays.py"), utils)
    assert ("repro.utils", "unused_helper") in uncalled(entries, references)
