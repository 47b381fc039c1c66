"""Docs hygiene: markdown links resolve, and the architecture doc is wired in.

A lightweight stand-in for a full docs build: every relative markdown link in
``README.md`` and ``docs/`` must point at a file that exists, and the
README must link the architecture document (the satellite contract of the
world-stepped-engine PR).
"""

from __future__ import annotations

import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

#: Markdown documents whose links are checked.
DOCUMENTS = ["README.md", os.path.join("docs", "ARCHITECTURE.md")]

_LINK = re.compile(r"\[[^\]]+\]\(([^)]+)\)")


def _relative_links(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    links = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target.split("#", 1)[0])
    return links


@pytest.mark.parametrize("document", DOCUMENTS)
def test_document_exists(document):
    assert os.path.isfile(os.path.join(REPO_ROOT, document)), \
        f"{document} is missing"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_relative_links_resolve(document):
    path = os.path.join(REPO_ROOT, document)
    base = os.path.dirname(path)
    broken = [target for target in _relative_links(path)
              if not os.path.exists(os.path.join(base, target))]
    assert not broken, f"{document} has broken relative links: {broken}"


def test_readme_links_architecture_doc():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    assert "docs/ARCHITECTURE.md" in readme, \
        "README must link the architecture document"


#: A markdown file name, with any directory before it, as a module names it.
_MD_PATH = re.compile(r"[\w./-]*\w\.md\b")


def test_markdown_paths_named_in_src_exist():
    """Every ``*.md`` path a module under ``src/`` names (relative to the
    repository root) exists, so a docstring never sends its reader to a
    document that is gone."""
    missing = []
    for directory, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, 1):
                    missing += [
                        f"{os.path.relpath(path, REPO_ROOT)}:{number}: {target}"
                        for target in _MD_PATH.findall(line)
                        if not os.path.isfile(os.path.join(REPO_ROOT, target))]
    assert not missing, "modules name missing documents:\n" + "\n".join(missing)
