"""The package imports only the standard library, numpy and itself.

The README promises that numpy is the only runtime dependency. Other
packages (scipy, for one) may well be installed where the tests run, so an
accidental import would pass every other test; this one reads the
imports of every module with `ast` instead.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "ftcsim").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ftcsim"}


def imported_modules(tree: ast.Module):
    """Top-level name of every absolute import; relative imports stay
    inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_stdlib_numpy_or_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(set(imported_modules(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"
